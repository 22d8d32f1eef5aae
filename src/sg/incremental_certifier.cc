#include "sg/incremental_certifier.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/families.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sg/fingerprint.h"

namespace ntsg {

// --- ObjectIngestState ------------------------------------------------------

ObjectIngestState::ObjectIngestState(const SystemType& type, ObjectId x,
                                     ConflictMode mode)
    : type_(&type),
      x_(x),
      frontier_(type, mode, x),
      replay_(MakeSpec(type.object_type(x), type.object_initial(x))) {}

ObjectIngestState::ObjectIngestState(const ObjectIngestState& other)
    : type_(other.type_),
      x_(other.x_),
      ops_(other.ops_),
      frontier_(other.frontier_),
      replay_(other.replay_->Clone()),
      legal_(other.legal_),
      base_(other.base_ == nullptr ? nullptr : other.base_->Clone()),
      base_illegal_(other.base_illegal_),
      pruned_upto_(other.pruned_upto_) {}

ObjectIngestState& ObjectIngestState::operator=(
    const ObjectIngestState& other) {
  if (this == &other) return *this;
  type_ = other.type_;
  x_ = other.x_;
  ops_ = other.ops_;
  frontier_ = other.frontier_;
  replay_ = other.replay_->Clone();
  legal_ = other.legal_;
  base_ = other.base_ == nullptr ? nullptr : other.base_->Clone();
  base_illegal_ = other.base_illegal_;
  pruned_upto_ = other.pruned_upto_;
  return *this;
}

void ObjectIngestState::InsertVisibleOp(uint64_t pos, TxName tx,
                                        const Value& v,
                                        std::vector<SiblingEdge>* new_edges) {
  if (pos < pruned_upto_) {
    // Redelivery of an operation the GC already folded into the checkpoint
    // (an at-least-once transport replaying a pruned position). Dropping it
    // before any side effect keeps pruning invisible to the verdict; the
    // frontier no longer holds the entries a re-probe would need anyway.
    return;
  }
  auto existing = ops_.find(pos);
  if (existing != ops_.end()) {
    // Duplicated delivery: at-least-once transports may hand us the same
    // operation twice. It must be byte-for-byte the same one; dropping it
    // is what makes redelivery idempotent.
    NTSG_CHECK(existing->second.tx == tx && existing->second.value == v)
        << "conflicting redelivery at trace position " << pos;
    return;
  }

  frontier_.AddOp(tx, v, pos, new_edges);

  auto [it, inserted] = ops_.emplace(pos, Operation{tx, v});
  NTSG_CHECK(inserted);
  if (std::next(it) == ops_.end() && legal_) {
    // Appended at the end of the visible sequence: extend the replay.
    const AccessSpec& acc = type_->access(tx);
    if (replay_->Apply(acc.op, acc.arg) != v) legal_ = false;
  } else if (std::next(it) != ops_.end()) {
    // Revealed out of order: the replay suffix is stale either way.
    Recompute();
  }
  // Appended while already illegal: the first divergence is untouched, so
  // the sequence stays illegal; nothing to do.
}

void ObjectIngestState::Recompute() {
  replay_ = base_ == nullptr
                ? MakeSpec(type_->object_type(x_), type_->object_initial(x_))
                : base_->Clone();
  legal_ = !base_illegal_;
  if (!legal_) return;
  for (const auto& [p, op] : ops_) {
    const AccessSpec& acc = type_->access(op.tx);
    if (replay_->Apply(acc.op, acc.arg) != op.value) {
      legal_ = false;
      break;
    }
  }
}

size_t ObjectIngestState::Retire(
    const std::unordered_set<TxName>& retired_roots) {
  frontier_.Retire(retired_roots);
  size_t pruned = 0;
  auto it = ops_.begin();
  while (it != ops_.end()) {
    // An access at depth 1 is its own family root.
    TxName root = type_->AncestorAtDepth(it->second.tx, 1);
    if (retired_roots.count(root) == 0) break;
    if (base_ == nullptr) {
      base_ = MakeSpec(type_->object_type(x_), type_->object_initial(x_));
    }
    if (!base_illegal_) {
      const AccessSpec& acc = type_->access(it->second.tx);
      if (base_->Apply(acc.op, acc.arg) != it->second.value) {
        base_illegal_ = true;
      }
    }
    pruned_upto_ = it->first + 1;
    it = ops_.erase(it);
    ++pruned;
  }
  return pruned;
}

// --- IncrementalCertifier ---------------------------------------------------

IncrementalCertifier::IncrementalCertifier(const SystemType& type,
                                           ConflictMode mode, GcOptions gc)
    : type_(&type),
      mode_(mode),
      front_(type, gc, &obs::GetCertifierMetrics()) {}

IncrementalCertifier::IncrementalCertifier(const IncrementalCertifier& other)
    : type_(other.type_),
      mode_(other.mode_),
      front_(other.front_),
      illegal_objects_(other.illegal_objects_),
      conflict_edges_(other.conflict_edges_),
      precedes_edges_(other.precedes_edges_),
      graph_(other.graph_),
      acyclic_(other.acyclic_),
      first_rejection_pos_(other.first_rejection_pos_),
      cycle_witness_(other.cycle_witness_) {
  objects_.reserve(other.objects_.size());
  for (const auto& state : other.objects_) {
    objects_.push_back(state == nullptr
                           ? nullptr
                           : std::make_unique<ObjectIngestState>(*state));
  }
}

IncrementalCertifier& IncrementalCertifier::operator=(
    const IncrementalCertifier& other) {
  if (this == &other) return *this;
  IncrementalCertifier copy(other);
  type_ = copy.type_;
  mode_ = copy.mode_;
  front_ = std::move(copy.front_);
  objects_ = std::move(copy.objects_);
  illegal_objects_ = copy.illegal_objects_;
  conflict_edges_ = std::move(copy.conflict_edges_);
  precedes_edges_ = std::move(copy.precedes_edges_);
  graph_ = std::move(copy.graph_);
  acyclic_ = copy.acyclic_;
  first_rejection_pos_ = copy.first_rejection_pos_;
  cycle_witness_ = std::move(copy.cycle_witness_);
  // Batch staging is empty at every public-call boundary (FlushBatch runs
  // before IngestBatch returns); clear defensively rather than copy.
  batching_ = false;
  staged_edges_.clear();
  staged_illegal_pos_.reset();
  batch_actions_ = 0;
  return *this;
}

ObjectIngestState& IncrementalCertifier::ObjectState(ObjectId x) {
  if (x >= objects_.size()) objects_.resize(x + 1);
  if (objects_[x] == nullptr) {
    objects_[x] = std::make_unique<ObjectIngestState>(*type_, x, mode_);
  }
  return *objects_[x];
}

bool IncrementalCertifier::IngestAction(const Action& a) {
  obs::GetCertifierMetrics().actions_ingested->Inc();
  return front_.Ingest(a, *this);
}

void IncrementalCertifier::Ingest(const Action& a) {
  if (!IngestAction(a)) return;
  NoteVerdict();
  if (front_.GcDue()) RunGc();
}

void IncrementalCertifier::IngestTrace(const Trace& beta) {
  for (const Action& a : beta) Ingest(a);
}

void IncrementalCertifier::IngestBatch(std::span<const Action> batch) {
  for (const Action& a : batch) {
    if (!acyclic_) {
      // Cyclic verdicts are final and the witness must stay intact; the
      // remaining actions only update object replay state, which the
      // per-event path already does minimally.
      Ingest(a);
      continue;
    }
    batching_ = true;
    bool processed = IngestAction(a);
    ++batch_actions_;
    if (!processed) continue;  // Dropped late event: no verdict/GC tail.
    // Deferred NoteVerdict: graph insertions are staged, so acyclic_ cannot
    // flip mid-batch — but illegal return values surface immediately. Latch
    // the first such position; FlushBatch reconciles it against the first
    // cycle-closing action, which may be earlier.
    if (!first_rejection_pos_.has_value() && !staged_illegal_pos_.has_value() &&
        illegal_objects_ != 0) {
      staged_illegal_pos_ = front_.position() - 1;
    }
    if (front_.GcDue()) {
      // A batch never spans a GC barrier: the collector walks the live
      // graph (predecessor closure, retirement), so every staged edge must
      // be committed or rejected before it runs.
      FlushBatch();
      RunGc();
    }
  }
  if (batching_) FlushBatch();
}

void IncrementalCertifier::IngestTraceBatched(const Trace& beta,
                                              size_t batch_size) {
  if (batch_size <= 1) {
    IngestTrace(beta);
    return;
  }
  for (size_t i = 0; i < beta.size(); i += batch_size) {
    size_t n = std::min(batch_size, beta.size() - i);
    IngestBatch(std::span<const Action>(beta.data() + i, n));
  }
}

void IncrementalCertifier::FlushBatch() {
  batching_ = false;
  std::optional<uint64_t> cycle_pos;
  if (!staged_edges_.empty()) {
    obs::SpanTimer span(obs::GetBatchMetrics().commit_us);
    std::vector<IncrementalTopoGraph::BatchEdge> edges;
    edges.reserve(staged_edges_.size());
    for (const StagedEdge& e : staged_edges_) {
      edges.push_back(IncrementalTopoGraph::BatchEdge{e.from, e.to});
    }
    IncrementalTopoGraph::BatchAddResult r = graph_.AddEdgesBatch(edges);
    if (r.ok) {
      obs::GetBatchMetrics().batches_committed->Inc();
      obs::GetBatchMetrics().edges_committed->Inc(r.fresh_edges);
      obs::TraceEmit(obs::TraceEventKind::kBatchCommit, kT0,
                     static_cast<uint32_t>(staged_edges_.size()),
                     static_cast<uint32_t>(r.fresh_edges), 0, r.region_nodes);
      if (obs::TraceEnabled()) {
        // Keep the flight-recorder edge stream identical to per-event mode.
        for (const StagedEdge& e : staged_edges_) {
          obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, e.parent, e.from,
                         e.to,
                         e.is_conflict ? obs::kTraceFlagConflict
                                       : obs::kTraceFlagPrecedes);
        }
      }
    } else {
      // Somewhere in the batch a sequential insertion would have refused an
      // edge. The failed commit left the graph untouched, so replaying the
      // staged sequence per-edge from the top reproduces the per-event run
      // exactly: same first rejection, same FindPath witness, same
      // post-rejection insertions.
      obs::GetBatchMetrics().batches_bisected->Inc();
      obs::TraceEmit(obs::TraceEventKind::kBatchBisect, kT0,
                     static_cast<uint32_t>(staged_edges_.size()), 0, 0,
                     staged_edges_.size());
      for (const StagedEdge& e : staged_edges_) {
        bool was_acyclic = acyclic_;
        AddGraphEdge(e.parent, e.from, e.to, e.is_conflict);
        if (was_acyclic && !acyclic_) cycle_pos = e.action_pos;
      }
    }
    staged_edges_.clear();
  }
  obs::GetBatchMetrics().actions_batched->Inc(batch_actions_);
  obs::GetBatchMetrics().batch_size->Observe(
      static_cast<double>(batch_actions_));
  batch_actions_ = 0;
  if (!first_rejection_pos_.has_value()) {
    // What per-event NoteVerdict would have latched: the first action whose
    // processing left the verdict not-OK — the earlier of the first illegal-
    // values position and the first cycle-closing action. Flags reflect the
    // state at that action, so only causes at or before it are set.
    std::optional<uint64_t> bad = staged_illegal_pos_;
    if (cycle_pos.has_value() && (!bad.has_value() || *cycle_pos < *bad)) {
      bad = cycle_pos;
    }
    if (bad.has_value()) {
      first_rejection_pos_ = bad;
      uint8_t flags = 0;
      if (staged_illegal_pos_.has_value() && *staged_illegal_pos_ <= *bad) {
        flags |= obs::kTraceFlagInappropriate;
      }
      if (cycle_pos.has_value() && *cycle_pos <= *bad) {
        flags |= obs::kTraceFlagCycle;
      }
      obs::TraceEmit(obs::TraceEventKind::kVerdictRejected, kT0, 0, 0, flags,
                     *first_rejection_pos_);
    }
  }
  staged_illegal_pos_.reset();
}

void IncrementalCertifier::OnVisibleOp(uint64_t pos, TxName tx,
                                       const Value& v) {
  ObjectIngestState& state = ObjectState(type_->ObjectOf(tx));
  bool was_legal = state.legal();
  // The frontier performs the lca / child-toward mapping itself and dedups
  // within the object; the certifier-level set dedups across objects. Member
  // scratch: this runs once per activated op and is not re-entered (the
  // AddGraphEdge below never fires another activation).
  edge_scratch_.clear();
  state.InsertVisibleOp(pos, tx, v, &edge_scratch_);
  if (was_legal != state.legal()) {
    illegal_objects_ += was_legal ? 1 : -1;
  }
  for (const SiblingEdge& e : edge_scratch_) {
    if (conflict_edges_.Insert(e)) {
      obs::GetCertifierMetrics().conflict_edges->Inc();
      AddGraphEdge(e.parent, e.from, e.to, /*is_conflict=*/true);
    }
  }
}

void IncrementalCertifier::OnPrecedes(TxName parent, TxName from,
                                      TxName to) {
  if (precedes_edges_.Insert(SiblingEdge{parent, from, to})) {
    obs::GetCertifierMetrics().precedes_edges->Inc();
    AddGraphEdge(parent, from, to, /*is_conflict=*/false);
  }
}

void IncrementalCertifier::AddGraphEdge(TxName parent, TxName from, TxName to,
                                        bool is_conflict) {
  if (batching_) {
    // Deferred to FlushBatch. acyclic_ is true here (IngestBatch falls back
    // to per-event once it flips), so staging never hides a final verdict.
    staged_edges_.push_back(
        StagedEdge{parent, from, to, is_conflict, front_.position() - 1});
    obs::GetBatchMetrics().edges_staged->Inc();
    return;
  }
  obs::SpanTimer span(obs::GetCertifierMetrics().edge_insert_us);
  uint8_t relation =
      is_conflict ? obs::kTraceFlagConflict : obs::kTraceFlagPrecedes;
  if (graph_.AddEdge(from, to)) {
    obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, parent, from, to,
                   relation);
    return;
  }
  obs::GetCertifierMetrics().cycle_rejections->Inc();
  obs::TraceEmit(obs::TraceEventKind::kEdgeRejected, parent, from, to,
                 relation);
  if (acyclic_) {
    // First rejection: the graph still holds exactly the acyclic prefix, so
    // the refused edge plus the to ->* from path is the cycle it would have
    // closed. [to, ..., from] in cycle order; the closing edge is the
    // rejected one.
    cycle_witness_ = graph_.FindPath(to, from);
  }
  acyclic_ = false;
}

void IncrementalCertifier::NoteVerdict() {
  if (!first_rejection_pos_.has_value() && !verdict().ok()) {
    first_rejection_pos_ = front_.position() - 1;
    uint8_t flags = 0;
    if (illegal_objects_ != 0) flags |= obs::kTraceFlagInappropriate;
    if (!acyclic_) flags |= obs::kTraceFlagCycle;
    obs::TraceEmit(obs::TraceEventKind::kVerdictRejected, kT0, 0, 0, flags,
                   *first_rejection_pos_);
  }
}

uint64_t IncrementalCertifier::graph_fingerprint() const {
  // The fingerprinter wants strictly increasing edge order; the flat sets
  // record insertion order, so sort first.
  GraphFingerprinter fp;
  for (const SiblingEdge& e : conflict_edges_.SortedEdges()) fp.AddConflict(e);
  for (const SiblingEdge& e : precedes_edges_.SortedEdges()) fp.AddPrecedes(e);
  return fp.Finish();
}

uint64_t IncrementalCertifier::FingerprintLiveScope(
    const std::unordered_set<TxName>& retired_roots) const {
  GraphFingerprinter fp;
  for (const SiblingEdge& e : conflict_edges_.SortedEdges()) {
    if (!RetiredScopeEdge(*type_, retired_roots, e)) fp.AddConflict(e);
  }
  for (const SiblingEdge& e : precedes_edges_.SortedEdges()) {
    if (!RetiredScopeEdge(*type_, retired_roots, e)) fp.AddPrecedes(e);
  }
  return fp.Finish();
}

void IncrementalCertifier::RunGc() {
  // A cycle is final and its witness must survive untouched, so the
  // collector stands down once acyclicity is lost. Value-inappropriateness
  // does NOT stop collection: it can be transient (an out-of-order reveal
  // that a still-parked operation will heal), and the ops involved sit
  // above the watermark by construction — any family whose ops interleave
  // with parked work cannot seal — so retirement never disturbs it.
  if (!front_.gc_enabled() || !acyclic_) return;
  obs::SpanTimer span(obs::GetGcMetrics().run_us);
  std::vector<TxName> roots =
      front_.RetirableRoots(graph_, front_.BeginGcPass());
  if (!roots.empty()) RetireFamilies(roots);
  obs::GetGcMetrics().live_nodes->Set(graph_.node_count());
}

void IncrementalCertifier::RetireFamilies(const std::vector<TxName>& roots) {
  front_.RetireFamilies(roots, [this](TxName t) {
    size_t before = graph_.node_count();
    graph_.RemoveNode(t);
    return before - graph_.node_count();
  });

  // Memoized edge verdicts inside the retired scope. Closure guarantees no
  // live→retired edge exists, so testing the T0 projection is exact.
  const std::unordered_set<TxName> rset(roots.begin(), roots.end());
  auto retired_edge = [&](const SiblingEdge& e) {
    return RetiredScopeEdge(*type_, rset, e);
  };
  conflict_edges_.EraseIf(retired_edge);
  precedes_edges_.EraseIf(retired_edge);

  // Per-object frontier summaries and replay-prefix checkpointing. The full
  // retired set goes in: an old retired family's operations that stayed in
  // an object's sequence because a live family's op was interleaved after
  // them become prunable once that family retires too.
  for (const auto& obj : objects_) {
    if (obj == nullptr) continue;
    size_t pruned = obj->Retire(front_.book().retired_roots());
    front_.AddPrunedOps(pruned);
    obs::GetGcMetrics().ops_pruned->Inc(pruned);
  }

  // Keep the Pearce–Kelly key space anchored at the live population so it
  // cannot creep toward overflow over an unbounded stream.
  graph_.CompactOrders();
}

}  // namespace ntsg
