#include "sg/incremental_certifier.h"

#include <algorithm>
#include <iterator>
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
  graph_ = std::move(copy.graph_);
  acyclic_ = copy.acyclic_;
  first_rejection_pos_ = copy.first_rejection_pos_;
  cycle_witness_ = std::move(copy.cycle_witness_);
  return *this;
}

ObjectIngestState& IncrementalCertifier::ObjectState(ObjectId x) {
  if (x >= objects_.size()) objects_.resize(x + 1);
  if (objects_[x] == nullptr) {
    objects_[x] = std::make_unique<ObjectIngestState>(*type_, x, mode_);
  }
  return *objects_[x];
}

void IncrementalCertifier::Ingest(const Action& a) {
  obs::GetCertifierMetrics().actions_ingested->Inc();
  // False = the front end dropped the action as a late event: no verdict or
  // GC tail (SgFrontEnd::Ingest).
  if (!front_.Ingest(a, *this)) return;
  NoteVerdict();
  if (front_.GcDue()) RunGc();
}

void IncrementalCertifier::IngestTrace(const Trace& beta) {
  for (const Action& a : beta) Ingest(a);
}

void IncrementalCertifier::OnVisibleOp(uint64_t pos, TxName tx,
                                       const Value& v) {
  ObjectIngestState& state = ObjectState(type_->ObjectOf(tx));
  bool was_legal = state.legal();
  // The frontier performs the lca / child-toward mapping itself and emits
  // every candidate; the graph is the one dedup. Member scratch: this runs
  // once per activated op and is not re-entered (the AddGraphEdge below
  // never fires another activation).
  edge_scratch_.clear();
  state.InsertVisibleOp(pos, tx, v, &edge_scratch_);
  if (was_legal != state.legal()) {
    illegal_objects_ += was_legal ? 1 : -1;
  }
  for (const SiblingEdge& e : edge_scratch_) {
    AddGraphEdge(e.parent, e.from, e.to, IncrementalTopoGraph::kConflictTag);
  }
}

void IncrementalCertifier::OnPrecedes(TxName parent, TxName from,
                                      TxName to) {
  AddGraphEdge(parent, from, to, IncrementalTopoGraph::kPrecedesTag);
}

void IncrementalCertifier::AddGraphEdge(TxName parent, TxName from, TxName to,
                                        uint8_t tag) {
  const obs::CertifierMetrics& metrics = obs::GetCertifierMetrics();
  obs::SpanTimer span(metrics.edge_insert_us);
  const IncrementalTopoGraph::TagResult result =
      graph_.AddTaggedEdge(from, to, tag);
  if (result == IncrementalTopoGraph::TagResult::kKnown) {
    span.Cancel();  // a repeat of a known pair is not an edge insertion
    return;
  }
  const bool is_conflict = tag == IncrementalTopoGraph::kConflictTag;
  (is_conflict ? metrics.conflict_edges : metrics.precedes_edges)->Inc();
  const uint8_t relation =
      is_conflict ? obs::kTraceFlagConflict : obs::kTraceFlagPrecedes;
  if (result == IncrementalTopoGraph::TagResult::kAdmitted) {
    obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, parent, from, to,
                   relation);
    return;
  }
  metrics.cycle_rejections->Inc();
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

template <typename Keep>
uint64_t IncrementalCertifier::FingerprintTagged(Keep&& keep) const {
  // The fingerprinter wants each relation in strictly increasing edge
  // order; the pair map has none, so collect and sort.
  std::vector<SiblingEdge> conflict, precedes;
  conflict.reserve(conflict_edge_count());
  precedes.reserve(precedes_edge_count());
  graph_.ForEachTagged([&](TxName from, TxName to, uint8_t tags) {
    const SiblingEdge e{type_->parent(from), from, to};
    if (!keep(e)) return;
    if ((tags & IncrementalTopoGraph::kConflictTag) != 0) conflict.push_back(e);
    if ((tags & IncrementalTopoGraph::kPrecedesTag) != 0) precedes.push_back(e);
  });
  std::sort(conflict.begin(), conflict.end());
  std::sort(precedes.begin(), precedes.end());
  GraphFingerprinter fp;
  for (const SiblingEdge& e : conflict) fp.AddConflict(e);
  for (const SiblingEdge& e : precedes) fp.AddPrecedes(e);
  return fp.Finish();
}

uint64_t IncrementalCertifier::graph_fingerprint() const {
  return FingerprintTagged([](const SiblingEdge&) { return true; });
}

uint64_t IncrementalCertifier::FingerprintLiveScope(
    const std::unordered_set<TxName>& retired_roots) const {
  return FingerprintTagged([&](const SiblingEdge& e) {
    return !RetiredScopeEdge(*type_, retired_roots, e);
  });
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
  // Every edge in the retired scope touches a retired name (sibling edges
  // never cross a parent boundary), so removing the nodes drops exactly
  // those edges and their relation tags.
  front_.RetireFamilies(roots, [this](TxName t) {
    size_t before = graph_.node_count();
    graph_.RemoveNode(t);
    return before - graph_.node_count();
  });

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
