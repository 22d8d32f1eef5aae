#include "sg/front_end.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "obs/trace.h"

namespace ntsg {

// --- VisibilityTracker ------------------------------------------------------

TxName VisibilityTracker::BlockerOf(TxName subject, bool* dead) const {
  *dead = false;
  for (TxName u = subject; u != kT0; u = type_->parent(u)) {
    uint8_t f = Flags(u);
    if ((f & kAbortedBit) != 0) {
      *dead = true;
      return kInvalidTx;
    }
    if ((f & kCommittedBit) == 0) return u;
  }
  return kInvalidTx;
}

void VisibilityTracker::SetBit(TxName t, uint8_t bit) {
  size_t p = t >> kPageBits;
  if (p >= pages_.size()) pages_.resize(p + 1);
  Page& page = pages_[p];
  if (page.flags.empty()) page.flags.assign(kPageSize, 0);
  uint8_t& f = page.flags[t & (kPageSize - 1)];
  if (f == 0) ++page.live;
  f |= bit;
}

bool VisibilityTracker::NeverVisible(TxName t) const {
  for (TxName u = t; u != kT0; u = type_->parent(u)) {
    if ((Flags(u) & kAbortedBit) != 0) return true;
  }
  return false;
}

void VisibilityTracker::Retire(TxName t) {
  waiters_.erase(t);
  size_t p = t >> kPageBits;
  if (p >= pages_.size() || pages_[p].flags.empty()) return;
  Page& page = pages_[p];
  uint8_t& f = page.flags[t & (kPageSize - 1)];
  if (f == 0) return;
  f = 0;
  if (--page.live == 0) page.flags = {};  // Free the whole page.
}

VisibilityTracker::WatchResult VisibilityTracker::Watch(TxName subject,
                                                        uint64_t tag) {
  bool dead = false;
  TxName blocker = BlockerOf(subject, &dead);
  if (dead) return WatchResult::kDead;
  if (blocker == kInvalidTx) return WatchResult::kVisible;
  waiters_[blocker].push_back(Item{subject, tag});
  return WatchResult::kParked;
}

void VisibilityTracker::OnCommit(TxName t, std::vector<Item>* fired,
                                 std::vector<Item>* dropped) {
  SetBit(t, kCommittedBit);
  auto it = waiters_.find(t);
  if (it == waiters_.end()) return;
  std::vector<Item> parked = std::move(it->second);
  waiters_.erase(it);
  for (Item& item : parked) {
    bool dead = false;
    TxName blocker = BlockerOf(item.subject, &dead);
    if (dead) {
      if (dropped != nullptr) dropped->push_back(item);
      continue;
    }
    if (blocker == kInvalidTx) {
      fired->push_back(item);
    } else {
      waiters_[blocker].push_back(item);
    }
  }
}

void VisibilityTracker::OnAbort(TxName t, std::vector<Item>* dropped) {
  SetBit(t, kAbortedBit);
  // Items parked on t waited for COMMIT(t), which can no longer happen.
  auto it = waiters_.find(t);
  if (it == waiters_.end()) return;
  if (dropped != nullptr) {
    dropped->insert(dropped->end(), it->second.begin(), it->second.end());
  }
  waiters_.erase(it);
}

// --- SgFrontEnd: action -> sink ---------------------------------------------

SgFrontEnd::SgFrontEnd(const SystemType& type, GcOptions gc,
                       const obs::CertifierMetrics* metrics)
    : type_(&type), gc_(gc), metrics_(metrics), tracker_(type) {}

bool SgFrontEnd::Admit(const Action& a, uint64_t pos) {
  const bool is_report = a.kind == ActionKind::kReportCommit ||
                         a.kind == ActionKind::kReportAbort;
  if (gc_.enabled() && a.tx != kT0) {
    TxName root = GcFamilyBook::RootOf(*type_, a.tx);
    if (book_.IsRetired(root)) {
      // Well-formed streams do still name retired families: INFORM_* and
      // CREATE deliveries are verdict-inert by definition, and an aborted
      // root's orphaned descendants keep running (and eventually aborting)
      // long after the T0-level REPORT_ABORT. Both classes are invisible at
      // T0, so an unpruned certifier would ignore them too — drop them
      // silently; the position is still consumed to keep the stream
      // numbering aligned. Anything else naming a retired family means the
      // stream re-used a name whose whole lifecycle, report included, sat
      // below the watermark — count it as a late event and refuse to
      // resurrect reclaimed state.
      if (a.kind == ActionKind::kCreate ||
          a.kind == ActionKind::kInformCommit ||
          a.kind == ActionKind::kInformAbort || book_.RetiredAborted(root)) {
        return false;
      }
      ++gc_stats_.late_events;
      obs::GetGcMetrics().late_events->Inc();
      obs::TraceEmit(obs::TraceEventKind::kGcLateEvent, kT0, a.tx,
                     static_cast<uint32_t>(a.kind), 0, pos);
      return false;
    }
    book_.NoteRoot(root);
    // Resolution is keyed off the T0-level *report*, not the commit/abort
    // itself: the report is the last event that can touch T0's sibling
    // ordering (precedes(β) at the top level).
    if (is_report && type_->depth(a.tx) == 1) {
      book_.NoteResolved(a.tx, a.kind == ActionKind::kReportAbort);
    }
  }
  if (obs::TraceEnabled()) {
    // The causal span is the paper's hightransaction(π): the transaction
    // whose scope the action occurs in (completions land on the parent).
    TxName span = HighTransactionOf(*type_, a);
    if (span == kInvalidTx) span = kT0;
    obs::TraceEmit(obs::TraceEventKind::kActionIngested, span, a.tx,
                   static_cast<uint32_t>(a.kind), 0, pos);
    // REQUEST_CREATE(T) .. REPORT_*(T) is T's interval in the parent's span.
    if (a.kind == ActionKind::kRequestCreate) {
      TxName parent = type_->parent(a.tx);
      obs::TraceEmit(obs::TraceEventKind::kSpanBegin, parent, a.tx, parent, 0,
                     pos);
    } else if (is_report) {
      TxName parent = type_->parent(a.tx);
      obs::TraceEmit(obs::TraceEventKind::kSpanEnd, parent, a.tx, parent,
                     a.kind == ActionKind::kReportAbort ? obs::kTraceFlagAbort
                                                        : uint8_t{0},
                     pos);
    }
  }
  return true;
}

bool SgFrontEnd::WatchOp(uint64_t pos, TxName tx, const Value& v) {
  switch (tracker_.Watch(tx, pos)) {
    case VisibilityTracker::WatchResult::kVisible:
      return true;
    case VisibilityTracker::WatchResult::kParked:
      if (metrics_ != nullptr) metrics_->ops_parked->Inc();
      obs::TraceEmit(obs::TraceEventKind::kOpParked, tx, tx, 0, 0, pos);
      pending_ops_.emplace(pos, PendingOp{tx, v});
      return false;
    case VisibilityTracker::WatchResult::kDead:
      return false;  // can never become visible to T0
  }
  return false;
}

void SgFrontEnd::NoteVisible(uint64_t pos, TxName tx) {
  if (metrics_ != nullptr) metrics_->ops_activated->Inc();
  obs::TraceEmit(obs::TraceEventKind::kOpActivated, tx, tx, 0, 0, pos);
  if (gc_.enabled()) book_.NoteOp(GcFamilyBook::RootOf(*type_, tx), pos);
}

SgFrontEnd::PendingOp SgFrontEnd::TakeFired(
    const VisibilityTracker::Item& item) {
  obs::TraceEmit(obs::TraceEventKind::kOpFired, item.subject, item.subject, 0,
                 0, item.tag);
  auto it = pending_ops_.find(item.tag);
  NTSG_CHECK(it != pending_ops_.end()) << "fired op without pending entry";
  PendingOp op = std::move(it->second);
  pending_ops_.erase(it);
  return op;
}

void SgFrontEnd::Drop(const VisibilityTracker::Item& item) {
  if ((item.tag & kScopeTagBit) != 0) return;  // Scope state stays in scopes_.
  if (metrics_ != nullptr) metrics_->ops_dropped->Inc();
  obs::TraceEmit(obs::TraceEventKind::kOpDropped, item.subject, item.subject,
                 0, 0, item.tag);
  pending_ops_.erase(item.tag);
}

SgFrontEnd::ParentScope& SgFrontEnd::Scope(TxName parent) {
  ParentScope& scope = scopes_[parent];
  if (!scope.registered) {
    scope.registered = true;
    // Visible at once when, e.g., parent == T0.
    scope.visible = tracker_.Watch(parent, kScopeTagBit | parent) ==
                    VisibilityTracker::WatchResult::kVisible;
  }
  return scope;
}

// --- SgFrontEnd: garbage collection -----------------------------------------

std::vector<TxName> SgFrontEnd::BeginGcPass(const std::vector<HeldOp>& held) {
  ++gc_stats_.runs;
  obs::GetGcMetrics().runs->Inc();
  // Fresh actions take positions >= pos_; the only older positions still
  // able to activate belong to parked operations that are not dead (an
  // aborted-ancestor op never fires) and to operations the consumer holds.
  // Families owning such work — or unactivated scopes with future precedes
  // pairs — are blocked outright.
  uint64_t watermark = pos_;
  std::unordered_set<TxName> blocked;
  for (const auto& [pos, op] : pending_ops_) {
    if (tracker_.NeverVisible(op.tx)) continue;
    blocked.insert(GcFamilyBook::RootOf(*type_, op.tx));
    watermark = std::min(watermark, pos);
  }
  for (const auto& [parent, scope] : scopes_) {
    if (parent == kT0 || scope.visible) continue;
    if (tracker_.NeverVisible(parent)) continue;
    blocked.insert(GcFamilyBook::RootOf(*type_, parent));
  }
  for (const HeldOp& h : held) {
    blocked.insert(GcFamilyBook::RootOf(*type_, h.tx));
    watermark = std::min(watermark, h.pos);
  }
  gc_stats_.last_watermark = watermark;
  obs::GetGcMetrics().live_families->Set(
      static_cast<int64_t>(book_.live_families()));
  return book_.SealedCandidates(static_cast<size_t>(watermark), blocked);
}

std::vector<TxName> SgFrontEnd::RetirableRoots(
    const IncrementalTopoGraph& graph, const std::vector<TxName>& sealed) {
  std::vector<TxName> roots = PredecessorClosure(graph, sealed);
  obs::TraceEmit(obs::TraceEventKind::kGcRun, kT0,
                 static_cast<uint32_t>(roots.size()), 0, 0,
                 gc_stats_.last_watermark);
  return roots;
}

void SgFrontEnd::RetireFamilies(
    const std::vector<TxName>& roots,
    const std::function<size_t(TxName)>& remove_node) {
  const std::unordered_set<TxName> rset(roots.begin(), roots.end());

  for (TxName root : roots) {
    size_t removed = 0;
    for (TxName t : type_->SubtreeOf(root)) {
      removed += remove_node(t);
      tracker_.Retire(t);
      scopes_.erase(t);
    }
    gc_stats_.retired_nodes += removed;
    obs::GetGcMetrics().nodes_retired->Inc(removed);
    ++gc_stats_.retired_families;
    obs::GetGcMetrics().families_retired->Inc();
    obs::TraceEmit(obs::TraceEventKind::kGcRetire, root, root, 0, 0, removed);
    book_.MarkRetired(root);
  }

  // Parked operations under a retired family are necessarily dead (live
  // ones blocked the seal); their payloads go with the family.
  for (auto it = pending_ops_.begin(); it != pending_ops_.end();) {
    if (rset.count(GcFamilyBook::RootOf(*type_, it->second.tx)) != 0) {
      it = pending_ops_.erase(it);
    } else {
      ++it;
    }
  }

  // The T0 scope would otherwise emit precedes pairs from retired reported
  // children to every future top-level request forever. Order-preserving
  // removal keeps the emission order of the survivors intact.
  auto t0_scope = scopes_.find(kT0);
  if (t0_scope != scopes_.end()) {
    ParentScope& scope = t0_scope->second;
    scope.reported.erase(
        std::remove_if(scope.reported.begin(), scope.reported.end(),
                       [&](TxName t) { return rset.count(t) != 0; }),
        scope.reported.end());
    scope.buffer.erase(
        std::remove_if(scope.buffer.begin(), scope.buffer.end(),
                       [&](const std::pair<bool, TxName>& ev) {
                         return rset.count(ev.second) != 0;
                       }),
        scope.buffer.end());
  }
  obs::GetGcMetrics().live_families->Set(
      static_cast<int64_t>(book_.live_families()));
}

}  // namespace ntsg
