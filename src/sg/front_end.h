#ifndef NTSG_SG_FRONT_END_H_
#define NTSG_SG_FRONT_END_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/families.h"
#include "sg/fast_graph.h"
#include "sg/gc_watermark.h"
#include "tx/action.h"
#include "tx/system_type.h"

namespace ntsg {

/// Activates items when their subject transaction becomes visible to T0 —
/// i.e. when every ancestor strictly below T0 (the subject included) has
/// committed. Visibility is monotone over trace prefixes: once a subject is
/// visible it stays visible, so each watched item fires at most once.
///
/// A watched subject waits on its *lowest uncommitted ancestor*; each COMMIT
/// re-resolves exactly the items parked on the committing name, so the
/// amortized cost per item is O(depth) pointer walks per ancestor commit.
///
/// Watched items are plain data (subject + caller tag), not callbacks, so
/// the tracker has value semantics: copying it is the snapshot of the
/// certifier's visibility frontier that crash recovery restores.
class VisibilityTracker {
 public:
  explicit VisibilityTracker(const SystemType& type) : type_(&type) {}

  /// A parked activation: `tag` is caller-defined payload routing (e.g. the
  /// trace position of a pending operation).
  struct Item {
    TxName subject;
    uint64_t tag;
  };

  enum class WatchResult : uint8_t {
    kVisible,  // already visible; the caller activates now
    kParked,   // parked on the lowest uncommitted ancestor
    kDead,     // an ancestor aborted; the subject can never become visible
  };

  /// Registers (subject, tag) to fire when `subject` is visible to T0.
  WatchResult Watch(TxName subject, uint64_t tag);

  /// Records COMMIT(t); appends newly visible items to `fired` (in parked
  /// order) and items whose subject turned out dead to `dropped` (if
  /// non-null).
  void OnCommit(TxName t, std::vector<Item>* fired,
                std::vector<Item>* dropped = nullptr);

  /// Records ABORT(t); appends items parked directly on t to `dropped` (if
  /// non-null) — COMMIT(t) can no longer happen.
  void OnAbort(TxName t, std::vector<Item>* dropped = nullptr);

  /// True iff `t` can never become visible: some ancestor strictly below T0
  /// (t included) has aborted. Items watching such a subject will never
  /// fire, so the GC neither waits for them nor counts their positions.
  bool NeverVisible(TxName t) const;

  /// Releases all state for `t`: its commit/abort flags and any items
  /// parked on it (the GC calls this per retired name after proving no
  /// parked item under the family can ever fire). Frees a flag page once
  /// its last live name retires, which is what keeps tracker memory
  /// proportional to live names on an unbounded stream.
  void Retire(TxName t);

 private:
  /// Commit/abort flags live in fixed-size pages indexed by name so state
  /// can be released page-wise: a dense vector over names would grow with
  /// every name ever interned, which is exactly what the GC exists to avoid.
  static constexpr uint8_t kCommittedBit = 1;
  static constexpr uint8_t kAbortedBit = 2;
  static constexpr size_t kPageBits = 12;
  static constexpr size_t kPageSize = size_t{1} << kPageBits;

  struct Page {
    std::vector<uint8_t> flags;  // empty (freed) or kPageSize bytes
    uint32_t live = 0;           // names on this page with nonzero flags
  };

  /// Lowest uncommitted ancestor of `subject` below T0 (kInvalidTx when
  /// visible now). Sets `*dead` when an ancestor has aborted.
  TxName BlockerOf(TxName subject, bool* dead) const;

  uint8_t Flags(TxName t) const {
    size_t p = t >> kPageBits;
    if (p >= pages_.size() || pages_[p].flags.empty()) return 0;
    return pages_[p].flags[t & (kPageSize - 1)];
  }
  void SetBit(TxName t, uint8_t bit);

  const SystemType* type_;
  std::vector<Page> pages_;
  std::unordered_map<TxName, std::vector<Item>> waiters_;
};

/// The action→SG front end: the one place that decides which operations
/// are visible to T0 and when a precedes(β) pair exists (PAPER §4,
/// DESIGN.md §9). Both online consumers of SG(β) — the certifier and the
/// isolation checker — feed their actions through one of these and differ
/// only in what they do with the output.
///
/// Ingest turns each action into calls on a *sink*, a type with
///
///   void OnVisibleOp(uint64_t pos, TxName tx, const Value& v);
///   void OnPrecedes(TxName parent, TxName from, TxName to);
///
/// OnVisibleOp reports the REQUEST_COMMIT of access `tx` (returning `v`,
/// at trace position `pos`) the moment every ancestor below T0 has
/// committed. OnPrecedes reports one precedes pair (a REPORT of `from`
/// before the REQUEST_CREATE of `to`, both children of `parent`) once the
/// parent is visible: a visible REQUEST_CREATE emits one pair per earlier
/// reported sibling, in report order, and a scope turning visible replays
/// its buffered events in trace order. Within one action the calls come in
/// exactly that order; a sink must not call back into the front end.
///
/// The sink is a template argument passed per call, never stored: the front
/// end is a plain value (copying it copies the stream position, tracker,
/// parent scopes, parked operations and GC book), so a consumer that holds
/// one by value stays snapshot-by-copy, and no virtual call sits on the
/// per-pair path.
///
/// With GC enabled the front end also owns the consumer-independent half of
/// the commit-watermark collector (DESIGN.md §10): the late-event filter,
/// the family book, the watermark and blocked set, the predecessor closure,
/// the retirement of its own state, and the GcStats. The consumer keeps the
/// graph, the edge sets and the per-object states, and drives a pass as
///
///   roots = RetirableRoots(graph, BeginGcPass());
///   RetireFamilies(roots, remove_node);   // then prune its own state
class SgFrontEnd {
 public:
  /// `metrics`, when non-null, receives the visibility counters (operations
  /// activated, parked and dropped; tracker items fired). Only the solo
  /// certifier passes its family, so ntsg_certifier_* keeps counting the
  /// certifier alone.
  SgFrontEnd(const SystemType& type, GcOptions gc,
             const obs::CertifierMetrics* metrics = nullptr);

  /// Consumes the next action, emitting to `sink`. Returns false when the
  /// GC's late-event filter dropped it: the position is consumed, but the
  /// caller must skip its per-action verdict/GC tail (a dropped event is
  /// invisible, so it cannot trigger a collection pass — the retirement
  /// schedule would otherwise drift from a run that never saw it).
  template <typename Sink>
  bool Ingest(const Action& a, Sink& sink);

  /// Actions consumed so far, dropped ones included; the next action's
  /// trace position.
  uint64_t position() const { return pos_; }

  bool gc_enabled() const { return gc_.enabled(); }
  /// True iff a retirement pass is scheduled after the action just ingested.
  bool GcDue() const { return gc_.enabled() && pos_ % gc_.interval == 0; }

  /// Starts a retirement pass: counts it, computes the watermark W (no
  /// activation after this point can carry a position below W) and the set
  /// of families blocked by live parked work, records W in
  /// gc_stats().last_watermark, and returns the sealed candidates (sorted).
  /// The front end keeps the live-family gauge current from here and from
  /// RetireFamilies.
  std::vector<TxName> BeginGcPass();

  /// The families this pass retires: PredecessorClosure of `sealed` in
  /// `graph` (the consumer's T0 component). Emits the pass's trace event.
  std::vector<TxName> RetirableRoots(const IncrementalTopoGraph& graph,
                                     const std::vector<TxName>& sealed);

  /// Retires `roots` (sealed and predecessor-closed): calls `remove_node`
  /// on every name of each family — the consumer drops the graph node and
  /// returns how many nodes went — then releases the tracker state, parent
  /// scopes and parked operations under the families, drops them from the
  /// T0 scope, and marks them retired. Updates the retired_* statistics.
  void RetireFamilies(const std::vector<TxName>& roots,
                      const std::function<size_t(TxName)>& remove_node);

  /// Counts operations the consumer folded into its per-object checkpoints
  /// (GcStats::pruned_ops, the one statistic the front end cannot see).
  void AddPrunedOps(uint64_t n) { gc_stats_.pruned_ops += n; }

  const GcFamilyBook& book() const { return book_; }
  const GcStats& gc_stats() const { return gc_stats_; }

 private:
  /// Tracker tags: plain positions address parked operations; the high bit
  /// marks a parent-scope activation (positions and names both stay far
  /// below 2^63).
  static constexpr uint64_t kScopeTagBit = 1ull << 63;

  /// Per-parent precedes bookkeeping. Until the parent is visible, report /
  /// request-create events are buffered in order; afterwards reports
  /// accumulate and every request-create emits pairs from all earlier
  /// reported siblings.
  struct ParentScope {
    bool registered = false;
    bool visible = false;
    std::vector<TxName> reported;
    std::vector<std::pair<bool, TxName>> buffer;  // (is_report, child)
  };

  /// A REQUEST_COMMIT awaiting visibility, keyed by trace position (= the
  /// tracker tag for operations).
  struct PendingOp {
    TxName tx;
    Value value;
  };

  /// The late-event filter and family bookkeeping, then the action's trace
  /// events. False = drop the action.
  bool Admit(const Action& a, uint64_t pos);
  /// Watches an access's REQUEST_COMMIT; true iff it is visible now (else
  /// it is parked, or dead).
  bool WatchOp(uint64_t pos, TxName tx, const Value& v);
  /// Bookkeeping for an operation turning visible.
  void NoteVisible(uint64_t pos, TxName tx);
  /// Removes and returns the parked operation a fired item names.
  PendingOp TakeFired(const VisibilityTracker::Item& item);
  void Drop(const VisibilityTracker::Item& item);
  /// The scope of `parent`, watching the parent on first use.
  ParentScope& Scope(TxName parent);

  template <typename Sink>
  void Activate(uint64_t pos, TxName tx, const Value& v, Sink& sink) {
    NoteVisible(pos, tx);
    sink.OnVisibleOp(pos, tx, v);
  }
  template <typename Sink>
  void ScopeEvent(TxName parent, bool is_report, TxName child, Sink& sink);
  template <typename Sink>
  void ActivateScope(TxName parent, Sink& sink);
  /// One event in a visible scope.
  template <typename Sink>
  void Apply(TxName parent, ParentScope& scope, bool is_report, TxName child,
             Sink& sink);
  /// Activates every fired item, then discards every dropped one.
  template <typename Sink>
  void Release(Sink& sink);

  const SystemType* type_;
  GcOptions gc_;
  const obs::CertifierMetrics* metrics_;
  VisibilityTracker tracker_;
  uint64_t pos_ = 0;
  std::unordered_map<TxName, ParentScope> scopes_;
  std::unordered_map<uint64_t, PendingOp> pending_ops_;
  GcFamilyBook book_;
  GcStats gc_stats_;
  /// Per-action scratch, empty between calls, so the park/fire path does
  /// no heap allocation at steady state.
  std::vector<VisibilityTracker::Item> fired_;
  std::vector<VisibilityTracker::Item> dropped_;
};

template <typename Sink>
bool SgFrontEnd::Ingest(const Action& a, Sink& sink) {
  const uint64_t pos = pos_++;
  if (!Admit(a, pos)) return false;
  switch (a.kind) {
    case ActionKind::kRequestCommit:
      if (type_->IsAccess(a.tx) && WatchOp(pos, a.tx, a.value)) {
        Activate(pos, a.tx, a.value, sink);
      }
      break;
    case ActionKind::kReportCommit:
    case ActionKind::kReportAbort:
      ScopeEvent(type_->parent(a.tx), /*is_report=*/true, a.tx, sink);
      break;
    case ActionKind::kRequestCreate:
      ScopeEvent(type_->parent(a.tx), /*is_report=*/false, a.tx, sink);
      break;
    case ActionKind::kCommit:
      tracker_.OnCommit(a.tx, &fired_, &dropped_);
      Release(sink);
      break;
    case ActionKind::kAbort:
      tracker_.OnAbort(a.tx, &dropped_);
      Release(sink);
      break;
    default:
      break;  // CREATE and INFORM_* never affect SG(β).
  }
  return true;
}

template <typename Sink>
void SgFrontEnd::ScopeEvent(TxName parent, bool is_report, TxName child,
                            Sink& sink) {
  ParentScope& scope = Scope(parent);
  if (scope.visible) {
    Apply(parent, scope, is_report, child, sink);
  } else {
    scope.buffer.emplace_back(is_report, child);
  }
}

template <typename Sink>
void SgFrontEnd::ActivateScope(TxName parent, Sink& sink) {
  ParentScope& scope = scopes_[parent];
  scope.visible = true;
  for (const auto& [is_report, child] : scope.buffer) {
    Apply(parent, scope, is_report, child, sink);
  }
  scope.buffer.clear();
}

template <typename Sink>
void SgFrontEnd::Apply(TxName parent, ParentScope& scope, bool is_report,
                       TxName child, Sink& sink) {
  if (is_report) {
    scope.reported.push_back(child);
    return;
  }
  for (TxName earlier : scope.reported) {
    if (earlier != child) sink.OnPrecedes(parent, earlier, child);
  }
}

template <typename Sink>
void SgFrontEnd::Release(Sink& sink) {
  if (metrics_ != nullptr) metrics_->visibility_fired->Inc(fired_.size());
  for (const VisibilityTracker::Item& item : fired_) {
    if ((item.tag & kScopeTagBit) != 0) {
      ActivateScope(static_cast<TxName>(item.tag & ~kScopeTagBit), sink);
    } else {
      PendingOp op = TakeFired(item);
      Activate(item.tag, op.tx, op.value, sink);
    }
  }
  for (const VisibilityTracker::Item& item : dropped_) Drop(item);
  fired_.clear();
  dropped_.clear();
}

}  // namespace ntsg

#endif  // NTSG_SG_FRONT_END_H_
