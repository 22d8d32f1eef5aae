#ifndef NTSG_SG_GC_WATERMARK_H_
#define NTSG_SG_GC_WATERMARK_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sg/conflicts.h"
#include "tx/system_type.h"

namespace ntsg {

class IncrementalTopoGraph;

/// Tuning for the commit-watermark garbage collector (see DESIGN.md §10).
/// A retirement pass runs every `interval` ingested actions; 0 disables GC
/// entirely (the default — certifiers keep the original grow-forever
/// behavior unless CertifyOptions::gc_watermark opts in).
struct GcOptions {
  size_t interval = 0;

  bool enabled() const { return interval != 0; }
};

/// Counters a certifier accumulates across retirement passes; surfaced in
/// reports and mirrored into the ntsg_gc_* metric families.
struct GcStats {
  uint64_t runs = 0;             // Retirement passes executed.
  uint64_t retired_families = 0; // Top-level families retired.
  uint64_t retired_nodes = 0;    // Graph nodes removed.
  uint64_t pruned_ops = 0;       // Visible operations folded into checkpoints.
  uint64_t late_events = 0;      // Actions naming already-retired families.
  uint64_t last_watermark = 0;   // Position watermark of the latest pass.
};

/// Per-family (child of T0) lifecycle bookkeeping behind the watermark GC.
///
/// SG(β)'s sibling edges never cross a parent boundary, so the unit of
/// retirement is the *top-level family*: the subtree under one child of T0.
/// A family is a retirement candidate ("sealed") once
///   (a) its root's REPORT_COMMIT / REPORT_ABORT has been ingested — the
///       report is the last verdict-relevant event a well-formed stream
///       delivers for the family (only INFORM_* stragglers and, under an
///       aborted root, orphaned-descendant activity follow, all of which
///       the certifier ignores) — and
///   (b) every activated operation under it sits strictly below the caller's
///       position watermark W (the lowest position a not-yet-delivered
///       action could still carry) — so no future out-of-order reveal can
///       emit a conflict edge into it.
/// Candidates still need the predecessor-closure check against the live
/// graph (PredecessorClosure below) before they may actually retire.
class GcFamilyBook {
 public:
  /// Depth-1 ancestor of `t` — the family root — or kT0 when t is T0 itself
  /// (T0 is never retired).
  static TxName RootOf(const SystemType& type, TxName t) {
    if (t == kT0) return kT0;
    return type.AncestorAtDepth(t, 1);
  }

  /// Records that `root`'s family exists (idempotent). kT0 is ignored.
  void NoteRoot(TxName root) {
    if (root == kT0) return;
    families_.try_emplace(root);
  }

  /// Records that `root`'s T0-level report (commit or abort) was ingested.
  /// `aborted` is remembered past retirement: an aborted family's orphaned
  /// descendants may keep producing (verdict-inert) events indefinitely,
  /// and the late-event filter must not flag those as malformed.
  void NoteResolved(TxName root, bool aborted) {
    if (root == kT0) return;
    Family& f = families_[root];
    f.resolved = true;
    f.aborted = aborted;
  }

  /// Records an activated operation at stream position `pos` under `root`.
  void NoteOp(TxName root, size_t pos) {
    if (root == kT0) return;
    Family& f = families_[root];
    if (pos + 1 > f.max_pos_end) f.max_pos_end = pos + 1;
  }

  bool IsRetired(TxName root) const { return retired_.count(root) != 0; }

  /// True iff `root` was retired and its T0-level resolution was an abort
  /// (so post-retirement events under it are orphan noise, not corruption).
  bool RetiredAborted(TxName root) const {
    return retired_aborted_.count(root) != 0;
  }

  /// True iff any un-retired family is currently tracked.
  size_t live_families() const { return families_.size(); }

  /// Roots satisfying the sealing conditions under watermark `watermark`
  /// (every tracked op position < watermark) and not in `blocked` (families
  /// the caller must keep, e.g. ones with parked or held work). Sorted for
  /// deterministic downstream iteration.
  std::vector<TxName> SealedCandidates(
      size_t watermark, const std::unordered_set<TxName>& blocked) const;

  /// Moves `root` from live to retired. Must be called at most once per root.
  void MarkRetired(TxName root);

  /// Retired family roots, unordered. Membership answers "was this name's
  /// family retired" for late-event filtering.
  const std::unordered_set<TxName>& retired_roots() const { return retired_; }

  /// Deterministic (sorted) copy of the retired roots, for reports.
  std::vector<TxName> SortedRetiredRoots() const;

 private:
  struct Family {
    bool resolved = false;
    bool aborted = false;
    /// One past the highest activated-op position seen under this family;
    /// the family is position-quiescent under watermark W iff
    /// max_pos_end <= W.
    size_t max_pos_end = 0;
  };

  std::unordered_map<TxName, Family> families_;
  std::unordered_set<TxName> retired_;
  std::unordered_set<TxName> retired_aborted_;
};

/// Shrinks `sealed` to its largest subset closed under in-neighbors in
/// `graph` (the T0 component), sorted. Without this, an existing
/// live→sealed edge plus a future (suppressed) sealed→live edge could hide a
/// cycle from the pruned certifier. With it, no live→retired edge ever
/// exists, which is also what keeps FindPath witnesses identical (DESIGN.md
/// §10).
std::vector<TxName> PredecessorClosure(const IncrementalTopoGraph& graph,
                                       const std::vector<TxName>& sealed);

/// True iff sibling edge `e` lies in the retired scope of `retired` (roots
/// of retired families): a T0-level edge with a retired endpoint, or a
/// deeper edge inside a retired family. Sibling edges never cross a parent
/// boundary, so this T0 projection is exact.
bool RetiredScopeEdge(const SystemType& type,
                      const std::unordered_set<TxName>& retired,
                      const SiblingEdge& e);

}  // namespace ntsg

#endif  // NTSG_SG_GC_WATERMARK_H_
