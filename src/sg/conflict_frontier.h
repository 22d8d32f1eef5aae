#ifndef NTSG_SG_CONFLICT_FRONTIER_H_
#define NTSG_SG_CONFLICT_FRONTIER_H_

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "sg/edge_set.h"
#include "spec/commutativity.h"
#include "tx/trace.h"

namespace ntsg {

/// Work tallies of one frontier, for the obs layer. The frontier itself
/// never touches metrics (keeping it value-semantic and thread-confined);
/// callers publish these after a build or an activation batch.
struct FrontierStats {
  uint64_t hits = 0;             // stat entries that induced an edge candidate
  uint64_t misses = 0;           // class lists probed and found absent/empty
  uint64_t class_pair_evals = 0; // conflict verdicts computed at intern time
};

/// Incremental conflict-edge discovery for one object — the replacement for
/// the quadratic all-pairs scan in ConflictRelation.
///
/// Operations are grouped into *classes*: in kReadWrite mode the two classes
/// read/write (value-independent), in kCommutativity mode one class per
/// distinct (op, arg, return) triple, with the OperationsConflict verdict
/// computed once per class pair when a class is first interned (commuting
/// pairs are skipped wholesale on every later operation).
///
/// For every internal tree node P on the ancestor chain of an access and
/// every class d, the frontier keeps the per-child summary
///
///   entries(P, d) = { (C, min_pos, max_pos) :
///                     C child of P with a class-d operation below it },
///
/// where min/max_pos range over positions (in visible(β, T0) operation
/// order) of class-d operations descending through C. This summary is
/// exactly what the conflict relation needs: an operation at position p
/// descending through child C induces the edge (P, C', C) iff some
/// conflicting operation descends through C' != C at a position < p — i.e.
/// iff min_pos(C', d) < p for some d conflicting with the new op's class —
/// and symmetrically (P, C, C') iff max_pos(C', d) > p. (With a single
/// last-writer + readers-since-last-write pair instead of per-child minima,
/// the write-write edge from the first of three sibling writers to the third
/// would be lost; the per-child summary is the exact generalization.)
///
/// In-order insertion (p greater than every prior position, the batch case)
/// takes the first branch only, and a per-(P, observer child, d) watermark
/// remembers the prefix of entries(P, d) already consumed, so each (entry,
/// observer) pair is scanned once — total work proportional to edge
/// candidates, not operation pairs. Out-of-order insertion (a deep reveal in
/// the online path) rescans the lists in full, testing both directions.
///
/// The frontier does not deduplicate: one edge can be induced by several
/// conflicting classes, and a rescan re-emits edges already reported. Its
/// callers own edge identity — ConflictRelation sorts and dedups, and the
/// online certifier's graph keeps one entry per pair.
///
/// Value-semantic: copyable for certifier snapshots. Holds a pointer
/// to the SystemType, which must outlive it.
class ObjectConflictFrontier {
 public:
  ObjectConflictFrontier(const SystemType& type, ConflictMode mode,
                         ObjectId object);

  /// Feeds the operation (access, v) at position `pos` (its index in the
  /// object's visible-operation order; strictly increasing in batch use,
  /// arbitrary-but-distinct online). Appends every conflict edge candidate
  /// it induces to `new_edges`, including edges emitted before and repeats
  /// within this call.
  void AddOp(TxName access, const Value& v, uint64_t pos,
             std::vector<SiblingEdge>* new_edges);

  /// Turns on per-edge dependency-label accumulation (DepKind bits, see
  /// conflicts.h). Off by default so the hot certification path pays
  /// nothing; the isolation-level checkers enable it before the first
  /// AddOp. Labels are accumulated on every probe hit, so an edge's
  /// bitmask keeps growing as new inducing pairs appear even after the edge
  /// itself was reported.
  void EnableLabels() { labels_enabled_ = true; }
  bool labels_enabled() const { return labels_enabled_; }

  /// Accumulated DepKind bitmask per emitted edge (empty unless
  /// EnableLabels() was called before the ops were fed). The representative
  /// object of every entry is this frontier's object.
  const std::map<SiblingEdge, uint8_t>& edge_label_bits() const {
    return label_bits_;
  }

  /// Drops every summary belonging to a retired top-level family (the GC
  /// reclamation path). `retired_roots` holds children of T0 whose whole
  /// subtree is retired; the caller guarantees no future AddOp names any of
  /// them. Frees the (node, class) lists of interior nodes inside retired
  /// families, filters retired children out of the T0-level lists (remapping
  /// the in-order watermarks past the removed prefix entries), and drops
  /// edge labels touching retired names. Class definitions are
  /// kept: they are object-type-global, not per-family (see DESIGN.md §10
  /// on the kCommutativity residual).
  void Retire(const std::unordered_set<TxName>& retired_roots);

  const FrontierStats& stats() const { return stats_; }
  size_t num_classes() const { return classes_.size(); }
  /// Live (node, class) summaries; the soak test's bounded-memory probe.
  size_t num_live_lists() const {
    return node_class_lists_.size();
  }

 private:
  static constexpr uint32_t kNoEntry = 0xFFFFFFFFu;

  struct ClassDef {
    OpRecord rec;
    uint32_t chain_next = kNoEntry;  // next class with the same hash
    std::vector<uint32_t> conflicts; // class ids conflicting with this one
  };

  /// Per-child class-d summary at one node.
  struct ChildStat {
    TxName child;
    uint64_t min_pos;
    uint64_t max_pos;
  };

  /// Per-(node, d) role of one child: its entry in `entries` (kNoEntry for a
  /// pure observer) and the prefix of `entries` it has already consumed.
  struct ChildSlot {
    uint32_t entry = kNoEntry;
    uint32_t watermark = 0;
  };

  struct ClassList {
    std::vector<ChildStat> entries;  // first-appearance order
    FlatIndexMap child_slots;        // child -> index into slots
    std::vector<ChildSlot> slots;
  };

  uint32_t InternClass(const OpRecord& rec);
  bool ClassesConflict(const OpRecord& a, const OpRecord& b) const;
  /// `from_class`/`to_class` are the operation classes of the two inducing
  /// operations — the label accumulator classifies the pair from them.
  void Emit(TxName parent, TxName from, TxName to, uint32_t from_class,
            uint32_t to_class, std::vector<SiblingEdge>* out);

  const SystemType* type_;
  ConflictMode mode_;
  ObjectId object_;
  ObjectType otype_;

  std::vector<ClassDef> classes_;
  FlatIndexMap class_table_;       // hash(rec) -> head of chain in classes_
  FlatIndexMap node_class_lists_;  // (node << 32 | class) -> index in lists_
  std::vector<ClassList> lists_;
  std::vector<uint32_t> free_lists_;  // indices in lists_ freed by Retire

  bool labels_enabled_ = false;
  std::map<SiblingEdge, uint8_t> label_bits_;
  uint64_t max_pos_ = 0;
  bool any_ops_ = false;
  FrontierStats stats_;
};

}  // namespace ntsg

#endif  // NTSG_SG_CONFLICT_FRONTIER_H_
