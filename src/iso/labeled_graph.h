#ifndef NTSG_ISO_LABELED_GRAPH_H_
#define NTSG_ISO_LABELED_GRAPH_H_

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sg/conflicts.h"
#include "tx/trace.h"

namespace ntsg {

/// One edge of the labeled SG(β) sibling graphs: the union of conflict(β)
/// (with its accumulated DepKind bitmask) and precedes(β). A precedes-only
/// edge carries no kinds; for cycle classification it counts as a
/// dependency (program order is never an anti-dependency).
struct IsoEdge {
  SiblingEdge edge;
  uint8_t kinds = 0;      // OR of DepKind bits; 0 for precedes-only edges
  bool conflict = false;  // member of conflict(β)
  bool precedes = false;  // member of precedes(β)
  ObjectId object = kInvalidObject;  // representative inducing object

  bool Has(DepKind k) const {
    return (kinds & static_cast<uint8_t>(k)) != 0;
  }
  /// A pure anti-dependency: in conflict(β) with every inducing pair
  /// observer->mutator, and not doubled by a precedes edge.
  bool anti_only() const {
    return conflict && !precedes &&
           kinds == static_cast<uint8_t>(DepKind::kReadWrite);
  }
};

/// The labeled union graph of all SG(β) sibling graphs, with the cycle
/// finders behind the isolation-level spectrum. Every sibling edge stays
/// inside one parent's component, so a single node/edge table searches all
/// sibling graphs at once — any cycle it finds lives in exactly one SG(β).
///
/// All traversals iterate nodes and adjacency in ascending-name order, so
/// every finder is deterministic: same edge sets, same witness, regardless
/// of how the edges were discovered (batch or incremental).
class LabeledSg {
 public:
  LabeledSg(const std::vector<LabeledSiblingEdge>& conflict,
            const std::vector<SiblingEdge>& precedes);

  /// Convenience: LabeledConflictRelation + PrecedesRelation over the
  /// serial actions of `beta`.
  static LabeledSg Build(const SystemType& type, const Trace& beta,
                         ConflictMode mode);

  const std::vector<IsoEdge>& edges() const { return edges_; }
  size_t conflict_edge_count() const { return conflict_count_; }
  size_t precedes_edge_count() const { return precedes_count_; }
  size_t anti_edge_count() const { return anti_count_; }

  /// The unique edge from -> to, or null. (A node is a child of exactly one
  /// parent, so (from, to) determines the sibling edge.)
  const IsoEdge* FindEdge(TxName from, TxName to) const;

  /// A cycle using no pure anti-dependency edge (G1c), or nullopt.
  std::optional<std::vector<TxName>> FindDependencyCycle() const;

  /// A cycle using exactly one pure anti-dependency edge (the G-single
  /// pattern), or nullopt. Call FindDependencyCycle first: this finder
  /// assumes no dependency-only cycle exists and always routes through one
  /// anti edge.
  std::optional<std::vector<TxName>> FindSingleAntiCycle() const;

  /// A closed walk in which two pure anti-dependency edges are cyclically
  /// consecutive (the SG anti-pattern of snapshot isolation), or nullopt.
  /// The walk may repeat nodes; consecutive nodes are always graph edges
  /// and the first two edges of the returned sequence are the adjacent
  /// anti pair.
  std::optional<std::vector<TxName>> FindAdjacentAntiWalk() const;

  /// Any cycle at all (Theorem 8/19 acyclicity), or nullopt.
  std::optional<std::vector<TxName>> FindAnyCycle() const;

 private:
  std::optional<std::vector<TxName>> FindCycleWhere(bool include_anti) const;
  /// Shortest from -> to path over non-anti edges (BFS, deterministic), as
  /// the node sequence [from, ..., to]; empty when unreachable.
  std::vector<TxName> NonAntiPath(TxName from, TxName to) const;
  /// Shortest from -> to path over all edges; empty when unreachable.
  std::vector<TxName> AnyPath(TxName from, TxName to) const;

  std::vector<IsoEdge> edges_;                   // sorted by (parent,from,to)
  std::map<TxName, std::vector<uint32_t>> adj_;  // node -> out-edge indices
  std::map<std::pair<TxName, TxName>, uint32_t> by_endpoints_;
  size_t conflict_count_ = 0;
  size_t precedes_count_ = 0;
  size_t anti_count_ = 0;
};

/// Rotates a cycle (or closed walk) so the smallest name leads, preserving
/// cyclic order — the canonical form golden renderings pin.
std::vector<TxName> CanonicalCycleRotation(const std::vector<TxName>& nodes);

}  // namespace ntsg

#endif  // NTSG_ISO_LABELED_GRAPH_H_
