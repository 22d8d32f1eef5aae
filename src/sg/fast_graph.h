#ifndef NTSG_SG_FAST_GRAPH_H_
#define NTSG_SG_FAST_GRAPH_H_

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sg/conflicts.h"

namespace ntsg {

/// Result of the timeline-encoded acyclicity check.
struct FastSgReport {
  bool acyclic = true;
  size_t conflict_edge_count = 0;
  size_t timeline_edge_count = 0;
  size_t timeline_node_count = 0;
};

/// Acyclicity of SG(β) without materializing precedes(β).
///
/// precedes(β) relates (T, T') whenever a report for T occurs before
/// REQUEST_CREATE(T') — a relation with Θ(n²) pairs once siblings complete
/// in sequence, which dominates SerializationGraph::Build at scale (see
/// bench_sg_construction). But for *cycle detection* its transitive
/// structure can be threaded through per-parent "timeline" nodes:
///
///   * scanning β, each parent accumulates reported children; when a new
///     child is requested after at least one report, an epoch node v is
///     sealed with edges  reported-child -> v  and  v_prev -> v;
///   * each child requested while an epoch is open gets an edge  v -> child.
///
/// Then report(T) precedes request(T') iff a timeline path T ->* T' exists,
/// so the union of conflict edges and timeline edges has a cycle iff
/// conflict(β) ∪ precedes(β) does. Total timeline edges: O(n).
///
/// Used where only the verdict matters (monitoring, large audits); the full
/// SerializationGraph remains the source of topological orders for the
/// witness construction.
FastSgReport FastSgAcyclicity(const SystemType& type, const Trace& beta,
                              ConflictMode mode);

/// Per-parent sibling orders consistent with conflict(β) ∪ precedes(β),
/// derived from the timeline-encoded graph: a deterministic topological
/// sort of the combined graph, projected onto each parent's children. Any
/// projection of a topological order is consistent with every edge inside
/// the component, so the result is valid input for BuildAndCheckWitness —
/// at O(n) timeline cost instead of the Θ(n²) materialized relation.
///
/// Returns nullopt when the graph is cyclic (no order exists).
std::optional<std::map<TxName, std::vector<TxName>>> FastTopologicalOrders(
    const SystemType& type, const Trace& beta, ConflictMode mode);

/// Directed graph with Pearce–Kelly incremental topological-order
/// maintenance: edges are added one at a time, a cycle-closing edge is
/// rejected *before* any state changes, and the amortized reordering work is
/// bounded by the "affected region" between the endpoints' current order
/// positions rather than the whole graph.
///
/// This is the cycle-test engine behind the online certifier and the SGT
/// coordinator. SG(β) is a disjoint union of per-parent sibling components;
/// since every edge stays inside one component, keeping them in a single
/// shared order loses nothing — the union is acyclic iff each component is.
///
/// Edge removal (needed when an SGT abort expunges supporting operations)
/// keeps the current order untouched: any topological order of a graph
/// remains valid for every subgraph.
///
/// Node removal (the GC retirement path) reclaims the node's slab slot for
/// reuse and erases every incident edge; combined with CompactOrders it
/// keeps both the slab and the order-key space bounded by the live node
/// count on an unbounded stream.
class IncrementalTopoGraph {
 public:
  /// Adds the edge from -> to. Returns false iff the edge would close a
  /// cycle (including from == to); the graph is unchanged in that case.
  /// Adding an edge that is already present is a no-op returning true.
  bool AddEdge(TxName from, TxName to);

  bool HasEdge(TxName from, TxName to) const;

  /// Removes the edge if present (no-op otherwise). Never invalidates the
  /// maintained order.
  void RemoveEdge(TxName from, TxName to);

  /// Removes the node and every incident edge (no-op if never seen). The
  /// slab slot is recycled for the next new node. Neighbor adjacency lists
  /// are erased order-preservingly so FindPath's deterministic successor
  /// exploration over the survivors is unchanged. Never invalidates the
  /// maintained order (a subgraph keeps every topological order valid).
  void RemoveNode(TxName t);

  /// In-neighbors of `t` (empty if never seen), in edge-insertion order.
  /// The GC's predecessor-closure primitive.
  std::vector<TxName> InNeighbors(TxName t) const;

  /// Reassigns order keys to 0..node_count()-1 preserving the current
  /// relative order, and rewinds the key allocator. Called after a
  /// retirement wave so the key space cannot creep toward overflow on an
  /// unbounded stream.
  void CompactOrders();

  /// Current position of `t` in the maintained topological order; nullopt
  /// for nodes the graph has never seen. For any present edge u -> v,
  /// *OrdOf(u) < *OrdOf(v).
  std::optional<uint64_t> OrdOf(TxName t) const;

  /// A directed path from -> ... -> to over present edges (endpoints
  /// included), or empty when none exists. Deterministic (successors are
  /// explored in insertion order) and read-only — the witness-recovery
  /// primitive: after AddEdge(u, v) returns false, FindPath(v, u) plus the
  /// rejected edge is the cycle that insertion would have closed.
  std::vector<TxName> FindPath(TxName from, TxName to) const;

  /// Live nodes (slab slots on the free list are not counted).
  size_t node_count() const { return slot_.size(); }
  size_t edge_count() const { return edges_.size(); }
  /// Slab capacity including recycled slots. Slot reuse keeps it at the
  /// peak live node count (topo_removal_test's churn case asserts this).
  size_t slab_count() const { return nodes_.size(); }
  /// Next order key the allocator would hand out; CompactOrders rewinds it.
  uint64_t next_ord() const { return next_ord_; }

 private:
  struct Node {
    std::vector<uint32_t> out;
    std::vector<uint32_t> in;
    uint64_t ord;
    TxName name;
  };

  static uint64_t EdgeKey(TxName from, TxName to) {
    static_assert(sizeof(TxName) <= sizeof(uint32_t),
                  "EdgeKey packs two TxNames into one uint64; widen the key "
                  "before widening TxName");
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  /// Slot of `t`, creating the node (at the end of the order) on first use.
  uint32_t Slot(TxName t);

  std::vector<Node> nodes_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<TxName, uint32_t> slot_;
  std::unordered_set<uint64_t> edges_;
  uint64_t next_ord_ = 0;
};

}  // namespace ntsg

#endif  // NTSG_SG_FAST_GRAPH_H_
