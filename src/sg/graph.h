#ifndef NTSG_SG_GRAPH_H_
#define NTSG_SG_GRAPH_H_

#include <optional>
#include <string>
#include <vector>

#include "sg/conflicts.h"
#include "tx/trace.h"

namespace ntsg {

/// The serialization graph SG(β) (Section 4): a disjoint union of directed
/// graphs SG(β, T), one per transaction T visible to T0, whose nodes are T's
/// children and whose edges are precedes(β) ∪ conflict(β) restricted to
/// those children.
class SerializationGraph {
 public:
  /// Builds SG(β) from a sequence of serial actions. (For a generic behavior
  /// apply SerialPart first, mirroring the paper's SG(serial(β)).)
  static SerializationGraph Build(const SystemType& type, const Trace& beta,
                                  ConflictMode mode);

  /// Builds from precomputed edge sets (used by incremental callers).
  static SerializationGraph FromEdges(std::vector<SiblingEdge> conflict_edges,
                                      std::vector<SiblingEdge> precedes_edges);

  const std::vector<SiblingEdge>& conflict_edges() const {
    return conflict_edges_;
  }
  const std::vector<SiblingEdge>& precedes_edges() const {
    return precedes_edges_;
  }

  /// Parents P with a non-empty component SG(β, P).
  std::vector<TxName> Parents() const;

  /// A directed cycle within one component, if any (as a node sequence
  /// [t1, ..., tk] with edges t1->t2->...->tk->t1); nullopt if acyclic.
  std::optional<std::vector<TxName>> FindCycle() const;

  bool IsAcyclic() const { return !FindCycle().has_value(); }

  /// Graphviz rendering; conflict edges solid, precedes edges dashed.
  std::string ToDot(const SystemType& type) const;

 private:
  std::vector<SiblingEdge> conflict_edges_;
  std::vector<SiblingEdge> precedes_edges_;
};

}  // namespace ntsg

#endif  // NTSG_SG_GRAPH_H_
