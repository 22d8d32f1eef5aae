#ifndef NTSG_ISO_INCREMENTAL_ISO_H_
#define NTSG_ISO_INCREMENTAL_ISO_H_

#include <memory>
#include <vector>

#include "iso/checker.h"
#include "sg/conflict_frontier.h"
#include "sg/edge_set.h"
#include "sg/front_end.h"
#include "tx/trace.h"

namespace ntsg {

/// Online form of the spectrum checker: consumes a behavior action by
/// action, maintaining the *labeled* conflict and precedes relations of the
/// prefix ingested so far, and answers the verdict vector for that prefix
/// on demand.
///
/// Edge discovery is IncrementalCertifier's: the checker is a sink of the
/// same SgFrontEnd (visible operations and precedes pairs), and one
/// label-enabled ObjectConflictFrontier per object discovers conflicts at
/// global trace positions, so the edge sets at every prefix equal the batch
/// relations of that prefix. Verdict() funnels the accumulated edges
/// through the same CheckFromLabeledGraph the batch checker uses — the two
/// modes agree on every per-level verdict by construction (the differential
/// test re-asserts it per prefix).
///
/// Unlike the certifier this keeps the serial prefix buffered: the
/// value-aware checks (dirty reads, appropriate return values) are judged
/// at Verdict() time, since their answers are not monotone over prefixes
/// (a writer's later commit launders an earlier read).
class IncrementalIsoChecker {
 public:
  IncrementalIsoChecker(const SystemType& type, ConflictMode mode);

  void Ingest(const Action& a);
  void IngestTrace(const Trace& beta);

  /// The verdict vector of the ingested prefix.
  IsoVerdictVector Verdict(const IsoCheckOptions& options = {}) const;

  size_t actions_ingested() const {
    return static_cast<size_t>(front_.position());
  }

 private:
  friend class SgFrontEnd;  // the sink calls below

  /// Sink: adds the operation to its object's labelled frontier.
  void OnVisibleOp(uint64_t pos, TxName tx, const Value& v);
  /// Sink: records the precedes edge.
  void OnPrecedes(TxName parent, TxName from, TxName to) {
    precedes_edges_.Insert(SiblingEdge{parent, from, to});
  }
  ObjectConflictFrontier& Frontier(ObjectId x);

  const SystemType* type_;
  ConflictMode mode_;
  SgFrontEnd front_;
  std::vector<std::unique_ptr<ObjectConflictFrontier>> frontiers_;
  SiblingEdgeSet precedes_edges_;
  Trace serial_;  // serial prefix, for the value-aware checks at Verdict()
  std::vector<SiblingEdge> scratch_;  // frontier emission sink, reused
};

}  // namespace ntsg

#endif  // NTSG_ISO_INCREMENTAL_ISO_H_
