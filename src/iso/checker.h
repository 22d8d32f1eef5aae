#ifndef NTSG_ISO_CHECKER_H_
#define NTSG_ISO_CHECKER_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "iso/labeled_graph.h"
#include "iso/levels.h"
#include "sg/explain.h"
#include "tx/trace.h"

namespace ntsg {

/// One isolation violation: the named anomaly, a witness (cycle or closed
/// walk over one SG(β) sibling graph; empty for value-only violations such
/// as a dirty read with no cycle), and its explain-layer annotation.
struct IsoViolation {
  AnomalyKind anomaly = AnomalyKind::kNone;
  std::string detail;  // human-readable; value violations describe the read
  /// Witness nodes in cycle order (edges w[i] -> w[i+1], closing back() ->
  /// front()). For kSnapshotIsolation anti-pattern hits this is a closed
  /// walk that may repeat nodes, flagged by `witness_is_walk`; its first
  /// two edges are the adjacent anti-dependency pair.
  std::vector<TxName> witness;
  bool witness_is_walk = false;
  /// Per-edge relation labels + action provenance (sg/explain) for simple
  /// cycle witnesses; empty for walks and value-only violations.
  std::vector<ExplainedEdge> explained;
  /// Rendered one-per-edge witness lines (labels, objects, provenance),
  /// baked at check time so ToString needs no graph access.
  std::vector<std::string> edge_lines;
  /// Witness re-verified edge-by-edge against an independently rebuilt
  /// labeled graph (VerifyIsoWitness).
  bool witness_verified = false;
};

struct IsoLevelVerdict {
  IsoLevel level = IsoLevel::kReadCommitted;
  bool ok = true;
  IsoViolation violation;  // meaningful only when !ok
};

/// The verdict vector: one verdict per level of the spectrum, weakest
/// first, plus the labeled-graph shape it was judged on.
struct IsoVerdictVector {
  std::array<IsoLevelVerdict, kNumIsoLevels> levels;
  ConflictMode mode = ConflictMode::kReadWrite;
  size_t conflict_edges = 0;
  size_t precedes_edges = 0;
  size_t anti_edges = 0;

  const IsoLevelVerdict& at(IsoLevel level) const {
    return levels[static_cast<size_t>(level)];
  }
  bool AllOk() const;
  bool SerializableOk() const {
    return at(IsoLevel::kSerializable).ok;
  }
  /// True iff a rejection at any level implies rejection at every stronger
  /// level — the spectrum invariant (holds by construction; the
  /// differential test re-asserts it on every trace).
  bool Monotone() const;
  /// First failing level, or kNumIsoLevels when all pass.
  size_t FirstFailing() const;
  /// Deterministic rendering — the golden verdict-vector format.
  std::string ToString(const SystemType& type) const;
};

struct IsoCheckOptions {
  /// Annotate + re-verify witnesses (ExplainCycle + VerifyIsoWitness) and
  /// publish metrics/trace events. Off for throughput benchmarking.
  bool explain = true;
};

/// Computes the verdict vector of `beta` (serial actions are extracted
/// internally, so generic behaviors can be fed verbatim).
IsoVerdictVector CheckIsolationLevels(const SystemType& type,
                                      const Trace& beta, ConflictMode mode,
                                      const IsoCheckOptions& options = {});

/// Shared assembly path: judges the spectrum from an already-built labeled
/// graph plus the serial actions (needed for the value-aware checks). Both
/// the batch entry point above and IncrementalIsoChecker::Verdict funnel
/// through this, which is what makes the two modes agree by construction.
IsoVerdictVector CheckFromLabeledGraph(const SystemType& type,
                                       const Trace& serial, ConflictMode mode,
                                       const LabeledSg& graph,
                                       const IsoCheckOptions& options);

/// Independently re-verifies a violation witness: rebuilds the labeled
/// relations from the trace and re-checks the witness edge-by-edge (edges
/// present, shape consistent with the level's proscribed pattern; value
/// violations are re-derived from the serial actions). Used by the miner
/// and the differential tests; CheckIsolationLevels already calls it when
/// `options.explain` is set.
bool VerifyIsoWitness(const SystemType& type, const Trace& beta,
                      ConflictMode mode, IsoLevel level,
                      const IsoViolation& violation);

/// The value-aware dirty-read scan (Adya G1a over the nested-transaction
/// visibility relation): a visible read observing a value that no
/// write visible to the reader (nor the initial value) produced, while
/// some earlier non-visible write did produce it. Returns a violation with
/// anomaly kDirtyRead, or kNone. Judged only in kReadWrite mode — counter
/// increments and other commuting mutators have no definite "value read".
IsoViolation FindDirtyRead(const SystemType& type, const Trace& serial);

}  // namespace ntsg

#endif  // NTSG_ISO_CHECKER_H_
