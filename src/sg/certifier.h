#ifndef NTSG_SG_CERTIFIER_H_
#define NTSG_SG_CERTIFIER_H_

#include <optional>

#include "common/status.h"
#include "sg/graph.h"
#include "tx/trace.h"

namespace ntsg {

/// Outcome of applying Theorem 8 / Theorem 19 to a behavior.
struct CertifierReport {
  /// OK iff both conditions hold (the behavior is certified serially
  /// correct for T0 by the theorem).
  Status status;

  bool appropriate_return_values = false;
  bool graph_acyclic = false;

  size_t conflict_edge_count = 0;
  size_t precedes_edge_count = 0;

  /// A cycle witness when !graph_acyclic.
  std::optional<std::vector<TxName>> cycle;
};

struct CertifyOptions {
  /// Ignored; kept only because the perfbench/ benchmark sets it.
  size_t num_threads = 1;

  /// Nonzero switches from the batch build to the streaming certifier with
  /// commit-watermark GC running every `gc_watermark` actions, so peak
  /// memory tracks the live transaction population instead of the trace
  /// length (DESIGN.md §10). The verdict bits and the status text of a
  /// value rejection are identical to the batch build's (oracle_test). The
  /// cycle witness is the online certifier's first-rejection cycle
  /// (IncrementalCertifier::cycle_witness), which may be a different cycle
  /// of the same graph than the batch build's FindCycle names. The reported
  /// edge counts cover the live (unretired) scope only.
  size_t gc_watermark = 0;
};

/// Applies the paper's sufficient condition for serial correctness to a
/// behavior: checks appropriate return values, builds SG(serial(β)) under
/// `mode`, and tests acyclicity. A non-OK status means "not certified" — the
/// condition is sufficient, not necessary, so a rejected behavior *may*
/// still be serially correct (the witness checker decides exactly).
///
/// `beta` may be a generic behavior (INFORM actions are stripped first, as
/// in Theorem 17/25) or a simple behavior.
CertifierReport CertifySeriallyCorrect(const SystemType& type,
                                       const Trace& beta, ConflictMode mode,
                                       const CertifyOptions& options = {});

}  // namespace ntsg

#endif  // NTSG_SG_CERTIFIER_H_
