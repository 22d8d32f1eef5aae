#ifndef NTSG_CHECKER_WITNESS_H_
#define NTSG_CHECKER_WITNESS_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "sg/conflicts.h"
#include "tx/trace.h"

namespace ntsg {

/// Result of an exact serial-correctness check.
struct WitnessResult {
  /// OK iff a serial behavior γ with γ|T0 = β|T0 was constructed and
  /// validated.
  Status status;
  /// The witness γ (valid only when status is OK).
  Trace witness;
};

/// Constructs a candidate serial witness γ for the behavior β, sequencing
/// sibling subtrees by `orders` (a per-parent order of children; children
/// missing from an order sort after those present, by name). The
/// construction follows the proof of Theorem 8:
///   * exactly the events of β|T (for every transaction T committed and
///     visible to T0, plus T0 itself) appear, in their β order, so every
///     projection of γ equals the corresponding projection of β;
///   * the full serial run of each committed child (CREATE ... COMMIT) is
///     spliced in just before the first report that requires it, running
///     accumulated siblings in `orders` order;
///   * aborted children are ABORTed without ever being created (the only
///     abort the serial scheduler allows).
///
/// The result is then *validated from scratch*: it must pass the serial
/// system validator (scheduler preconditions + serial-spec replay at every
/// object + projection equality against β), and γ|T0 must equal β|T0. So a
/// returned OK is an airtight certificate of serial correctness for T0,
/// independent of the theory used to pick `orders`.
WitnessResult BuildAndCheckWitness(
    const SystemType& type, const Trace& beta,
    const std::map<TxName, std::vector<TxName>>& orders);

/// End-to-end exact check: derives sibling orders from a topological sort of
/// SG(serial(β)) under `mode` and calls BuildAndCheckWitness. The orders
/// come from the timeline-encoded graph (FastTopologicalOrders), so the
/// Θ(n²) precedes relation is never materialized. Returns a failure (rather
/// than attempting other orders) when the graph is cyclic; see
/// ExhaustiveSerialCheck for a complete search on small instances.
WitnessResult CheckSeriallyCorrectForT0(
    const SystemType& type, const Trace& beta,
    ConflictMode mode = ConflictMode::kCommutativity);

}  // namespace ntsg

#endif  // NTSG_CHECKER_WITNESS_H_
