#ifndef NTSG_SG_AFFECTS_H_
#define NTSG_SG_AFFECTS_H_

#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sg/conflicts.h"
#include "tx/trace.h"

namespace ntsg {

/// directly-affects(β) (Section 2.3.2): pairs of event *indices* (i, j),
/// i < j, such that one of the paper's six causality rules relates β[i] to
/// β[j]:
///   * transaction(β[i]) == transaction(β[j]) (same automaton, in order);
///   * REQUEST_CREATE(T)  -> CREATE(T);
///   * REQUEST_COMMIT(T,v)-> COMMIT(T);
///   * REQUEST_CREATE(T)  -> ABORT(T);
///   * COMMIT(T)          -> REPORT_COMMIT(T,v);
///   * ABORT(T)           -> REPORT_ABORT(T).
/// `beta` must be a sequence of serial actions. O(n^2); intended for
/// validation on modest traces.
std::vector<std::pair<size_t, size_t>> DirectlyAffects(const SystemType& type,
                                                       const Trace& beta);

/// Checks the *suitability* (Section 2.3.2) of a sibling order for β and T0:
///   1. every pair of siblings that are lowtransactions of events in
///      visible(β, T0) is ordered;
///   2. R_event(β) and affects(β) are consistent partial orders on the
///      events of visible(β, T0) — equivalently, their union is acyclic.
/// `order` lists, per parent, its children in the proposed order (as
/// produced by FastTopologicalOrders, possibly extended).
/// Used by tests to validate the order the certifier/witness derives.
Status CheckSuitability(
    const SystemType& type, const Trace& beta,
    const std::map<TxName, std::vector<TxName>>& order);

}  // namespace ntsg

#endif  // NTSG_SG_AFFECTS_H_
