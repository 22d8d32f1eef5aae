#ifndef NTSG_SIM_CHAOS_H_
#define NTSG_SIM_CHAOS_H_

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sg/incremental_certifier.h"
#include "tx/trace.h"

namespace ntsg {

/// Streams `beta` through a copy of `fresh` (a certifier that has ingested
/// nothing) while `plan`'s certifier faults fire — the recovery `ntsg chaos`
/// checks. Before each action, events due at its position fire in plan
/// order: kSnapshotWorker copies the certifier (it has value semantics);
/// kCrashWorker replaces it with the last copy, or with `fresh` when none
/// was taken, and re-feeds the actions since. Returns the certifier after
/// the last action; its verdict, edge sets and GC state equal an
/// uninterrupted run's. `stats` receives the faults delivered and the
/// actions re-fed.
IncrementalCertifier CertifyWithCrashes(const IncrementalCertifier& fresh,
                                        const Trace& beta,
                                        const FaultPlan& plan,
                                        FaultStats* stats);

}  // namespace ntsg

#endif  // NTSG_SIM_CHAOS_H_
