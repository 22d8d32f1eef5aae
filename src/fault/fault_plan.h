#ifndef NTSG_FAULT_FAULT_PLAN_H_
#define NTSG_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ntsg {

/// The fault vocabulary. Every kind models a robustness hazard the paper's
/// system model already permits: the controller may abort any non-completed
/// transaction at any moment (Section 2.3), and the certifier may lose its
/// volatile state and resume from a checkpoint. A correct checker's verdict
/// must be unchanged by all of them.
enum class FaultKind : uint8_t {
  /// Online certifier: the certifier loses its state. Recovery restores the
  /// last snapshot (or starts fresh) and re-feeds the actions since.
  kCrashWorker,
  /// Online certifier: the certifier is snapshotted (copied), bounding the
  /// re-feed of a later crash.
  kSnapshotWorker,
  /// Simulation driver: the controller aborts a live transaction chosen
  /// deterministically by `param` (the paper's controller nondeterminism).
  kInjectAbort,
  /// SGT coordinator: one admission check spuriously reports "would close a
  /// cycle", forcing the scheduler down its abort path.
  kSpuriousReject,
};

const char* FaultKindName(FaultKind kind);

/// One scheduled fault. `at` is a site-local tick: the certifier's action
/// position for crashes and snapshots, the simulation step for injected
/// aborts, the admission-check ordinal for spurious rejections. `param`
/// carries a kind-specific amount.
struct FaultEvent {
  uint64_t at = 0;
  FaultKind kind = FaultKind::kCrashWorker;
  uint64_t param = 0;
};

/// Tuning knobs for plan generation: expected number of events of each
/// family over the horizon. Counts, not probabilities, so a plan's intensity
/// is independent of the horizon length.
struct FaultPlanParams {
  size_t crashes = 2;
  size_t snapshots = 2;
  size_t injected_aborts = 0;
  size_t spurious_rejects = 0;
};

/// A deterministic, seed-replayable schedule of fault events, sorted by
/// tick. The same (seed, horizon, params) always yields the same plan, so
/// every chaos run is replayable from its seed alone.
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Draws event ticks uniformly over [0, horizon), per `params`, from a
  /// seeded stream.
  static FaultPlan Generate(uint64_t seed, uint64_t horizon,
                            const FaultPlanParams& params);

  bool empty() const { return events.empty(); }
  size_t size() const { return events.size(); }

  /// One event per line, for logs and the chaos CLI.
  std::string ToString() const;
};

}  // namespace ntsg

#endif  // NTSG_FAULT_FAULT_PLAN_H_
