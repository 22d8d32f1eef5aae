#ifndef NTSG_FAULT_FAULT_INJECTOR_H_
#define NTSG_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "fault/fault_plan.h"

namespace ntsg {

/// Counters of faults actually delivered to a site, so tests and the chaos
/// CLI can assert a plan genuinely fired (a chaos run whose faults all
/// missed proves nothing).
struct FaultStats {
  size_t crashes = 0;
  size_t snapshots = 0;
  size_t items_replayed = 0;
  size_t injected_aborts = 0;
  size_t spurious_rejects = 0;

  std::string ToString() const;
};

/// Folds a delivered-fault tally into the process-wide ntsg_fault_* metric
/// families (obs/families.h), so chaos activity lands on the same scrape as
/// certifier metrics. Call once per finished run (the chaos command's
/// faulted certification, the driver's end of Run); counters accumulate
/// across runs.
void PublishFaultStats(const FaultStats& stats);

/// Per-site cursor over a FaultPlan: each injection site (chaos certifier,
/// simulation driver, SGT coordinator) constructs its own injector filtered
/// to the kinds it interprets, then polls it with its own monotone tick.
/// Sites keep a *pointer* that is null when chaos is off, so a disabled
/// hook costs one branch.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::initializer_list<FaultKind> kinds);

  /// Appends to `fired` every pending event with event.at <= tick (ticks
  /// must be polled in nondecreasing order) and advances the cursor.
  /// Returns true iff anything fired.
  bool Poll(uint64_t tick, std::vector<FaultEvent>* fired);

  /// Events of the filtered kinds that the site never reached (e.g. the
  /// trace ended first).
  size_t pending() const { return events_.size() - next_; }

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

 private:
  std::vector<FaultEvent> events_;  // sorted by at
  size_t next_ = 0;
  FaultStats stats_;
};

}  // namespace ntsg

#endif  // NTSG_FAULT_FAULT_INJECTOR_H_
