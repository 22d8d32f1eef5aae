#include "fault/fault_injector.h"

#include <algorithm>
#include <sstream>

#include "obs/families.h"
#include "obs/trace.h"

namespace ntsg {

std::string FaultStats::ToString() const {
  std::ostringstream out;
  out << "crashes=" << crashes << " snapshots=" << snapshots
      << " replayed=" << items_replayed << " injected_aborts="
      << injected_aborts << " spurious_rejects=" << spurious_rejects;
  return out.str();
}

void PublishFaultStats(const FaultStats& stats) {
  const obs::FaultMetrics& m = obs::GetFaultMetrics();
  m.crashes->Inc(stats.crashes);
  m.snapshots->Inc(stats.snapshots);
  m.items_replayed->Inc(stats.items_replayed);
  m.injected_aborts->Inc(stats.injected_aborts);
  m.spurious_rejects->Inc(stats.spurious_rejects);
}

FaultInjector::FaultInjector(const FaultPlan& plan,
                             std::initializer_list<FaultKind> kinds) {
  for (const FaultEvent& e : plan.events) {
    // Plan events are already sorted by `at`.
    if (std::find(kinds.begin(), kinds.end(), e.kind) != kinds.end()) {
      events_.push_back(e);
    }
  }
}

bool FaultInjector::Poll(uint64_t tick, std::vector<FaultEvent>* fired) {
  bool any = false;
  while (next_ < events_.size() && events_[next_].at <= tick) {
    const FaultEvent& e = events_[next_++];
    // Span 0 = T0: faults are environment events, outside any transaction.
    obs::TraceEmit(obs::TraceEventKind::kFaultFired, 0, 0,
                   static_cast<uint32_t>(e.kind), 0, e.param);
    fired->push_back(e);
    any = true;
  }
  return any;
}

}  // namespace ntsg
