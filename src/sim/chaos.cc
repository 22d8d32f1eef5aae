#include "sim/chaos.h"

#include <optional>
#include <vector>

namespace ntsg {

IncrementalCertifier CertifyWithCrashes(const IncrementalCertifier& fresh,
                                        const Trace& beta,
                                        const FaultPlan& plan,
                                        FaultStats* stats) {
  FaultInjector faults(plan,
                       {FaultKind::kCrashWorker, FaultKind::kSnapshotWorker});
  IncrementalCertifier cert = fresh;
  std::optional<IncrementalCertifier> snapshot;
  std::vector<FaultEvent> fired;
  for (size_t i = 0; i < beta.size(); ++i) {
    fired.clear();
    faults.Poll(i, &fired);
    for (const FaultEvent& e : fired) {
      if (e.kind == FaultKind::kSnapshotWorker) {
        snapshot = cert;
        ++stats->snapshots;
        continue;
      }
      ++stats->crashes;
      cert = snapshot.has_value() ? *snapshot : fresh;
      for (size_t j = cert.actions_ingested(); j < i; ++j) {
        cert.Ingest(beta[j]);
        ++stats->items_replayed;
      }
    }
    cert.Ingest(beta[i]);
  }
  return cert;
}

}  // namespace ntsg
