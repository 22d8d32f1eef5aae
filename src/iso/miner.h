#ifndef NTSG_ISO_MINER_H_
#define NTSG_ISO_MINER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "iso/checker.h"
#include "tx/trace.h"

namespace ntsg {

struct MinerOptions {
  uint64_t seed = 1;
  /// Workload/seed points to explore. Even points replay salted anomaly
  /// templates; odd points run the differential-fuzz workload generator
  /// against a deliberately broken backend (rotating through all of them).
  size_t runs = 64;
};

/// One mined counterexample: an execution rejected at the serializable
/// level, with its verdict vector, labeled anomaly, and (re-verified)
/// witness. `weaker_level_accepts` marks the isolation *gap* hits the miner
/// exists for: executions some weaker level accepts but SG(β) rejects.
struct MinedHit {
  size_t run_index = 0;
  std::string source;  // "template:<name>#<salt>" or "sim:<backend>:seed=<s>"
  AnomalyKind anomaly = AnomalyKind::kNone;
  IsoLevel first_failing = IsoLevel::kSerializable;
  bool weaker_level_accepts = false;
  bool witness_verified = false;
  IsoVerdictVector verdicts;
  std::string trace_text;   // SerializeSystemAndTrace, replayable by the CLI
  std::string render_text;  // golden-format verdict-vector rendering
};

struct MinerReport {
  size_t runs = 0;
  std::vector<MinedHit> hits;
  /// Distinct labeled anomaly classes seen, with counts (by anomaly name).
  std::map<std::string, size_t> anomaly_counts;

  size_t gap_hits() const {
    size_t n = 0;
    for (const MinedHit& h : hits) n += h.weaker_level_accepts;
    return n;
  }
};

/// Deterministic in `options`: the same seed and run budget produce the
/// same hits in the same order, byte for byte (the seeded-determinism test
/// pins this).
MinerReport MineAnomalies(const MinerOptions& options);

}  // namespace ntsg

#endif  // NTSG_ISO_MINER_H_
