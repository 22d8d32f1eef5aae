#ifndef NTSG_PERFBENCH_ENTRIES_H_
#define NTSG_PERFBENCH_ENTRIES_H_

// The timed entry points. Each one starts from bytes on disk, calls the
// public functions of one certifier path, and checks the verdict after the
// clock has stopped. A decode error, a non-OK Status or a disagreeing
// verdict makes the sample failed; nothing here aborts the process.

#include <chrono>
#include <cstdint>
#include <string>

#include "load/load_gen.h"
#include "perfbench/inputs.h"

namespace ntsg::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Which stored form an entry point decodes.
enum class Format { kText, kWal };

/// Decodes `in` in form `f` into a fresh `type` and an empty `trace`.
Status Decode(const StoredInput& in, Format f, SystemType* type,
              Trace* trace);

/// What every entry point must reproduce: the verdict, and for GC-off
/// entries also the edge counts and graph fingerprint of the batch build.
struct Expected {
  bool certified = false;
  size_t conflict_edges = 0;
  size_t precedes_edges = 0;
  uint64_t fingerprint = 0;
};

/// The batch certifier run stage by stage, with each stage's wall time.
/// Its stages are the calls CertifySeriallyCorrect makes, in its order.
struct StagedBatch {
  Expected result;
  double serial_part_s = 0;
  double appropriate_s = 0;
  double conflict_s = 0;
  double precedes_s = 0;
  double graph_s = 0;
  double cycle_s = 0;

  double StageSum() const {
    return serial_part_s + appropriate_s + conflict_s + precedes_s + graph_s +
           cycle_s;
  }
};
StagedBatch CertifyStaged(const SystemType& type, const Trace& beta,
                          ConflictMode mode);

struct Sample {
  bool ok = false;
  double seconds = 0;
  load::LoadReport report;  // online and open-loop entries only
  std::string error;        // why the sample failed
};

/// Stored form -> decode -> CertifySeriallyCorrect with `threads` workers.
Sample RunBatch(const StoredInput& in, Format f, size_t threads,
                const Expected& expected);

/// Stored form -> decode -> load::RunLoad closed loop (no pacing, per-event
/// admission) in `mode` with `shards` workers and GC every `gc_interval`.
Sample RunOnline(const StoredInput& in, Format f, load::CertMode mode,
                 size_t shards, size_t gc_interval);

/// Open loop: load::RunLoad paced at `rate` actions/s with Poisson arrivals
/// through the incremental certifier. Latency counts from the scheduled
/// arrival.
Sample RunOpen(const load::WorkloadInstance& wl, double rate,
               uint64_t arrival_seed, size_t gc_interval);

}  // namespace ntsg::perfbench

#endif  // NTSG_PERFBENCH_ENTRIES_H_
