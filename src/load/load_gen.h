#ifndef NTSG_LOAD_LOAD_GEN_H_
#define NTSG_LOAD_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "load/workloads.h"
#include "sg/gc_watermark.h"

namespace ntsg::load {

/// Which certifier the harness drives.
enum class CertMode : uint8_t {
  kBatch,        // collect the stream, CertifySeriallyCorrect at the end
  kIncremental,  // IncrementalCertifier, verdict live at every epoch
  kSharded,      // same as kIncremental; kept only because perfbench/ names it
};

const char* CertModeName(CertMode m);
/// Parses "batch" | "incremental"; false on anything else.
bool ParseCertMode(const std::string& s, CertMode* out);

/// Open-loop run configuration. The arrival schedule — one virtual
/// timestamp per trace action — is a pure function of (rate, poisson,
/// arrival_seed); wall-clock pacing replays it in real time but never feeds
/// back into it (arrivals are not slowed by a saturated certifier, which is
/// what makes the measured latency coordination-omission-free).
struct LoadOptions {
  /// Offered rate in actions per virtual second; > 0.
  double rate = 50'000.0;
  /// Poisson arrivals (exponential inter-arrival times) vs a fixed
  /// interval of 1/rate.
  bool poisson = true;
  /// Seeds the arrival process only — independent of the workload seed so
  /// the same behavior can be replayed under different arrival patterns.
  uint64_t arrival_seed = 7;
  /// Timeline epochs the virtual-time span is divided into; > 0.
  size_t epochs = 10;
  CertMode mode = CertMode::kIncremental;
  /// Ignored; kept only because perfbench/ sets it.
  size_t shards = 4;
  /// Commit-watermark GC interval for the incremental certifier; 0 = off.
  size_t gc_interval = 0;
  /// Ignored; kept only because perfbench/entries.cc sets it.
  size_t batch = 0;
  /// Sleep until each arrival's scheduled wall time (true measurement);
  /// false admits back-to-back and records pure service time — what the
  /// determinism tests use, since the virtual-time bookkeeping is identical
  /// either way.
  bool pace = true;
  /// Non-empty streams a per-epoch NDJSON timeline here.
  std::string timeline_path;
  /// Adds the wall-clock fields (latency quantiles, elapsed time, metrics
  /// snapshot) to each timeline record. Off, the timeline carries only the
  /// deterministic core and is byte-identical across runs.
  bool timeline_wallclock = false;
};

struct LoadReport {
  CertMode mode = CertMode::kIncremental;
  /// Final verdict over the full behavior (all modes certify at Finish).
  bool certified = false;
  bool appropriate = false;
  bool acyclic = false;

  uint64_t actions = 0;       // actions admitted (= the full trace)
  uint64_t ops = 0;           // access REQUEST_COMMITs among them
  uint64_t vtime_end_us = 0;  // virtual-time span of the schedule
  uint64_t late_arrivals = 0; // paced arrivals admitted past their slot

  double wall_seconds = 0;
  double offered_rate = 0;   // actions / virtual second (the config)
  double achieved_rate = 0;  // actions / wall second actually admitted

  // Admission-latency quantiles in microseconds: scheduled-arrival to
  // admission-complete when paced, pure admission service time otherwise.
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double p999_us = 0;

  GcStats gc;                  // zeros for kBatch or GC off
  uint64_t epochs_emitted = 0; // timeline records written (0 = no timeline)
  Status timeline_status;      // non-OK: the timeline file is not trustworthy
};

/// Drives `wl` through the configured certifier on the open-loop schedule.
/// The returned report's verdict fields answer whether the workload
/// certifies; Status is non-OK only for harness-level failures (an
/// unwritable timeline path).
Status RunLoad(const WorkloadInstance& wl, const LoadOptions& opt,
               LoadReport* out);

/// Saturation sweep: steps the offered rate by `rate_multiplier` from
/// `base.rate` until the admission latency knees (p99 above `knee_p99_us`)
/// or admission falls behind (achieved below `behind_fraction` of offered),
/// then reports the last pre-knee step's achieved rate as the saturation
/// throughput. Runs paced with the timeline disabled — each step is a real
/// measurement, not a replay.
struct SweepOptions {
  LoadOptions base;
  size_t max_steps = 8;
  double rate_multiplier = 2.0;
  double knee_p99_us = 5'000.0;
  double behind_fraction = 0.9;
};

struct SweepStep {
  double offered_rate = 0;
  double achieved_rate = 0;
  double p50_us = 0;
  double p99_us = 0;
  bool kneed = false;
};

struct SweepReport {
  std::vector<SweepStep> steps;
  /// Achieved rate of the last step before the knee (or of the last step
  /// run, when no knee was reached within max_steps).
  double saturation_rate = 0;
  bool certified = false;  // every step's final verdict
};

Status RunSaturationSweep(const WorkloadInstance& wl, const SweepOptions& opt,
                          SweepReport* out);

}  // namespace ntsg::load

#endif  // NTSG_LOAD_LOAD_GEN_H_
