// Experiment T14: the open-loop load harness end to end. Three questions:
//   1. Per-workload admission latency — p50/p95/p99 of driving each
//      application workload (bank, tpcc, commute) through each certifier
//      mode, unpaced (pure service time, no arrival sleeps in the loop).
//   2. Saturation throughput — the paced sweep's knee, per workload.
//   3. Harness overhead — BM_LoadTimelineOn vs BM_LoadTimelineOff must stay
//      within noise (the regression gate holds their ratio), so streaming
//      the per-epoch NDJSON timeline is free enough to leave on.
//
// Latency quantiles surface as user counters next to the wall-time medians
// google-benchmark already reports; tools/bench_load.sh folds both into
// BENCH_load.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "load/load_gen.h"
#include "load/workloads.h"

namespace ntsg::load {
namespace {

/// One instance per workload, built once and shared across iterations (the
/// harness never mutates it; determinism makes re-use exact).
const WorkloadInstance& CachedWorkload(Workload w) {
  static WorkloadInstance cache[3] = {[] {
                                        WorkloadParams p;
                                        p.workload = Workload::kBank;
                                        p.scale = 16;
                                        p.toplevel = 96;
                                        p.seed = 1;
                                        return BuildWorkload(p);
                                      }(),
                                      [] {
                                        WorkloadParams p;
                                        p.workload = Workload::kTpcc;
                                        p.scale = 16;
                                        p.toplevel = 96;
                                        p.seed = 1;
                                        return BuildWorkload(p);
                                      }(),
                                      [] {
                                        WorkloadParams p;
                                        p.workload = Workload::kCommute;
                                        p.scale = 16;
                                        p.toplevel = 96;
                                        p.seed = 1;
                                        return BuildWorkload(p);
                                      }()};
  return cache[static_cast<size_t>(w)];
}

LoadOptions UnpacedOptions(CertMode mode) {
  LoadOptions opt;
  opt.rate = 100'000;
  opt.epochs = 4;
  opt.mode = mode;
  opt.shards = 4;
  opt.pace = false;  // pure service time: no arrival sleeps in the timing
  // Epoch-batched admission in the incremental and sharded sinks (T15) —
  // the deployment shape the harness models; verdicts are batching-
  // independent, so the latency rows stay comparable to per-event ones.
  opt.batch = 256;
  return opt;
}

/// state.range(0) selects the certifier mode: 0 batch, 1 incremental,
/// 2 sharded.
void LoadRun(benchmark::State& state, Workload w) {
  const WorkloadInstance& wl = CachedWorkload(w);
  LoadOptions opt = UnpacedOptions(static_cast<CertMode>(state.range(0)));
  LoadReport report;
  for (auto _ : state) {
    Status s = RunLoad(wl, opt, &report);
    if (!s.ok() || !report.certified) {
      state.SkipWithError("load run did not certify");
      return;
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["events"] = static_cast<double>(wl.trace.size());
  state.counters["p50_us"] = report.p50_us;
  state.counters["p95_us"] = report.p95_us;
  state.counters["p99_us"] = report.p99_us;
  state.counters["achieved_rate"] = report.achieved_rate;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wl.trace.size()));
}

void BM_LoadBank(benchmark::State& state) { LoadRun(state, Workload::kBank); }
void BM_LoadTpcc(benchmark::State& state) { LoadRun(state, Workload::kTpcc); }
void BM_LoadCommute(benchmark::State& state) {
  LoadRun(state, Workload::kCommute);
}

/// Paced saturation sweep per workload; the knee rate surfaces as a counter.
/// Short steps (2 epochs, 3 rate doublings from a high base) keep each
/// iteration bounded while still finding the knee on saturated hardware.
void SaturationRun(benchmark::State& state, Workload w) {
  const WorkloadInstance& wl = CachedWorkload(w);
  SweepOptions sweep;
  sweep.base = UnpacedOptions(CertMode::kIncremental);
  sweep.base.rate = 100'000;
  sweep.base.epochs = 2;
  sweep.max_steps = 3;
  SweepReport report;
  for (auto _ : state) {
    Status s = RunSaturationSweep(wl, sweep, &report);
    if (!s.ok() || !report.certified) {
      state.SkipWithError("sweep step did not certify");
      return;
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["saturation_rate"] = report.saturation_rate;
  state.counters["steps"] = static_cast<double>(report.steps.size());
}

void BM_SaturationBank(benchmark::State& state) {
  SaturationRun(state, Workload::kBank);
}
void BM_SaturationTpcc(benchmark::State& state) {
  SaturationRun(state, Workload::kTpcc);
}
void BM_SaturationCommute(benchmark::State& state) {
  SaturationRun(state, Workload::kCommute);
}

/// The overhead pair the regression gate compares: the same incremental run
/// with the timeline streaming to disk vs disabled. check_bench_regression
/// holds TimelineOn within 1/0.8 = 1.25x of TimelineOff.
void TimelineRun(benchmark::State& state, bool timeline) {
  // The largest workload and a dense epoch grid: one file open per run is
  // real harness cost, but it should be measured against a run long enough
  // to amortize it, as any real measurement session is.
  const WorkloadInstance& wl = CachedWorkload(Workload::kBank);
  LoadOptions opt = UnpacedOptions(CertMode::kIncremental);
  opt.epochs = 16;
  std::string path;
  if (timeline) {
    path = "/tmp/ntsg_bench_timeline.ndjson";
    opt.timeline_path = path;
  }
  LoadReport report;
  for (auto _ : state) {
    Status s = RunLoad(wl, opt, &report);
    if (!s.ok() || !report.certified || !report.timeline_status.ok()) {
      state.SkipWithError("timeline run failed");
      return;
    }
    benchmark::DoNotOptimize(report);
  }
  if (!path.empty()) std::remove(path.c_str());
  state.counters["events"] = static_cast<double>(wl.trace.size());
}

void BM_LoadTimelineOn(benchmark::State& state) { TimelineRun(state, true); }
void BM_LoadTimelineOff(benchmark::State& state) { TimelineRun(state, false); }

// Arg 2 runs the sharded pipeline's worker threads and the saturation
// sweep sleeps to pace arrivals: time these rows by the wall clock, not by
// the main thread's CPU.
BENCHMARK(BM_LoadBank)
    ->Arg(0)->Arg(1)->Arg(2)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadTpcc)
    ->Arg(0)->Arg(1)->Arg(2)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadCommute)
    ->Arg(0)->Arg(1)->Arg(2)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SaturationBank)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SaturationTpcc)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SaturationCommute)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadTimelineOn)->Arg(0)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadTimelineOff)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg::load

NTSG_BENCH_MAIN();
