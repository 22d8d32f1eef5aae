// Experiment T7: the price of the fault-injection subsystem. Three claims
// to quantify:
//
//   * Disabled hooks are (near-)free — a pipeline run with no FaultPlan
//     wired in must stay within ~2% of pre-fault throughput (the hooks
//     reduce to a single null check per routed event);
//   * An *armed but empty* plan costs only a cursor probe per tick;
//   * Crash recovery via snapshot + log replay is proportional to the
//     suffix since the last snapshot, not to the whole behavior — compare
//     BM_CertifierSnapshotResume against BM_CertifierFullReingest as the
//     snapshot point moves.
//
// Chaos-mode runs (crashes, delays, duplicates) are included for scale, not
// as an overhead claim: they deliberately do extra work.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "fault/fault_plan.h"
#include "sg/incremental_certifier.h"
#include "sim/concurrent_ingest.h"

namespace ntsg {
namespace {

// Baseline: fault hooks present in the build but no plan installed. This is
// the configuration every non-chaos caller runs, so it is the number the
// <2% disabled-overhead budget is measured against.
void BM_PipelineNoPlan(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  ConcurrentIngestConfig config;
  config.num_shards = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    ConcurrentIngestReport report = ConcurrentIngestPipeline::Run(
        *run.type, run.sim.trace, ConflictMode::kReadWrite, config);
    benchmark::DoNotOptimize(report);
  }
  state.counters["events"] = static_cast<double>(run.sim.trace.size());
}

// An injector is armed but its schedule is empty: per-tick cost is one
// exhausted-cursor probe in Poll.
void BM_PipelineEmptyPlan(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  FaultPlan empty;
  ConcurrentIngestConfig config;
  config.num_shards = static_cast<size_t>(state.range(1));
  config.fault_plan = &empty;
  for (auto _ : state) {
    ConcurrentIngestReport report = ConcurrentIngestPipeline::Run(
        *run.type, run.sim.trace, ConflictMode::kReadWrite, config);
    benchmark::DoNotOptimize(report);
  }
  state.counters["events"] = static_cast<double>(run.sim.trace.size());
}

// Full chaos: crashes with restart/backoff, delivery delay/reorder/dup, and
// snapshots, all live. Not an overhead claim — a scale reference.
void BM_PipelineChaosPlan(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  ConcurrentIngestConfig config;
  config.num_shards = static_cast<size_t>(state.range(1));
  FaultPlanParams params;
  FaultPlan plan = FaultPlan::Generate(/*seed=*/7, run.sim.trace.size(),
                                       config.num_shards, params);
  config.fault_plan = &plan;
  size_t faults = 0;
  for (auto _ : state) {
    ConcurrentIngestReport report = ConcurrentIngestPipeline::Run(
        *run.type, run.sim.trace, ConflictMode::kReadWrite, config);
    benchmark::DoNotOptimize(report);
    faults = report.faults.total_injected();
  }
  state.counters["events"] = static_cast<double>(run.sim.trace.size());
  state.counters["faults"] = static_cast<double>(faults);
}

// Recovery the slow way: rebuild certifier state by re-ingesting the whole
// behavior from scratch.
void BM_CertifierFullReingest(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  const Trace& beta = run.sim.trace;
  for (auto _ : state) {
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    cert.IngestTrace(beta);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(beta.size());
}

// Recovery the fast way: restore a snapshot taken at `range(1)` sixteenths
// of the behavior and replay only the suffix. As the snapshot point moves
// toward the crash, recovery cost falls toward zero while full re-ingest
// stays flat.
void BM_CertifierSnapshotResume(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  const Trace& beta = run.sim.trace;
  const size_t cut = beta.size() * static_cast<size_t>(state.range(1)) / 16;
  IncrementalCertifier checkpoint(*run.type, ConflictMode::kReadWrite);
  for (size_t i = 0; i < cut; ++i) checkpoint.Ingest(beta[i]);
  for (auto _ : state) {
    IncrementalCertifier restored = checkpoint;  // snapshot restore
    for (size_t i = cut; i < beta.size(); ++i) restored.Ingest(beta[i]);
    benchmark::DoNotOptimize(restored.verdict());
  }
  state.counters["events"] = static_cast<double>(beta.size());
  state.counters["replayed"] = static_cast<double>(beta.size() - cut);
}

BENCHMARK(BM_PipelineNoPlan)
    ->Args({32, 1})->Args({32, 4})->Args({128, 1})->Args({128, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineEmptyPlan)
    ->Args({32, 1})->Args({32, 4})->Args({128, 1})->Args({128, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineChaosPlan)
    ->Args({32, 4})->Args({128, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifierFullReingest)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifierSnapshotResume)
    ->Args({128, 4})->Args({128, 8})->Args({128, 12})->Args({128, 15})
    ->Args({512, 12})->Args({512, 15})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
