// Experiment T9: the price of the tracing layer. Same contract as the
// metrics layer (bench_obs_overhead): with tracing disabled every TraceEmit
// site is one relaxed load and a predictable branch — the disabled micro
// bench must stay within the same budget as BM_CounterIncDisabled (~1ns) —
// and end-to-end certifier and pipeline runs must be indistinguishable from
// an uninstrumented build. The enabled configurations are scale references:
// they deliberately stamp clocks and write ring slots.
//
// Compare BM_CertifierTraceOff here against bench_obs_overhead's
// BM_CertifierMetricsOff (same workload) for the disabled-path cost, and
// *TraceOff vs *TraceOn within this binary for the price of the recorder.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "obs/trace.h"
#include "sg/incremental_certifier.h"
#include "sim/concurrent_ingest.h"

namespace ntsg {
namespace {

/// Pins the global trace switch for one benchmark's duration and restores
/// the previous state; clears the recorder so enabled runs measure ring
/// writes, not wrap-around bookkeeping of a full recorder.
class ScopedTrace {
 public:
  explicit ScopedTrace(bool enabled) : was_(obs::TraceEnabled()) {
    obs::SetTraceEnabled(enabled);
    obs::TraceRecorder::Default().Clear();
  }
  ~ScopedTrace() {
    obs::TraceRecorder::Default().Clear();
    obs::SetTraceEnabled(was_);
  }

 private:
  bool was_;
};

// Micro-cost of one emit site. Disabled is the number the acceptance
// criterion pins: every instrumented hot path pays this even when nobody is
// tracing, so it must stay at one relaxed load + branch.
void BM_TraceEmitDisabled(benchmark::State& state) {
  ScopedTrace scope(false);
  for (auto _ : state) {
    obs::TraceEmit(obs::TraceEventKind::kOpFired, 7, 7, 3, 0, 42);
  }
}

void BM_TraceEmitEnabled(benchmark::State& state) {
  ScopedTrace scope(true);
  for (auto _ : state) {
    obs::TraceEmit(obs::TraceEventKind::kOpFired, 7, 7, 3, 0, 42);
  }
}

void CertifierRun(benchmark::State& state, bool trace) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  ScopedTrace scope(trace);
  for (auto _ : state) {
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    cert.IngestTrace(run.sim.trace);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(run.sim.trace.size());
}

void BM_CertifierTraceOff(benchmark::State& state) {
  CertifierRun(state, false);
}
void BM_CertifierTraceOn(benchmark::State& state) {
  CertifierRun(state, true);
}

void PipelineRun(benchmark::State& state, bool trace) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  ConcurrentIngestConfig config;
  config.num_shards = static_cast<size_t>(state.range(1));
  ScopedTrace scope(trace);
  for (auto _ : state) {
    ConcurrentIngestReport report = ConcurrentIngestPipeline::Run(
        *run.type, run.sim.trace, ConflictMode::kReadWrite, config);
    benchmark::DoNotOptimize(report);
  }
  state.counters["events"] = static_cast<double>(run.sim.trace.size());
}

void BM_PipelineTraceOff(benchmark::State& state) {
  PipelineRun(state, false);
}
void BM_PipelineTraceOn(benchmark::State& state) {
  PipelineRun(state, true);
}

// Export cost at a fixed recorder population, for sizing --trace-out
// epilogues: fill one ring with N synthetic events, then serialize.
void BM_NdjsonExport(benchmark::State& state) {
  ScopedTrace scope(true);
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; ++i) {
    obs::TraceEmit(obs::TraceEventKind::kOpApplied, 1,
                   static_cast<uint32_t>(i % 64), 0, 0, i);
  }
  for (auto _ : state) {
    std::string text = obs::TraceRecorder::Default().NdjsonText();
    benchmark::DoNotOptimize(text);
  }
  state.counters["events"] = static_cast<double>(n);
}

BENCHMARK(BM_TraceEmitDisabled);
BENCHMARK(BM_TraceEmitEnabled);
BENCHMARK(BM_CertifierTraceOff)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifierTraceOn)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineTraceOff)
    ->Args({32, 1})->Args({32, 4})->Args({128, 1})->Args({128, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineTraceOn)
    ->Args({32, 1})->Args({32, 4})->Args({128, 1})->Args({128, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NdjsonExport)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
