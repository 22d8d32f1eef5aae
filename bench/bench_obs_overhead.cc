// Experiment T8: the price of the observability layer. With metrics
// disabled every instrument is one relaxed load and a branch, and
// end-to-end certifier runs must stay within ~2% of an uninstrumented
// build. The enabled configurations are scale references, not an overhead
// claim — they deliberately read clocks and touch atomics.
//
// Compare BM_CertifierMetricsOff against bench_fault_overhead's
// BM_CertifierFullReingest (same workload, same certifier) to see the
// disabled-path cost; compare *MetricsOff vs *MetricsOn within this binary
// for the price of turning the layer on.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "obs/families.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sg/incremental_certifier.h"

namespace ntsg {
namespace {

/// Pins the global metrics switch for one benchmark's duration and restores
/// the previous state (NTSG_BENCH_METRICS_DIR may have enabled it globally).
class ScopedMetrics {
 public:
  explicit ScopedMetrics(bool enabled) : was_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(enabled);
  }
  ~ScopedMetrics() { obs::SetMetricsEnabled(was_); }

 private:
  bool was_;
};

void CertifierRun(benchmark::State& state, bool metrics) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  ScopedMetrics scope(metrics);
  for (auto _ : state) {
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    cert.IngestTrace(run.sim.trace);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(run.sim.trace.size());
}

void BM_CertifierMetricsOff(benchmark::State& state) {
  CertifierRun(state, false);
}
void BM_CertifierMetricsOn(benchmark::State& state) {
  CertifierRun(state, true);
}

// Micro-costs of the individual instruments, for attribution when an
// end-to-end delta does show up.
void BM_CounterIncDisabled(benchmark::State& state) {
  ScopedMetrics scope(false);
  obs::Counter* c = obs::GetCertifierMetrics().actions_ingested;
  for (auto _ : state) c->Inc();
}

void BM_CounterIncEnabled(benchmark::State& state) {
  ScopedMetrics scope(true);
  obs::Counter* c = obs::GetCertifierMetrics().actions_ingested;
  for (auto _ : state) c->Inc();
}

void BM_SpanTimerDisabled(benchmark::State& state) {
  ScopedMetrics scope(false);
  obs::Histogram* h = obs::GetCertifierMetrics().edge_insert_us;
  for (auto _ : state) {
    obs::SpanTimer span(h);
    benchmark::DoNotOptimize(span);
  }
}

void BM_SpanTimerEnabled(benchmark::State& state) {
  ScopedMetrics scope(true);
  obs::Histogram* h = obs::GetCertifierMetrics().edge_insert_us;
  for (auto _ : state) {
    obs::SpanTimer span(h);
    benchmark::DoNotOptimize(span);
  }
}

BENCHMARK(BM_CertifierMetricsOff)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifierMetricsOn)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CounterIncDisabled);
BENCHMARK(BM_CounterIncEnabled);
BENCHMARK(BM_SpanTimerDisabled);
BENCHMARK(BM_SpanTimerEnabled);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
