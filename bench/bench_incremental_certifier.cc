// Experiment T6: online certification cost. Compares two ways of keeping a
// Theorem 8/19 verdict current while a behavior streams in:
//
//   * Batch/prefix  — rerun CertifySeriallyCorrect on every prefix (the
//     quadratic straw man an online scheduler would otherwise pay);
//   * Incremental   — IncrementalCertifier, one Pearce–Kelly insertion per
//     discovered edge, per-object replay for return values;
//   * IncrementalFinal vs BatchFinal — one full pass each, isolating the
//     per-action overhead from the prefix blowup.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"

namespace ntsg {
namespace {

// Re-certify from scratch at every kth prefix (k keeps the straw man from
// dwarfing the timer budget at larger trace sizes; counters report k).
void BM_BatchPerPrefix(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  const Trace& beta = run.sim.trace;
  const size_t stride = beta.size() / 16 + 1;
  for (auto _ : state) {
    bool ok = true;
    for (size_t n = stride; n <= beta.size(); n += stride) {
      Trace prefix(beta.begin(), beta.begin() + n);
      CertifierReport report =
          CertifySeriallyCorrect(*run.type, prefix, ConflictMode::kReadWrite);
      ok = ok && report.status.ok();
    }
    benchmark::DoNotOptimize(ok);
  }
  state.counters["events"] = static_cast<double>(beta.size());
  state.counters["prefixes"] = static_cast<double>(beta.size() / stride);
}

void BM_IncrementalStream(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  const Trace& beta = run.sim.trace;
  for (auto _ : state) {
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    for (const Action& a : beta) {
      cert.Ingest(a);
      benchmark::DoNotOptimize(cert.verdict());
    }
  }
  state.counters["events"] = static_cast<double>(beta.size());
}

void BM_BatchFinalOnly(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  for (auto _ : state) {
    CertifierReport report = CertifySeriallyCorrect(
        *run.type, run.sim.trace, ConflictMode::kReadWrite);
    benchmark::DoNotOptimize(report);
  }
  state.counters["events"] = static_cast<double>(run.sim.trace.size());
}

BENCHMARK(BM_BatchPerPrefix)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalStream)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchFinalOnly)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
