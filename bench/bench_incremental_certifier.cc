// Experiment T6: online certification cost. Compares two ways of keeping a
// Theorem 8/19 verdict current while a behavior streams in:
//
//   * Batch/prefix  — rerun CertifySeriallyCorrect on every prefix (the
//     quadratic straw man an online scheduler would otherwise pay);
//   * Incremental   — IncrementalCertifier, one Pearce–Kelly insertion per
//     discovered edge, per-object replay for return values;
//   * IncrementalFinal vs BatchFinal — one full pass each, isolating the
//     per-action overhead from the prefix blowup.
//
// IngestPerEvent and IngestPerEventGc time the online certifier end to end
// on the T10 synthetic batch workload (10k ops, 64 objects, Zipf(1.10)
// object popularity), GC off and with commit-watermark GC every 1024
// actions (T11: GC-on is the fast regime). tools/bench_snapshot.sh
// snapshots the pair into BENCH_ingest.json.

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

constexpr int kZipfHundredths = 110;  // Zipf(1.10), the T10 skewed workload

void BM_IngestPerEvent(benchmark::State& state) {
  const bench::SyntheticBatch& batch = bench::CachedBatch(kZipfHundredths);
  for (auto _ : state) {
    IncrementalCertifier cert(*batch.type, ConflictMode::kReadWrite);
    cert.IngestTrace(batch.trace);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(batch.trace.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.trace.size()));
}
BENCHMARK(BM_IngestPerEvent);

// The GC-on twin of IngestPerEvent. GC is a huge win on this workload:
// retirement prunes the hot object's otherwise-quadratic frontier.
void BM_IngestPerEventGc(benchmark::State& state) {
  const bench::SyntheticBatch& batch = bench::CachedBatch(kZipfHundredths);
  GcOptions gc;
  gc.interval = 1024;
  for (auto _ : state) {
    IncrementalCertifier cert(*batch.type, ConflictMode::kReadWrite, gc);
    cert.IngestTrace(batch.trace);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(batch.trace.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.trace.size()));
}
BENCHMARK(BM_IngestPerEventGc);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
