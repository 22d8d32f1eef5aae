// Experiment T7: the price of certifier crash recovery. A crashed online
// certifier restores its last snapshot (a copy — the certifier has value
// semantics) and replays only the suffix since it, so recovery cost is
// proportional to that suffix, not to the whole behavior — compare
// BM_CertifierSnapshotResume against BM_CertifierFullReingest as the
// snapshot point moves. This is the recovery `ntsg chaos` exercises.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sg/incremental_certifier.h"

namespace ntsg {
namespace {

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

BENCHMARK(BM_CertifierFullReingest)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifierSnapshotResume)
    ->Args({128, 4})->Args({128, 8})->Args({128, 12})->Args({128, 15})
    ->Args({512, 12})->Args({512, 15})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
