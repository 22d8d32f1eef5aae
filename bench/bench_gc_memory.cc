// Experiment T11: commit-watermark GC — flat memory at negligible cost.
//
// BM_CertifyStreamNoGc streams a synthetic workload through an
// IncrementalCertifier with collection off (live state grows with the
// stream); BM_CertifyStreamGc runs the identical stream with the collector
// on. The counters record the live-graph residue at the end of the stream —
// the memory story — and the timing ratio is the overhead story: the
// nightly gate requires NoGc/Gc >= 0.9 (collection costs at most ~10%
// steady-state throughput; see tools/bench_snapshot.sh and
// tools/check_bench_regression.py).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "sg/incremental_certifier.h"

namespace ntsg {
namespace {

// ~num_ops accesses over 48 objects, 6 per top-level, mild skew: thousands
// of short families, the stream shape the collector is built for.
const bench::SyntheticBatch& GcBatch(size_t num_ops) {
  static std::map<size_t, std::unique_ptr<bench::SyntheticBatch>> cache;
  auto it = cache.find(num_ops);
  if (it == cache.end()) {
    auto batch = std::make_unique<bench::SyntheticBatch>(
        bench::SyntheticBatchWorkload(num_ops, /*num_objects=*/48,
                                      /*ops_per_toplevel=*/6,
                                      /*zipf_s=*/0.6, /*seed=*/0x6C0DE));
    it = cache.emplace(num_ops, std::move(batch)).first;
  }
  return *it->second;
}

void StreamOnce(benchmark::State& state, size_t gc_interval) {
  const bench::SyntheticBatch& batch =
      GcBatch(static_cast<size_t>(state.range(0)));
  GcOptions gc;
  gc.interval = gc_interval;
  size_t live_nodes = 0;
  size_t retired = 0;
  for (auto _ : state) {
    IncrementalCertifier cert(*batch.type, ConflictMode::kReadWrite, gc);
    cert.IngestTrace(batch.trace);
    bool ok = cert.verdict().ok();
    benchmark::DoNotOptimize(ok);
    live_nodes = cert.live_node_count();
    retired = cert.gc_stats().retired_families;
  }
  state.counters["events"] = static_cast<double>(batch.trace.size());
  state.counters["live_nodes_end"] = static_cast<double>(live_nodes);
  state.counters["retired_families"] = static_cast<double>(retired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.trace.size()));
}

void BM_CertifyStreamNoGc(benchmark::State& state) {
  StreamOnce(state, /*gc_interval=*/0);
}

void BM_CertifyStreamGc(benchmark::State& state) {
  StreamOnce(state, /*gc_interval=*/256);
}

// The no-GC row runs only at the gated size: its cost is superlinear in the
// stream (that blowup is the experiment's point — see EXPERIMENTS.md T11),
// and the larger sizes would dominate the nightly wall clock. The GC rows
// scale to show the flat profile.
BENCHMARK(BM_CertifyStreamNoGc)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CertifyStreamGc)->Arg(20000)->Arg(80000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
