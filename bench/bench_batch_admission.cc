// Experiment T15 (batched admission): the epoch-batched admission fast
// path measured at two layers.
//
// Admission layer (where the batch algorithm lives, and where the nightly
// gate bites):
//
//   * AdmitPerEdgeOrdered / AdmitBatchedOrdered/N — a layered random DAG's
//     edges arriving in a topologically compatible order: every insertion
//     is forward, per-edge Pearce-Kelly early-exits, and batching can at
//     best tie (it pays staging overhead for nothing);
//   * AdmitPerEdgeShuffled / AdmitBatchedShuffled/N — the same edges in
//     random arrival order, which is what stripe interleaving in the
//     sharded pipeline and out-of-order epoch replay actually deliver:
//     most insertions invalidate the maintained order, per-edge PK pays a
//     region reorder per edge, the batch path pays ONE per batch. The
//     nightly gate requires AdmitBatchedShuffled/256 to clear 2x over
//     AdmitPerEdgeShuffled.
//
// End-to-end certifier layer, on the T10 synthetic batch workload (10k
// ops, 64 objects, Zipf(1.10) object popularity):
//
//   * IngestPerEvent    — IncrementalCertifier::Ingest per action;
//   * IngestBatch/N     — IngestTraceBatched with N-action batches, GC off;
//   * IngestBatchGc/N   — the same with commit-watermark GC every 1024
//                         actions, exercising the flush-at-barrier rule;
//   * PipelineBatch/N   — the sharded pipeline with batch_max=N (N=0 is
//                         the per-event pipeline), stripe-grouped commits.
//
// On this workload the end-to-end rows TIE by design: the certifier's trace
// order is the graph's topological order, so per-edge insertions are almost
// all forward and admission is ~12% of certifier time — the rest is
// conflict-frontier emission and dedup, which batching does not touch
// (profiled: SiblingEdgeSet::Insert is ~60% of per-event CPU). The rows are
// kept in the snapshot to pin "batching is free when arrival is ordered";
// the regression gate's --max-regression bound is what guards them.
//
// tools/bench_batch.sh snapshots all rows into BENCH_batch.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "sg/fast_graph.h"
#include "sg/incremental_certifier.h"
#include "sim/concurrent_ingest.h"

namespace ntsg {
namespace {

constexpr int kZipfHundredths = 110;  // Zipf(1.10), the T10 skewed workload

// The admission-commit layer in isolation: a layered random DAG's edge
// stream pushed through IncrementalTopoGraph per-edge (one Pearce–Kelly
// affected-region pass per invalidating edge) vs in batches (one pass per
// batch). Arrival order is the whole story here. "ordered" delivers edges
// in a topologically compatible order — every insertion is forward, both
// paths early-exit, and batching can at best tie. "shuffled" delivers the
// same edges in a random order, which is what the certifier actually sees
// from the sharded pipeline's stripe interleaving and from out-of-order
// epoch replay: most insertions invalidate the current ord, per-edge PK
// pays a region reorder per edge, and the batch path pays one per batch.
// The nightly gate's 2x bar is on the shuffled stream.
struct EdgeStream {
  std::vector<IncrementalTopoGraph::BatchEdge> edges;
};

EdgeStream LayeredDagStream(size_t nodes, size_t out_degree, bool shuffled,
                            uint64_t seed) {
  EdgeStream out;
  Rng rng(seed);
  // Layered DAG: node i points only at higher-numbered nodes within a
  // bounded window, so the edge set is acyclic by construction and dense
  // enough that reorders touch real regions.
  for (size_t i = 0; i + 1 < nodes; ++i) {
    for (size_t k = 0; k < out_degree; ++k) {
      size_t span = std::min<size_t>(nodes - i - 1, 64);
      size_t j = i + 1 + rng.NextInRange(0, static_cast<int64_t>(span - 1));
      out.edges.push_back(IncrementalTopoGraph::BatchEdge{
          static_cast<TxName>(i + 1), static_cast<TxName>(j + 1)});
    }
  }
  if (shuffled) rng.Shuffle(out.edges);
  return out;
}

const EdgeStream& CachedStream(bool shuffled) {
  static EdgeStream ordered = LayeredDagStream(4096, 4, false, 0xD46);
  static EdgeStream shuffled_stream = LayeredDagStream(4096, 4, true, 0xD46);
  return shuffled ? shuffled_stream : ordered;
}

void AdmitPerEdge(benchmark::State& state, bool shuffled) {
  const EdgeStream& stream = CachedStream(shuffled);
  for (auto _ : state) {
    IncrementalTopoGraph graph;
    bool ok = true;
    for (const auto& e : stream.edges) ok = graph.AddEdge(e.from, e.to) && ok;
    benchmark::DoNotOptimize(ok);
  }
  state.counters["edges"] = static_cast<double>(stream.edges.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.edges.size()));
}

void AdmitBatched(benchmark::State& state, bool shuffled) {
  const EdgeStream& stream = CachedStream(shuffled);
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<IncrementalTopoGraph::BatchEdge> chunk;
  for (auto _ : state) {
    IncrementalTopoGraph graph;
    bool ok = true;
    for (size_t i = 0; i < stream.edges.size(); i += batch) {
      const size_t len = std::min(batch, stream.edges.size() - i);
      chunk.assign(stream.edges.begin() + static_cast<ptrdiff_t>(i),
                   stream.edges.begin() + static_cast<ptrdiff_t>(i + len));
      ok = graph.AddEdgesBatch(chunk).ok && ok;
    }
    benchmark::DoNotOptimize(ok);
  }
  state.counters["edges"] = static_cast<double>(stream.edges.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.edges.size()));
}

void BM_AdmitPerEdgeOrdered(benchmark::State& state) {
  AdmitPerEdge(state, /*shuffled=*/false);
}
BENCHMARK(BM_AdmitPerEdgeOrdered);

void BM_AdmitPerEdgeShuffled(benchmark::State& state) {
  AdmitPerEdge(state, /*shuffled=*/true);
}
BENCHMARK(BM_AdmitPerEdgeShuffled);

void BM_AdmitBatchedOrdered(benchmark::State& state) {
  AdmitBatched(state, /*shuffled=*/false);
}
BENCHMARK(BM_AdmitBatchedOrdered)->Arg(64)->Arg(256);

void BM_AdmitBatchedShuffled(benchmark::State& state) {
  AdmitBatched(state, /*shuffled=*/true);
}
BENCHMARK(BM_AdmitBatchedShuffled)->Arg(64)->Arg(256);

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

void BM_IngestBatch(benchmark::State& state) {
  const bench::SyntheticBatch& batch = bench::CachedBatch(kZipfHundredths);
  const size_t batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    IncrementalCertifier cert(*batch.type, ConflictMode::kReadWrite);
    cert.IngestTraceBatched(batch.trace, batch_size);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(batch.trace.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.trace.size()));
}
BENCHMARK(BM_IngestBatch)->Arg(8)->Arg(64)->Arg(256)->Arg(2048);

// Pairing row for IngestBatchGc: per-event ingest at the same GC interval.
// GC itself is a huge win on this workload (retirement prunes the hot
// object's otherwise-quadratic frontier) — this row exists so that win is
// credited to the collector, not to batching.
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

void BM_IngestBatchGc(benchmark::State& state) {
  const bench::SyntheticBatch& batch = bench::CachedBatch(kZipfHundredths);
  const size_t batch_size = static_cast<size_t>(state.range(0));
  GcOptions gc;
  gc.interval = 1024;
  for (auto _ : state) {
    IncrementalCertifier cert(*batch.type, ConflictMode::kReadWrite, gc);
    cert.IngestTraceBatched(batch.trace, batch_size);
    benchmark::DoNotOptimize(cert.verdict());
  }
  state.counters["events"] = static_cast<double>(batch.trace.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.trace.size()));
}
BENCHMARK(BM_IngestBatchGc)->Arg(64)->Arg(256);

void BM_PipelineBatch(benchmark::State& state) {
  const bench::SyntheticBatch& batch = bench::CachedBatch(kZipfHundredths);
  const size_t batch_max = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ConcurrentIngestConfig config;
    config.num_shards = 4;
    config.seed = 1;
    config.batch_max = batch_max;
    ConcurrentIngestReport report = ConcurrentIngestPipeline::Run(
        *batch.type, batch.trace, ConflictMode::kReadWrite, config);
    benchmark::DoNotOptimize(report.ok());
  }
  state.counters["events"] = static_cast<double>(batch.trace.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.trace.size()));
}
BENCHMARK(BM_PipelineBatch)->Arg(0)->Arg(64)->Arg(256)->UseRealTime();

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
