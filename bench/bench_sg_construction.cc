// Experiment T1: serialization-graph construction cost vs trace length.
// Builds SG(serial(β)) for behaviors of growing size, under both the
// Section 4 read/write conflict relation and the Section 6 commutativity
// relation. Reports events processed per second and the edge counts.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sg/fast_graph.h"
#include "sg/graph.h"
#include "sg/reference.h"

namespace ntsg {
namespace {

void BM_SgBuild(benchmark::State& state, ConflictMode mode) {
  size_t toplevel = static_cast<size_t>(state.range(0));
  const QuickRunResult& run = bench::CachedRun(toplevel, Backend::kMoss);
  Trace serial = SerialPart(run.sim.trace);

  size_t conflict_edges = 0, precedes_edges = 0;
  for (auto _ : state) {
    SerializationGraph sg = SerializationGraph::Build(*run.type, serial, mode);
    conflict_edges = sg.conflict_edges().size();
    precedes_edges = sg.precedes_edges().size();
    benchmark::DoNotOptimize(sg);
  }
  state.counters["events"] = static_cast<double>(serial.size());
  state.counters["conflict_edges"] = static_cast<double>(conflict_edges);
  state.counters["precedes_edges"] = static_cast<double>(precedes_edges);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(serial.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SgBuildRw(benchmark::State& state) {
  BM_SgBuild(state, ConflictMode::kReadWrite);
}
void BM_SgBuildCommut(benchmark::State& state) {
  BM_SgBuild(state, ConflictMode::kCommutativity);
}

BENCHMARK(BM_SgBuildRw)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SgBuildCommut)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_CycleDetection(benchmark::State& state) {
  size_t toplevel = static_cast<size_t>(state.range(0));
  const QuickRunResult& run = bench::CachedRun(toplevel, Backend::kMoss);
  SerializationGraph sg = SerializationGraph::Build(
      *run.type, SerialPart(run.sim.trace), ConflictMode::kReadWrite);
  for (auto _ : state) {
    auto cycle = sg.FindCycle();
    benchmark::DoNotOptimize(cycle);
  }
  state.counters["edges"] = static_cast<double>(
      sg.conflict_edges().size() + sg.precedes_edges().size());
}

BENCHMARK(BM_CycleDetection)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// Ablation: the timeline-encoded acyclicity check avoids materializing the
// quadratic precedes relation (same verdict, O(n) timeline edges).
void BM_FastAcyclicity(benchmark::State& state) {
  size_t toplevel = static_cast<size_t>(state.range(0));
  const QuickRunResult& run = bench::CachedRun(toplevel, Backend::kMoss);
  Trace serial = SerialPart(run.sim.trace);
  FastSgReport report{};
  for (auto _ : state) {
    report = FastSgAcyclicity(*run.type, serial, ConflictMode::kReadWrite);
    benchmark::DoNotOptimize(report);
  }
  state.counters["timeline_edges"] =
      static_cast<double>(report.timeline_edge_count);
  state.counters["conflict_edges"] =
      static_cast<double>(report.conflict_edge_count);
}

BENCHMARK(BM_FastAcyclicity)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Experiment T10: the frontier fast path against the retained naive
// reference on the canonical 10k-op batch workload (64 objects, Zipf object
// popularity; arg = Zipf s in hundredths, 0 = uniform, 110 = skewed). The
// perf-regression gate (tools/check_bench_regression.py) reads the medians
// of these rows and enforces the >= 3x naive/fast ratio on the skewed
// workload.
void BM_SgBatchNaive(benchmark::State& state) {
  const bench::SyntheticBatch& batch =
      bench::CachedBatch(static_cast<int>(state.range(0)));
  Trace serial = SerialPart(batch.trace);
  size_t edges = 0;
  for (auto _ : state) {
    std::vector<SiblingEdge> conflict =
        NaiveConflictRelation(*batch.type, serial, ConflictMode::kReadWrite);
    edges = conflict.size();
    benchmark::DoNotOptimize(conflict);
  }
  state.counters["conflict_edges"] = static_cast<double>(edges);
}

void BM_SgBatchFast(benchmark::State& state) {
  const bench::SyntheticBatch& batch =
      bench::CachedBatch(static_cast<int>(state.range(0)));
  Trace serial = SerialPart(batch.trace);
  size_t edges = 0;
  for (auto _ : state) {
    std::vector<SiblingEdge> conflict =
        ConflictRelation(*batch.type, serial, ConflictMode::kReadWrite);
    edges = conflict.size();
    benchmark::DoNotOptimize(conflict);
  }
  state.counters["conflict_edges"] = static_cast<double>(edges);
}

BENCHMARK(BM_SgBatchNaive)->Arg(0)->Arg(110)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SgBatchFast)->Arg(0)->Arg(110)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
