// Experiment F5: cost of the exact serial-correctness check — constructing
// and validating an explicit serial witness — as the number of committed
// transactions grows, compared against the certifier-only path (T2) it
// strengthens. The sibling orders come from the timeline-encoded graph
// (FastTopologicalOrders).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "checker/witness.h"
#include "sg/fast_graph.h"

namespace ntsg {
namespace {

void BM_WitnessEndToEnd(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  size_t witness_events = 0;
  for (auto _ : state) {
    WitnessResult result = CheckSeriallyCorrectForT0(*run.type, run.sim.trace);
    benchmark::DoNotOptimize(result);
    witness_events = result.witness.size();
  }
  state.counters["behavior_events"] =
      static_cast<double>(run.sim.trace.size());
  state.counters["witness_events"] = static_cast<double>(witness_events);
}

void BM_WitnessBuildOnly(benchmark::State& state) {
  const QuickRunResult& run =
      bench::CachedRun(static_cast<size_t>(state.range(0)), Backend::kMoss);
  Trace serial = SerialPart(run.sim.trace);
  auto orders =
      *FastTopologicalOrders(*run.type, serial, ConflictMode::kCommutativity);
  for (auto _ : state) {
    WitnessResult result = BuildAndCheckWitness(*run.type, serial, orders);
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_WitnessEndToEnd)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WitnessBuildOnly)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ntsg

NTSG_BENCH_MAIN();
