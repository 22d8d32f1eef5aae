// End-to-end sweeps over arbitrary data types (Section 6): the undo-logging
// and SGT backends must produce serially correct behaviors on counters,
// sets, queues, bank accounts, and mixed-type systems, under failure
// injection. Also sanity-checks the negative direction: the broken undo
// object is caught on counter workloads.

#include <gtest/gtest.h>

#include "checker/witness.h"
#include "sg/certifier.h"
#include "sim/driver.h"
#include "tx/trace_checks.h"

namespace ntsg {
namespace {

class DataTypeSweep
    : public ::testing::TestWithParam<std::tuple<Backend, ObjectType, uint64_t>> {};

TEST_P(DataTypeSweep, RunsAreSeriallyCorrect) {
  auto [backend, otype, seed] = GetParam();

  QuickRunParams params;
  params.config.backend = backend;
  params.config.seed = seed;
  params.config.spontaneous_abort_prob = 0.003;
  params.num_objects = 3;
  params.object_type = otype;
  params.initial_value = 40;  // Plenty of balance/stock for withdrawals.
  params.num_toplevel = 6;
  params.gen.depth = 2;
  params.gen.fanout = 3;
  params.gen.read_prob = 0.4;
  params.gen.max_arg = 8;

  QuickRunResult result = QuickRun(params);
  const SystemType& type = *result.type;
  const Trace& beta = result.sim.trace;

  ASSERT_TRUE(result.sim.stats.completed);
  Status simple = CheckSimpleBehavior(type, beta);
  EXPECT_TRUE(simple.ok()) << simple.ToString();

  CertifierReport report =
      CertifySeriallyCorrect(type, beta, ConflictMode::kCommutativity);
  EXPECT_TRUE(report.status.ok())
      << BackendName(backend) << "/" << ObjectTypeName(otype) << " seed "
      << seed << ": " << report.status.ToString();

  WitnessResult witness = CheckSeriallyCorrectForT0(type, beta);
  EXPECT_TRUE(witness.status.ok()) << witness.status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndBackends, DataTypeSweep,
    ::testing::Combine(::testing::Values(Backend::kUndo, Backend::kSgt),
                       ::testing::Values(ObjectType::kCounter,
                                         ObjectType::kSet, ObjectType::kQueue,
                                         ObjectType::kBankAccount),
                       ::testing::Range<uint64_t>(1, 6)));

TEST(MixedTypeSystemTest, HeterogeneousObjectsVerify) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SystemType type;
    type.AddObject(ObjectType::kReadWrite, "reg", 0);
    type.AddObject(ObjectType::kCounter, "cnt", 10);
    type.AddObject(ObjectType::kSet, "set", 0);
    type.AddObject(ObjectType::kBankAccount, "acct", 50);

    Rng rng(seed);
    ProgramGenParams gen;
    gen.depth = 2;
    gen.fanout = 3;
    gen.read_prob = 0.4;
    gen.max_arg = 6;
    std::vector<std::unique_ptr<ProgramNode>> tops;
    for (int i = 0; i < 6; ++i) {
      tops.push_back(GenerateProgram(type, gen, rng));
    }
    Simulation sim(&type, MakePar(std::move(tops), 2));
    SimConfig config;
    config.backend = Backend::kUndo;
    config.seed = seed * 7919;
    config.spontaneous_abort_prob = 0.004;
    SimResult result = sim.Run(config);
    ASSERT_TRUE(result.stats.completed);

    CertifierReport report = CertifySeriallyCorrect(
        type, result.trace, ConflictMode::kCommutativity);
    EXPECT_TRUE(report.status.ok()) << "seed " << seed << ": "
                                    << report.status.ToString();
    WitnessResult witness = CheckSeriallyCorrectForT0(type, result.trace);
    EXPECT_TRUE(witness.status.ok()) << witness.status.ToString();
  }
}

TEST(MixedTypeSystemTest, InnermostStallPolicyStaysCorrect) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    QuickRunParams params;
    params.config.backend = Backend::kMoss;
    params.config.seed = seed;
    params.config.stall_policy = StallPolicy::kAbortInnermost;
    params.num_objects = 2;
    params.num_toplevel = 6;
    params.gen.depth = 2;
    params.gen.fanout = 3;
    params.gen.child_retries = 1;
    QuickRunResult result = QuickRun(params);
    ASSERT_TRUE(result.sim.stats.completed) << "seed " << seed;
    WitnessResult witness =
        CheckSeriallyCorrectForT0(*result.type, result.sim.trace);
    EXPECT_TRUE(witness.status.ok()) << witness.status.ToString();
  }
}

// The adversarial regime that exposed the SGT compaction escape: depth-3
// trees, inner retries, heavy failure injection, innermost stall aborts,
// heterogeneous objects — kept as a standing guard across all correct
// backends (see also SgtRegressionTest for the original failing seeds).
class AdversarialRegimeSweep
    : public ::testing::TestWithParam<std::tuple<Backend, uint64_t>> {};

TEST_P(AdversarialRegimeSweep, DeepFailingRunsStaySeriallyCorrect) {
  auto [backend, seed] = GetParam();
  SystemType type;
  bool rw_only = backend == Backend::kMoss;
  if (rw_only) {
    for (int i = 0; i < 2; ++i) {
      type.AddObject(ObjectType::kReadWrite, "X" + std::to_string(i), 5);
    }
  } else {
    type.AddObject(ObjectType::kCounter, "c", 30);
    type.AddObject(ObjectType::kQueue, "q", 0);
    type.AddObject(ObjectType::kSet, "s", 0);
    type.AddObject(ObjectType::kBankAccount, "b", 60);
  }
  Rng rng(seed * 2654435761u);
  ProgramGenParams gen;
  gen.depth = 3;
  gen.fanout = 2;
  gen.early_access_prob = 0.3;
  gen.child_retries = 1;
  gen.read_prob = 0.35;
  gen.max_arg = 5;
  std::vector<std::unique_ptr<ProgramNode>> tops;
  for (int i = 0; i < 5; ++i) tops.push_back(GenerateProgram(type, gen, rng));
  Simulation sim(&type, MakePar(std::move(tops), 2));
  SimConfig config;
  config.backend = backend;
  config.seed = seed;
  config.spontaneous_abort_prob = 0.01;
  config.stall_policy = StallPolicy::kAbortInnermost;
  SimResult result = sim.Run(config);
  ASSERT_TRUE(result.stats.completed);
  EXPECT_TRUE(CheckSimpleBehavior(type, result.trace).ok());
  WitnessResult witness = CheckSeriallyCorrectForT0(type, result.trace);
  EXPECT_TRUE(witness.status.ok())
      << BackendName(backend) << " seed " << seed << ": "
      << witness.status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    DeepMixed, AdversarialRegimeSweep,
    ::testing::Combine(::testing::Values(Backend::kMoss, Backend::kUndo,
                                         Backend::kSgt,
                                         Backend::kGeneralLocking),
                       ::testing::Range<uint64_t>(500, 506)));

TEST(BrokenUndoTest, CaughtOnCounterWorkloads) {
  size_t detected = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    QuickRunParams params;
    params.config.backend = Backend::kNoCommuteUndo;
    params.config.seed = seed;
    params.config.spontaneous_abort_prob = 0.01;
    params.num_objects = 2;
    params.object_type = ObjectType::kCounter;
    params.num_toplevel = 6;
    params.gen.depth = 2;
    params.gen.fanout = 3;
    params.gen.read_prob = 0.4;
    QuickRunResult result = QuickRun(params);
    WitnessResult witness =
        CheckSeriallyCorrectForT0(*result.type, result.sim.trace);
    if (!witness.status.ok()) ++detected;
  }
  EXPECT_GT(detected, 0u);
}

}  // namespace
}  // namespace ntsg
