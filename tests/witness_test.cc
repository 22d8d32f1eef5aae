// Tests for the witness checker (the constructive side of Theorem 8's
// proof), the projection-equality oracle, the exhaustive checker, and the
// suitability validation of derived sibling orders.

#include <gtest/gtest.h>

#include "checker/brute_force.h"
#include "checker/oracle.h"
#include "checker/witness.h"
#include "serial/validator.h"
#include "sg/affects.h"
#include "sg/fast_graph.h"
#include "sim/driver.h"
#include "tx/trace_checks.h"

namespace ntsg {
namespace {

class WitnessTest : public ::testing::Test {
 protected:
  WitnessTest() {
    x_ = type_.AddObject(ObjectType::kReadWrite, "X", 0);
    t1_ = type_.NewChild(kT0);
    t2_ = type_.NewChild(kT0);
    w1_ = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kWrite, 5});
    r2_ = type_.NewAccess(t2_, AccessSpec{x_, OpCode::kRead, 0});
  }

  void Open(Trace& beta, TxName t) {
    beta.push_back(Action::RequestCreate(t));
    beta.push_back(Action::Create(t));
  }

  void Run(Trace& beta, TxName access, Value v) {
    beta.push_back(Action::RequestCreate(access));
    beta.push_back(Action::Create(access));
    beta.push_back(Action::RequestCommit(access, v));
    beta.push_back(Action::Commit(access));
    beta.push_back(Action::ReportCommit(access, v));
  }

  void Close(Trace& beta, TxName t, int64_t v) {
    beta.push_back(Action::RequestCommit(t, Value::Int(v)));
    beta.push_back(Action::Commit(t));
    beta.push_back(Action::ReportCommit(t, Value::Int(v)));
  }

  SystemType type_;
  ObjectId x_;
  TxName t1_, t2_, w1_, r2_;
};

TEST_F(WitnessTest, InterleavedButSerializableRunYieldsWitness) {
  // t1 and t2 interleave at the top but are serializable as t1 < t2.
  Trace beta;
  Open(beta, t1_);
  Open(beta, t2_);
  Run(beta, w1_, Value::Ok());
  Close(beta, t1_, 1);
  Run(beta, r2_, Value::Int(5));  // Reads t1's committed write.
  Close(beta, t2_, 1);

  WitnessResult result = CheckSeriallyCorrectForT0(type_, beta);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  // The witness is itself a valid serial behavior with matching T0 view.
  EXPECT_TRUE(ValidateSerialBehavior(type_, result.witness).ok());
  EXPECT_EQ(ProjectTransaction(type_, result.witness, kT0),
            ProjectTransaction(type_, beta, kT0));
  // And the runs appear serially: t1's subtree strictly before t2's.
  bool seen_t2_create = false;
  for (const Action& a : result.witness) {
    if (a.kind == ActionKind::kCreate && a.tx == t2_) seen_t2_create = true;
    if (a.kind == ActionKind::kCommit && a.tx == t1_) {
      EXPECT_FALSE(seen_t2_create);
    }
  }
}

TEST_F(WitnessTest, StaleReadHasNoWitness) {
  // r2 reads 0 after t1 committed writing 5: no serial order can explain it
  // (precedes forces t1 before t2).
  Trace beta;
  Open(beta, t1_);
  Run(beta, w1_, Value::Ok());
  Close(beta, t1_, 1);
  Open(beta, t2_);
  Run(beta, r2_, Value::Int(0));
  Close(beta, t2_, 1);

  WitnessResult result = CheckSeriallyCorrectForT0(type_, beta);
  EXPECT_FALSE(result.status.ok());

  // The exhaustive checker agrees: no sibling order works.
  WitnessResult ex = ExhaustiveSerialCheck(type_, beta);
  EXPECT_FALSE(ex.status.ok());
}

TEST_F(WitnessTest, AbortedTopLevelAppearsOnlyAsAbort) {
  Trace beta;
  beta.push_back(Action::RequestCreate(t1_));
  beta.push_back(Action::Abort(t1_));
  beta.push_back(Action::ReportAbort(t1_));
  Open(beta, t2_);
  Run(beta, r2_, Value::Int(0));
  Close(beta, t2_, 1);

  WitnessResult result = CheckSeriallyCorrectForT0(type_, beta);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  for (const Action& a : result.witness) {
    EXPECT_FALSE(a.kind == ActionKind::kCreate && a.tx == t1_);
  }
}

TEST_F(WitnessTest, AbortedAfterCreationStillWitnessable) {
  // t1 is created, its access responds, then t1 aborts (allowed in generic
  // systems): the witness simply never runs t1.
  Trace beta;
  Open(beta, t1_);
  Open(beta, t2_);
  beta.push_back(Action::RequestCreate(w1_));
  beta.push_back(Action::Create(w1_));
  beta.push_back(Action::RequestCommit(w1_, Value::Ok()));
  beta.push_back(Action::Abort(t1_));
  beta.push_back(Action::ReportAbort(t1_));
  Run(beta, r2_, Value::Int(0));  // Sees no trace of the orphan write.
  Close(beta, t2_, 1);

  WitnessResult result = CheckSeriallyCorrectForT0(type_, beta);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
}

TEST_F(WitnessTest, ReportOrderAgainstSerializationOrderIsHandled) {
  // t2 must serialize before t1 (t1 reads t2's write), but T0 hears t1's
  // report first. The witness must splice runs accordingly.
  TxName r1 = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kRead, 0});
  TxName w2 = type_.NewAccess(t2_, AccessSpec{x_, OpCode::kWrite, 9});
  Trace beta;
  Open(beta, t1_);
  Open(beta, t2_);
  // w2 responds and t2 commits entirely before r1's read...
  beta.push_back(Action::RequestCreate(w2));
  beta.push_back(Action::Create(w2));
  beta.push_back(Action::RequestCommit(w2, Value::Ok()));
  beta.push_back(Action::Commit(w2));
  beta.push_back(Action::ReportCommit(w2, Value::Ok()));
  beta.push_back(Action::RequestCommit(t2_, Value::Int(1)));
  beta.push_back(Action::Commit(t2_));
  // ... r1 reads 9, t1 commits, and T0 hears t1 BEFORE t2.
  beta.push_back(Action::RequestCreate(r1));
  beta.push_back(Action::Create(r1));
  beta.push_back(Action::RequestCommit(r1, Value::Int(9)));
  beta.push_back(Action::Commit(r1));
  beta.push_back(Action::ReportCommit(r1, Value::Int(9)));
  beta.push_back(Action::RequestCommit(t1_, Value::Int(1)));
  beta.push_back(Action::Commit(t1_));
  beta.push_back(Action::ReportCommit(t1_, Value::Int(1)));
  beta.push_back(Action::ReportCommit(t2_, Value::Int(1)));

  WitnessResult result = CheckSeriallyCorrectForT0(type_, beta);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // t2's run must precede t1's in the witness even though reports reverse.
  size_t commit1 = 0, commit2 = 0;
  for (size_t i = 0; i < result.witness.size(); ++i) {
    if (result.witness[i] == Action::Commit(t1_)) commit1 = i;
    if (result.witness[i] == Action::Commit(t2_)) commit2 = i;
  }
  EXPECT_LT(commit2, commit1);
}

TEST_F(WitnessTest, OracleComparesProjections) {
  Trace beta;
  Open(beta, t1_);
  Run(beta, w1_, Value::Ok());
  Close(beta, t1_, 1);
  ProjectionEqualityOracle oracle(type_, beta);
  EXPECT_TRUE(oracle
                  .ValidateProjection(type_, t1_,
                                      ProjectTransaction(type_, beta, t1_))
                  .ok());
  Trace wrong = ProjectTransaction(type_, beta, t1_);
  wrong.pop_back();
  EXPECT_FALSE(oracle.ValidateProjection(type_, t1_, wrong).ok());
}

TEST_F(WitnessTest, SuitabilityOfDerivedOrders) {
  // On a real simulated run, the SG topological order must be a suitable
  // sibling order for β and T0 (the paper's precondition for Theorem 2).
  QuickRunParams params;
  params.config.backend = Backend::kMoss;
  params.config.seed = 7;
  params.num_objects = 2;
  params.num_toplevel = 4;
  params.gen.depth = 2;
  params.gen.fanout = 2;
  QuickRunResult run = QuickRun(params);
  Trace serial = SerialPart(run.sim.trace);
  auto orders =
      FastTopologicalOrders(*run.type, serial, ConflictMode::kCommutativity);
  ASSERT_TRUE(orders.has_value());

  // Extend the topological orders to cover *all* committed visible sibling
  // pairs (nodes without edges are unordered in the topo map): append
  // missing children deterministically, as the witness comparator does.
  TraceIndex index(*run.type, serial);
  std::map<TxName, std::vector<TxName>> full = *orders;
  std::set<TxName> seen;
  for (const Action& a : serial) {
    if (a.kind != ActionKind::kCommit || !seen.insert(a.tx).second) continue;
    if (!index.IsVisible(a.tx, kT0)) continue;
    TxName p = run.type->parent(a.tx);
    auto& v = full[p];
    if (std::find(v.begin(), v.end(), a.tx) == v.end()) v.push_back(a.tx);
  }
  Status s = CheckSuitability(*run.type, run.sim.trace, full);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ExhaustiveTest, AgreesWithSgCheckerOnSmallRuns) {
  // On small simulated runs, the SG-derived witness and the exhaustive
  // search must agree (both succeed for correct backends).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    QuickRunParams params;
    params.config.backend = Backend::kMoss;
    params.config.seed = seed;
    params.num_objects = 2;
    params.num_toplevel = 3;
    params.gen.depth = 1;
    params.gen.fanout = 2;
    QuickRunResult run = QuickRun(params);
    WitnessResult via_sg = CheckSeriallyCorrectForT0(*run.type, run.sim.trace);
    WitnessResult via_ex = ExhaustiveSerialCheck(*run.type, run.sim.trace);
    EXPECT_TRUE(via_sg.status.ok()) << via_sg.status.ToString();
    EXPECT_TRUE(via_ex.status.ok()) << via_ex.status.ToString();
  }
}

TEST(ExhaustiveTest, BailsOutWhenTooLarge) {
  QuickRunParams params;
  params.config.backend = Backend::kMoss;
  params.config.seed = 3;
  params.num_objects = 4;
  params.num_toplevel = 12;
  params.gen.depth = 2;
  params.gen.fanout = 3;
  QuickRunResult run = QuickRun(params);
  WitnessResult r = ExhaustiveSerialCheck(*run.type, run.sim.trace,
                                          /*max_combinations=*/10);
  EXPECT_EQ(r.status.code(), Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace ntsg
