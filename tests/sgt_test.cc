// Tests for the online SGT extension: the shared coordinator graph and the
// optimistic SGT object.

#include <gtest/gtest.h>

#include "checker/witness.h"
#include "sgt/coordinator.h"
#include "sgt/sgt_object.h"
#include "sim/driver.h"
#include "sim/program.h"

namespace ntsg {
namespace {

class SgtCoordinatorTest : public ::testing::Test {
 protected:
  SgtCoordinatorTest() : coordinator_(type_) {
    x_ = type_.AddObject(ObjectType::kReadWrite, "X", 0);
    y_ = type_.AddObject(ObjectType::kReadWrite, "Y", 0);
    t1_ = type_.NewChild(kT0);
    t2_ = type_.NewChild(kT0);
    a1x_ = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kRead, 0});
    a1y_ = type_.NewAccess(t1_, AccessSpec{y_, OpCode::kRead, 0});
    a2x_ = type_.NewAccess(t2_, AccessSpec{x_, OpCode::kWrite, 1});
    a2y_ = type_.NewAccess(t2_, AccessSpec{y_, OpCode::kWrite, 1});
  }

  SystemType type_;
  SgtCoordinator coordinator_;
  ObjectId x_, y_;
  TxName t1_, t2_, a1x_, a1y_, a2x_, a2y_;
};

TEST_F(SgtCoordinatorTest, SingleEdgeIsFine) {
  std::vector<SgtCoordinator::AccessConflict> c1 = {{a1x_, a2x_}};
  EXPECT_TRUE(coordinator_.WouldRemainAcyclic(c1));
  coordinator_.AddConflicts(c1);
  EXPECT_EQ(coordinator_.edge_count(), 1u);
}

TEST_F(SgtCoordinatorTest, OppositeEdgeClosesCycle) {
  coordinator_.AddConflicts({{a1x_, a2x_}});  // t1 -> t2.
  std::vector<SgtCoordinator::AccessConflict> back = {{a2y_, a1y_}};
  EXPECT_FALSE(coordinator_.WouldRemainAcyclic(back));  // t2 -> t1: cycle.
  // Same direction is still fine.
  EXPECT_TRUE(coordinator_.WouldRemainAcyclic({{a1y_, a2y_}}));
}

TEST_F(SgtCoordinatorTest, AbortRemovesSupportedEdges) {
  coordinator_.AddConflicts({{a1x_, a2x_}});
  EXPECT_FALSE(coordinator_.WouldRemainAcyclic({{a2y_, a1y_}}));
  coordinator_.OnAbort(t1_);  // Drops the t1->t2 edge.
  EXPECT_EQ(coordinator_.edge_count(), 0u);
  EXPECT_TRUE(coordinator_.WouldRemainAcyclic({{a2y_, a1y_}}));
}

TEST_F(SgtCoordinatorTest, SameParentConflictsMakeAccessLevelEdge) {
  // Two accesses under the same transaction are themselves siblings: the
  // edge lands in SG(beta, t1), between the accesses.
  TxName b1 = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kWrite, 2});
  coordinator_.AddConflicts({{a1x_, b1}});
  EXPECT_EQ(coordinator_.edge_count(), 1u);
  // The reverse direction at the same level would be a cycle.
  EXPECT_FALSE(coordinator_.WouldRemainAcyclic({{b1, a1x_}}));
}

TEST_F(SgtCoordinatorTest, NestedEdgesLandAtLca) {
  TxName p = type_.NewChild(kT0);
  TxName c1 = type_.NewChild(p);
  TxName c2 = type_.NewChild(p);
  TxName u1 = type_.NewAccess(c1, AccessSpec{x_, OpCode::kWrite, 1});
  TxName u2 = type_.NewAccess(c2, AccessSpec{x_, OpCode::kWrite, 2});
  coordinator_.AddConflicts({{u1, u2}});
  EXPECT_EQ(coordinator_.edge_count(), 1u);
  // A cycle within p's component is caught.
  TxName v1 = type_.NewAccess(c1, AccessSpec{y_, OpCode::kWrite, 1});
  TxName v2 = type_.NewAccess(c2, AccessSpec{y_, OpCode::kWrite, 2});
  EXPECT_FALSE(coordinator_.WouldRemainAcyclic({{v2, v1}}));
}

class SgtObjectTest : public ::testing::Test {
 protected:
  SgtObjectTest() : coordinator_(type_) {
    x_ = type_.AddObject(ObjectType::kReadWrite, "X", 0);
    t1_ = type_.NewChild(kT0);
    t2_ = type_.NewChild(kT0);
    r1_ = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kRead, 0});
    w2_ = type_.NewAccess(t2_, AccessSpec{x_, OpCode::kWrite, 1});
    r2_ = type_.NewAccess(t2_, AccessSpec{x_, OpCode::kRead, 0});
  }

  static std::optional<Value> ResponseFor(const SgtObject& obj,
                                          TxName access) {
    for (const Action& a : obj.EnabledOutputs()) {
      if (a.tx == access) return a.value;
    }
    return std::nullopt;
  }

  SystemType type_;
  SgtCoordinator coordinator_;
  ObjectId x_;
  TxName t1_, t2_, r1_, w2_, r2_;
};

TEST_F(SgtObjectTest, WriteProceedsPastLiveReaderWhereLockingBlocks) {
  SgtObject obj(type_, x_, &coordinator_);
  obj.Apply(Action::Create(r1_));
  obj.Apply(Action::RequestCommit(r1_, Value::Int(0)));
  // Moss would block w2 on r1's read lock; SGT lets it through with an
  // edge t1 -> t2.
  obj.Apply(Action::Create(w2_));
  auto v = ResponseFor(obj, w2_);
  ASSERT_TRUE(v.has_value());
  obj.Apply(Action::RequestCommit(w2_, Value::Ok()));
  EXPECT_EQ(coordinator_.edge_count(), 1u);
}

TEST_F(SgtObjectTest, ObserverStillBlockedOnDirtyData) {
  SgtObject obj(type_, x_, &coordinator_);
  obj.Apply(Action::Create(w2_));
  obj.Apply(Action::RequestCommit(w2_, Value::Ok()));
  // r1 would read t2's uncommitted write: blocked.
  obj.Apply(Action::Create(r1_));
  EXPECT_FALSE(ResponseFor(obj, r1_).has_value());
  // After t2's chain commits, the read proceeds with the new value.
  obj.Apply(Action::InformCommit(x_, w2_));
  obj.Apply(Action::InformCommit(x_, t2_));
  auto v = ResponseFor(obj, r1_);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, Value::Int(1));
}

TEST_F(SgtObjectTest, CycleClosingResponseStaysDisabled) {
  ObjectId y = type_.AddObject(ObjectType::kReadWrite, "Y", 0);
  TxName r1y = type_.NewAccess(t1_, AccessSpec{y, OpCode::kRead, 0});
  TxName w2y = type_.NewAccess(t2_, AccessSpec{y, OpCode::kWrite, 1});
  TxName w1x = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kWrite, 9});

  SgtObject obj_x(type_, x_, &coordinator_);
  SgtObject obj_y(type_, y, &coordinator_);

  // t1 reads Y, then t2 writes Y: edge t1 -> t2.
  obj_y.Apply(Action::Create(r1y));
  obj_y.Apply(Action::RequestCommit(r1y, Value::Int(0)));
  obj_y.Apply(Action::Create(w2y));
  auto vy = [&]() -> std::optional<Value> {
    for (const Action& a : obj_y.EnabledOutputs()) {
      if (a.tx == w2y) return a.value;
    }
    return std::nullopt;
  }();
  ASSERT_TRUE(vy.has_value());
  obj_y.Apply(Action::RequestCommit(w2y, Value::Ok()));

  // t2 reads X... no — t2 -> t1 edge needs an X conflict with t2's op
  // first. Let t2 read X, then t1 write X: that edge (t2 -> t1) would close
  // the cycle, so the write must stay disabled.
  obj_x.Apply(Action::Create(r2_));
  obj_x.Apply(Action::RequestCommit(r2_, Value::Int(0)));
  obj_x.Apply(Action::Create(w1x));
  EXPECT_FALSE(ResponseFor(obj_x, w1x).has_value());

  // Aborting t2 clears its edges and unblocks the write.
  obj_x.Apply(Action::InformAbort(x_, t2_));
  obj_y.Apply(Action::InformAbort(y, t2_));
  EXPECT_TRUE(ResponseFor(obj_x, w1x).has_value());
}

// Regression: with log compaction enabled inside SgtObject, conflict edges
// against fully-committed (compacted) operations were never proposed to the
// coordinator, so genuine serialization cycles slipped through. These seeds
// reproduced the escape before the fix (compaction is now disabled for SGT).
TEST(SgtRegressionTest, CompactedConflictsStillBlockCycles) {
  for (uint64_t seed : {102ull, 139ull, 158ull}) {
    ObjectType otype =
        seed % 2 ? ObjectType::kCounter : ObjectType::kBankAccount;
    SystemType type;
    for (int i = 0; i < 3; ++i) {
      type.AddObject(otype, "X" + std::to_string(i), 50);
    }
    Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
    ProgramGenParams gen;
    gen.depth = 2 + (seed % 2);
    gen.fanout = 3;
    gen.read_prob = 0.4;
    std::vector<std::unique_ptr<ProgramNode>> tops;
    for (int i = 0; i < 6; ++i) {
      tops.push_back(GenerateProgram(type, gen, rng));
    }
    Simulation sim(&type, MakePar(std::move(tops), 2));
    SimConfig config;
    config.backend = Backend::kSgt;
    config.seed = seed;
    config.spontaneous_abort_prob = 0.004;
    config.stall_policy = (seed % 3 == 0) ? StallPolicy::kAbortInnermost
                                          : StallPolicy::kAbortTopLevel;
    SimResult result = sim.Run(config);
    ASSERT_TRUE(result.stats.completed) << "seed " << seed;
    WitnessResult witness = CheckSeriallyCorrectForT0(type, result.trace);
    EXPECT_TRUE(witness.status.ok())
        << "seed " << seed << ": " << witness.status.ToString();
  }
}

}  // namespace
}  // namespace ntsg
