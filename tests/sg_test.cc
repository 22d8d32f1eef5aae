// Tests for the serialization graph construction (Section 4): the conflict
// and precedes relations, cycle detection, topological orders, and the
// Theorem 8 certifier on hand-built behaviors.

#include <gtest/gtest.h>

#include "sg/appropriate.h"
#include "sg/certifier.h"
#include "sg/fast_graph.h"
#include "sg/graph.h"

namespace ntsg {
namespace {

/// Two flat top-level transactions t1, t2 each with accesses to X and Y —
/// the classic setting for serializability anomalies.
class SgTest : public ::testing::Test {
 protected:
  SgTest() {
    x_ = type_.AddObject(ObjectType::kReadWrite, "X", 0);
    y_ = type_.AddObject(ObjectType::kReadWrite, "Y", 0);
    t1_ = type_.NewChild(kT0);
    t2_ = type_.NewChild(kT0);
    r1x_ = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kRead, 0});
    r1y_ = type_.NewAccess(t1_, AccessSpec{y_, OpCode::kRead, 0});
    w2x_ = type_.NewAccess(t2_, AccessSpec{x_, OpCode::kWrite, 1});
    w2y_ = type_.NewAccess(t2_, AccessSpec{y_, OpCode::kWrite, 1});
  }

  /// Full committed lifecycle for an access.
  void Run(Trace& beta, TxName access, Value v) {
    beta.push_back(Action::RequestCreate(access));
    beta.push_back(Action::Create(access));
    beta.push_back(Action::RequestCommit(access, v));
    beta.push_back(Action::Commit(access));
    beta.push_back(Action::ReportCommit(access, v));
  }

  void Open(Trace& beta, TxName t) {
    beta.push_back(Action::RequestCreate(t));
    beta.push_back(Action::Create(t));
  }

  void Close(Trace& beta, TxName t, int64_t v) {
    beta.push_back(Action::RequestCommit(t, Value::Int(v)));
    beta.push_back(Action::Commit(t));
    beta.push_back(Action::ReportCommit(t, Value::Int(v)));
  }

  SystemType type_;
  ObjectId x_, y_;
  TxName t1_, t2_, r1x_, r1y_, w2x_, w2y_;
};

TEST_F(SgTest, NonSerializableInterleavingHasCycle) {
  // r1(X) w2(X) w2(Y) r1(Y): T1 reads X before T2's write but Y after.
  Trace beta;
  Open(beta, t1_);
  Open(beta, t2_);
  Run(beta, r1x_, Value::Int(0));
  Run(beta, w2x_, Value::Ok());
  Run(beta, w2y_, Value::Ok());
  Close(beta, t2_, 2);
  Run(beta, r1y_, Value::Int(1));
  Close(beta, t1_, 2);

  auto conflicts = ConflictRelation(type_, beta, ConflictMode::kReadWrite);
  // Edges: t1 -> t2 via X (read before write), t2 -> t1 via Y.
  bool t1t2 = false, t2t1 = false;
  for (const SiblingEdge& e : conflicts) {
    EXPECT_EQ(e.parent, kT0);
    if (e.from == t1_ && e.to == t2_) t1t2 = true;
    if (e.from == t2_ && e.to == t1_) t2t1 = true;
  }
  EXPECT_TRUE(t1t2);
  EXPECT_TRUE(t2t1);

  SerializationGraph sg =
      SerializationGraph::Build(type_, beta, ConflictMode::kReadWrite);
  auto cycle = sg.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 2u);

  CertifierReport report =
      CertifySeriallyCorrect(type_, beta, ConflictMode::kReadWrite);
  EXPECT_FALSE(report.status.ok());
  EXPECT_TRUE(report.appropriate_return_values);  // Values are fine...
  EXPECT_FALSE(report.graph_acyclic);             // ...the order is not.
}

TEST_F(SgTest, SerialInterleavingIsCertified) {
  // T1 runs entirely before T2.
  Trace beta;
  Open(beta, t1_);
  Run(beta, r1x_, Value::Int(0));
  Run(beta, r1y_, Value::Int(0));
  Close(beta, t1_, 2);
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  Run(beta, w2y_, Value::Ok());
  Close(beta, t2_, 2);

  CertifierReport report =
      CertifySeriallyCorrect(type_, beta, ConflictMode::kReadWrite);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GT(report.conflict_edge_count, 0u);

  auto fast = FastTopologicalOrders(type_, beta, ConflictMode::kReadWrite);
  ASSERT_TRUE(fast.has_value());
  auto orders = *fast;
  ASSERT_TRUE(orders.count(kT0));
  ASSERT_EQ(orders[kT0].size(), 2u);
  EXPECT_EQ(orders[kT0][0], t1_);
  EXPECT_EQ(orders[kT0][1], t2_);
}

TEST_F(SgTest, ConflictsIgnoreNonVisibleOperations) {
  // t2's accesses respond but t2 never commits: no visible conflict.
  Trace beta;
  Open(beta, t1_);
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  Run(beta, r1x_, Value::Int(0));  // Not current, but t2 is invisible.
  Close(beta, t1_, 1);

  auto conflicts = ConflictRelation(type_, beta, ConflictMode::kReadWrite);
  EXPECT_TRUE(conflicts.empty());
}

TEST_F(SgTest, StaleReadIsNotAppropriate) {
  // t2 commits a write of X, then t1 reads the stale initial value.
  Trace beta;
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  Close(beta, t2_, 1);
  Open(beta, t1_);
  Run(beta, r1x_, Value::Int(0));  // Should have read 1.
  Close(beta, t1_, 1);

  EXPECT_FALSE(CheckAppropriateReturnValuesRw(type_, beta).ok());
  EXPECT_FALSE(CheckAppropriateReturnValuesGeneral(type_, beta).ok());
  CertifierReport report =
      CertifySeriallyCorrect(type_, beta, ConflictMode::kReadWrite);
  EXPECT_FALSE(report.status.ok());
  EXPECT_FALSE(report.appropriate_return_values);
}

TEST_F(SgTest, RwAndGeneralAppropriatenessAgree) {
  // Lemma 5: on read/write systems the two formulations coincide.
  Trace beta;
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  Close(beta, t2_, 1);
  Open(beta, t1_);
  Run(beta, r1x_, Value::Int(1));
  Run(beta, r1y_, Value::Int(0));
  Close(beta, t1_, 2);

  EXPECT_TRUE(CheckAppropriateReturnValuesRw(type_, beta).ok());
  EXPECT_TRUE(CheckAppropriateReturnValuesGeneral(type_, beta).ok());
}

TEST_F(SgTest, PrecedesFromReportBeforeRequestCreate) {
  Trace beta;
  Open(beta, t1_);
  Run(beta, r1x_, Value::Int(0));
  Close(beta, t1_, 1);
  // T0 saw t1's report before requesting t2.
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  Close(beta, t2_, 1);

  auto precedes = PrecedesRelation(type_, beta);
  ASSERT_EQ(precedes.size(), 1u);
  EXPECT_EQ(precedes[0].from, t1_);
  EXPECT_EQ(precedes[0].to, t2_);
  EXPECT_EQ(precedes[0].parent, kT0);
}

TEST_F(SgTest, PrecedesAfterAbortReport) {
  Trace beta;
  beta.push_back(Action::RequestCreate(t1_));
  beta.push_back(Action::Abort(t1_));
  beta.push_back(Action::ReportAbort(t1_));
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  Close(beta, t2_, 1);

  auto precedes = PrecedesRelation(type_, beta);
  ASSERT_EQ(precedes.size(), 1u);
  EXPECT_EQ(precedes[0].from, t1_);
  EXPECT_EQ(precedes[0].to, t2_);
}

TEST_F(SgTest, CurrentAndSafeChecks) {
  // A dirty read: t1 reads t2's uncommitted write.
  Trace beta;
  Open(beta, t1_);
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  // t1 reads value 1 written by live (non-ancestor) t2: current, NOT safe.
  size_t read_pos = beta.size() + 2;  // request_create, create, then RC.
  Run(beta, r1x_, Value::Int(1));
  EXPECT_TRUE(IsCurrentReadEvent(type_, beta, read_pos));
  EXPECT_FALSE(IsSafeReadEvent(type_, beta, read_pos));

  // Stale read of 0 instead: safe (no visible writer needed)... but not
  // current.
  Trace beta2;
  Open(beta2, t1_);
  Open(beta2, t2_);
  Run(beta2, w2x_, Value::Ok());
  size_t read_pos2 = beta2.size() + 2;
  Run(beta2, r1x_, Value::Int(0));
  EXPECT_FALSE(IsCurrentReadEvent(type_, beta2, read_pos2));
}

TEST_F(SgTest, CurrentAfterAbortRevertsValue) {
  // t2 writes, then aborts; a subsequent read of the initial value is
  // current (clean-final-value ignores orphans).
  Trace beta;
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  beta.push_back(Action::Abort(t2_));
  Open(beta, t1_);
  size_t read_pos = beta.size() + 2;
  Run(beta, r1x_, Value::Int(0));
  EXPECT_TRUE(IsCurrentReadEvent(type_, beta, read_pos));
  EXPECT_TRUE(IsSafeReadEvent(type_, beta, read_pos));
}

TEST_F(SgTest, GraphDotRendering) {
  Trace beta;
  Open(beta, t1_);
  Run(beta, r1x_, Value::Int(0));
  Close(beta, t1_, 1);
  Open(beta, t2_);
  Run(beta, w2x_, Value::Ok());
  Close(beta, t2_, 1);
  SerializationGraph sg =
      SerializationGraph::Build(type_, beta, ConflictMode::kReadWrite);
  std::string dot = sg.ToDot(type_);
  EXPECT_NE(dot.find("digraph SG"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST_F(SgTest, EmptyTraceIsTriviallyCertified) {
  Trace beta;
  CertifierReport report =
      CertifySeriallyCorrect(type_, beta, ConflictMode::kCommutativity);
  EXPECT_TRUE(report.status.ok());
  EXPECT_EQ(report.conflict_edge_count, 0u);
  EXPECT_EQ(report.precedes_edge_count, 0u);
}

TEST_F(SgTest, CommutativityModeDropsSameValueWriteEdges) {
  // Two committed writes of the same value: Section 4 sees a conflict edge,
  // Section 6 does not.
  TxName w1x = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kWrite, 1});
  Trace beta;
  Open(beta, t1_);
  Open(beta, t2_);
  Run(beta, w1x, Value::Ok());
  Run(beta, w2x_, Value::Ok());
  Close(beta, t1_, 1);
  Close(beta, t2_, 1);

  EXPECT_EQ(ConflictRelation(type_, beta, ConflictMode::kReadWrite).size(),
            1u);
  EXPECT_TRUE(
      ConflictRelation(type_, beta, ConflictMode::kCommutativity).empty());
}

/// Nested case: conflicts between cousins must surface at the lca's level.
TEST(SgNestedTest, EdgeAtLcaLevel) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName p = type.NewChild(kT0);
  TxName c1 = type.NewChild(p);
  TxName c2 = type.NewChild(p);
  TxName w1 = type.NewAccess(c1, AccessSpec{x, OpCode::kWrite, 1});
  TxName w2 = type.NewAccess(c2, AccessSpec{x, OpCode::kWrite, 2});

  Trace beta;
  for (TxName t : {p, c1}) {
    beta.push_back(Action::RequestCreate(t));
    beta.push_back(Action::Create(t));
  }
  beta.push_back(Action::RequestCreate(c2));
  beta.push_back(Action::Create(c2));
  for (TxName w : {w1, w2}) {
    beta.push_back(Action::RequestCreate(w));
    beta.push_back(Action::Create(w));
    beta.push_back(Action::RequestCommit(w, Value::Ok()));
    beta.push_back(Action::Commit(w));
    beta.push_back(Action::ReportCommit(w, Value::Ok()));
  }
  for (TxName t : {c1, c2}) {
    beta.push_back(Action::RequestCommit(t, Value::Int(1)));
    beta.push_back(Action::Commit(t));
    beta.push_back(Action::ReportCommit(t, Value::Int(1)));
  }
  beta.push_back(Action::RequestCommit(p, Value::Int(2)));
  beta.push_back(Action::Commit(p));

  auto conflicts = ConflictRelation(type, beta, ConflictMode::kReadWrite);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].parent, p);
  EXPECT_EQ(conflicts[0].from, c1);
  EXPECT_EQ(conflicts[0].to, c2);
}

}  // namespace
}  // namespace ntsg
