// Coverage fills: value/action semantics, rendering, graph determinism,
// witness negative paths, and driver edge cases not covered elsewhere.

#include <gtest/gtest.h>

#include "checker/witness.h"
#include "sg/fast_graph.h"
#include "sg/graph.h"
#include "sim/driver.h"
#include "tx/action.h"
#include "tx/value.h"

namespace ntsg {
namespace {

TEST(ValueTest, OkAndIntSemantics) {
  EXPECT_TRUE(Value().is_ok());
  EXPECT_TRUE(Value::Ok() == Value());
  EXPECT_FALSE(Value::Int(0) == Value::Ok());
  EXPECT_TRUE(Value::Int(3) == Value::Int(3));
  EXPECT_FALSE(Value::Int(3) == Value::Int(4));
  EXPECT_TRUE(Value::Int(3) != Value::Int(4));
  EXPECT_EQ(Value::Ok().ToString(), "OK");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
}

TEST(ValueTest, OrderingIsStrictWeak) {
  std::vector<Value> values = {Value::Ok(), Value::Int(-1), Value::Int(0),
                               Value::Int(5)};
  for (const Value& a : values) {
    EXPECT_FALSE(a < a);  // Irreflexive.
    for (const Value& b : values) {
      if (a == b) continue;
      EXPECT_NE(a < b, b < a);  // Antisymmetric on distinct values.
    }
  }
  EXPECT_TRUE(Value::Ok() < Value::Int(-100));  // OK sorts first.
}

TEST(ActionTest, FactoriesAndPredicates) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName t = type.NewChild(kT0);
  TxName a = type.NewAccess(t, AccessSpec{x, OpCode::kWrite, 1});

  EXPECT_TRUE(Action::Create(t).IsSerial());
  EXPECT_FALSE(Action::InformCommit(x, t).IsSerial());
  EXPECT_TRUE(Action::Commit(t).IsCompletion());
  EXPECT_TRUE(Action::Abort(t).IsCompletion());
  EXPECT_FALSE(Action::ReportAbort(t).IsCompletion());

  // ToString renders the essentials.
  std::string s = Action::RequestCommit(a, Value::Int(7)).ToString(type);
  EXPECT_NE(s.find("REQUEST_COMMIT"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
  std::string inf = Action::InformAbort(x, t).ToString(type);
  EXPECT_NE(inf.find("INFORM_ABORT"), std::string::npos);
  EXPECT_NE(inf.find("X"), std::string::npos);
}

TEST(ActionTest, OrderingDistinguishesAllFields) {
  SystemType type;
  TxName t1 = type.NewChild(kT0);
  TxName t2 = type.NewChild(kT0);
  std::vector<Action> actions = {
      Action::Create(t1), Action::Create(t2), Action::Commit(t1),
      Action::RequestCommit(t1, Value::Ok()),
      Action::RequestCommit(t1, Value::Int(1))};
  for (const Action& a : actions) {
    EXPECT_FALSE(a < a);
    for (const Action& b : actions) {
      if (a == b) continue;
      EXPECT_TRUE((a < b) != (b < a));
    }
  }
}

TEST(GraphTest, TopologicalOrdersAreDeterministic) {
  // Two readers of X and a writer, all requested before any runs: the
  // conflict edges a -> c and b -> c leave a and b tied.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName a = type.NewAccess(kT0, AccessSpec{x, OpCode::kRead, 0});
  TxName b = type.NewAccess(kT0, AccessSpec{x, OpCode::kRead, 0});
  TxName c = type.NewAccess(kT0, AccessSpec{x, OpCode::kWrite, 1});
  Trace beta;
  for (TxName t : {a, b, c}) beta.push_back(Action::RequestCreate(t));
  for (TxName t : {b, a, c}) {
    Value v = t == c ? Value::Ok() : Value::Int(0);
    beta.push_back(Action::Create(t));
    beta.push_back(Action::RequestCommit(t, v));
    beta.push_back(Action::Commit(t));
    beta.push_back(Action::ReportCommit(t, v));
  }
  auto o1 = FastTopologicalOrders(type, beta, ConflictMode::kReadWrite);
  auto o2 = FastTopologicalOrders(type, beta, ConflictMode::kReadWrite);
  ASSERT_TRUE(o1.has_value());
  EXPECT_EQ(o1, o2);
  ASSERT_EQ((*o1)[kT0].size(), 3u);
  EXPECT_EQ((*o1)[kT0][2], c);  // Sink last; a/b tie broken by name.
  EXPECT_EQ((*o1)[kT0][0], a);
}

TEST(GraphTest, ParentsListsComponents) {
  SystemType type;
  TxName p = type.NewChild(kT0);
  TxName c1 = type.NewChild(p);
  TxName c2 = type.NewChild(p);
  TxName q1 = type.NewChild(kT0);
  TxName q2 = type.NewChild(kT0);
  auto g = SerializationGraph::FromEdges({{p, c1, c2}}, {{kT0, q1, q2}});
  auto parents = g.Parents();
  EXPECT_EQ(parents.size(), 2u);
}

TEST(WitnessNegativeTest, WrongOrderFailsValidation) {
  // t1 writes, commits; t2 reads t1's value. Forcing t2 before t1 must fail
  // replay inside the witness validation.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName t1 = type.NewChild(kT0);
  TxName t2 = type.NewChild(kT0);
  TxName w1 = type.NewAccess(t1, AccessSpec{x, OpCode::kWrite, 5});
  TxName r2 = type.NewAccess(t2, AccessSpec{x, OpCode::kRead, 0});

  Trace beta;
  auto open = [&](TxName t) {
    beta.push_back(Action::RequestCreate(t));
    beta.push_back(Action::Create(t));
  };
  auto run = [&](TxName acc, Value v) {
    beta.push_back(Action::RequestCreate(acc));
    beta.push_back(Action::Create(acc));
    beta.push_back(Action::RequestCommit(acc, v));
    beta.push_back(Action::Commit(acc));
    beta.push_back(Action::ReportCommit(acc, v));
  };
  auto close = [&](TxName t) {
    beta.push_back(Action::RequestCommit(t, Value::Int(1)));
    beta.push_back(Action::Commit(t));
    beta.push_back(Action::ReportCommit(t, Value::Int(1)));
  };
  open(t1);
  open(t2);
  run(w1, Value::Ok());
  close(t1);
  run(r2, Value::Int(5));
  close(t2);

  std::map<TxName, std::vector<TxName>> right = {{kT0, {t1, t2}}};
  std::map<TxName, std::vector<TxName>> wrong = {{kT0, {t2, t1}}};
  EXPECT_TRUE(BuildAndCheckWitness(type, beta, right).status.ok());
  EXPECT_FALSE(BuildAndCheckWitness(type, beta, wrong).status.ok());
}

TEST(WitnessIdempotenceTest, WitnessIsItsOwnWitness) {
  QuickRunParams params;
  params.config.backend = Backend::kMoss;
  params.config.seed = 8;
  params.num_objects = 2;
  params.num_toplevel = 4;
  QuickRunResult run = QuickRun(params);
  WitnessResult first = CheckSeriallyCorrectForT0(*run.type, run.sim.trace);
  ASSERT_TRUE(first.status.ok());
  // A serial behavior's witness check succeeds, and at T0 nothing changes.
  WitnessResult second = CheckSeriallyCorrectForT0(*run.type, first.witness);
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(ProjectTransaction(*run.type, second.witness, kT0),
            ProjectTransaction(*run.type, first.witness, kT0));
}

TEST(DriverEdgeTest, MaxStepsCutsOffWithoutCompletion) {
  QuickRunParams params;
  params.config.backend = Backend::kMoss;
  params.config.seed = 2;
  params.config.max_steps = 10;  // Far too few.
  params.num_toplevel = 6;
  QuickRunResult run = QuickRun(params);
  EXPECT_FALSE(run.sim.stats.completed);
  EXPECT_EQ(run.sim.stats.steps, 10u);
}

TEST(DriverEdgeTest, EmptyWorkloadCompletesImmediately) {
  SystemType type;
  type.AddObject(ObjectType::kReadWrite, "X", 0);
  Simulation sim(&type, MakePar({}));
  SimConfig config;
  SimResult result = sim.Run(config);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_EQ(result.stats.toplevel_committed, 0u);
  EXPECT_TRUE(result.trace.empty());
}

TEST(DriverEdgeTest, StallAbortBudgetRespected) {
  // Two sequential write/write programs in opposite object order deadlock;
  // with a zero budget the driver gives up instead of resolving.
  bool saw_incomplete = false;
  for (uint64_t seed = 1; seed <= 10 && !saw_incomplete; ++seed) {
    SystemType fresh;
    fresh.AddObject(ObjectType::kReadWrite, "X", 0);
    fresh.AddObject(ObjectType::kReadWrite, "Y", 0);
    std::vector<std::unique_ptr<ProgramNode>> a1s, a2s, atops;
    a1s.push_back(MakeAccess(0, OpCode::kWrite, 1));
    a1s.push_back(MakeAccess(1, OpCode::kWrite, 1));
    a2s.push_back(MakeAccess(1, OpCode::kWrite, 2));
    a2s.push_back(MakeAccess(0, OpCode::kWrite, 2));
    atops.push_back(MakeSeq(std::move(a1s)));
    atops.push_back(MakeSeq(std::move(a2s)));
    Simulation sim(&fresh, MakePar(std::move(atops)));
    SimConfig config;
    config.backend = Backend::kMoss;
    config.seed = seed;
    config.max_stall_aborts = 0;
    SimResult result = sim.Run(config);
    if (!result.stats.completed) saw_incomplete = true;
  }
  EXPECT_TRUE(saw_incomplete) << "workload never deadlocked across seeds";
}

TEST(ProgramEdgeTest, EarlyAccessProbabilityShortensTrees) {
  SystemType type;
  type.AddObject(ObjectType::kReadWrite, "X", 0);
  Rng rng(3);
  ProgramGenParams deep;
  deep.depth = 3;
  deep.fanout = 2;
  deep.early_access_prob = 0.0;
  ProgramGenParams shallow = deep;
  shallow.early_access_prob = 1.0;
  size_t deep_n = 0, shallow_n = 0;
  for (int i = 0; i < 10; ++i) {
    deep_n += CountAccesses(*GenerateProgram(type, deep, rng));
    shallow_n += CountAccesses(*GenerateProgram(type, shallow, rng));
  }
  EXPECT_EQ(deep_n, 10u * 8u);      // Full 2^3 leaves.
  EXPECT_EQ(shallow_n, 10u * 2u);   // All children become accesses.
}

}  // namespace
}  // namespace ntsg
