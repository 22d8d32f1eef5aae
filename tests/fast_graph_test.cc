// Unit tests for the timeline-encoded acyclicity check and the
// IncrementalTopoGraph. Timeline-versus-batch agreement on whole traces is
// one of oracle_test's invariants.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sg/fast_graph.h"
#include "sg/graph.h"
#include "sim/driver.h"

namespace ntsg {
namespace {

TEST(FastGraphTest, DetectsHandBuiltCycle) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  ObjectId y = type.AddObject(ObjectType::kReadWrite, "Y", 0);
  TxName t1 = type.NewChild(kT0);
  TxName t2 = type.NewChild(kT0);
  TxName r1x = type.NewAccess(t1, AccessSpec{x, OpCode::kRead, 0});
  TxName r1y = type.NewAccess(t1, AccessSpec{y, OpCode::kRead, 0});
  TxName w2x = type.NewAccess(t2, AccessSpec{x, OpCode::kWrite, 1});
  TxName w2y = type.NewAccess(t2, AccessSpec{y, OpCode::kWrite, 1});

  Trace beta;
  auto open = [&](TxName t) {
    beta.push_back(Action::RequestCreate(t));
    beta.push_back(Action::Create(t));
  };
  auto run = [&](TxName a, Value v) {
    beta.push_back(Action::RequestCreate(a));
    beta.push_back(Action::Create(a));
    beta.push_back(Action::RequestCommit(a, v));
    beta.push_back(Action::Commit(a));
    beta.push_back(Action::ReportCommit(a, v));
  };
  auto close = [&](TxName t) {
    beta.push_back(Action::RequestCommit(t, Value::Int(2)));
    beta.push_back(Action::Commit(t));
    beta.push_back(Action::ReportCommit(t, Value::Int(2)));
  };
  open(t1);
  open(t2);
  run(r1x, Value::Int(0));
  run(w2x, Value::Ok());
  run(w2y, Value::Ok());
  close(t2);
  run(r1y, Value::Int(1));
  close(t1);

  FastSgReport fast =
      FastSgAcyclicity(type, beta, ConflictMode::kReadWrite);
  EXPECT_FALSE(fast.acyclic);
}

TEST(FastGraphTest, PrecedesOnlyChainsAreAcyclic) {
  // Serial completion of many siblings: quadratic precedes pairs in the
  // full graph but O(n) timeline edges here, and of course acyclic.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  Trace beta;
  constexpr int kN = 40;
  for (int i = 0; i < kN; ++i) {
    TxName a = type.NewAccess(kT0, AccessSpec{x, OpCode::kWrite, i});
    beta.push_back(Action::RequestCreate(a));
    beta.push_back(Action::Create(a));
    beta.push_back(Action::RequestCommit(a, Value::Ok()));
    beta.push_back(Action::Commit(a));
    beta.push_back(Action::ReportCommit(a, Value::Ok()));
  }
  SerializationGraph full =
      SerializationGraph::Build(type, beta, ConflictMode::kReadWrite);
  FastSgReport fast = FastSgAcyclicity(type, beta, ConflictMode::kReadWrite);
  EXPECT_TRUE(fast.acyclic);
  EXPECT_TRUE(full.IsAcyclic());
  // Quadratic vs linear edge counts.
  EXPECT_EQ(full.precedes_edges().size(),
            static_cast<size_t>(kN * (kN - 1) / 2));
  EXPECT_LT(fast.timeline_edge_count, static_cast<size_t>(3 * kN));
}

TEST(FastGraphTest, TimelineCycleThroughConflictEdge) {
  // precedes says t1 before t2 (report then request), but a conflict edge
  // points t2 -> t1: only the combination is cyclic.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName t1 = type.NewChild(kT0);
  TxName t2 = type.NewChild(kT0);
  TxName w1 = type.NewAccess(t1, AccessSpec{x, OpCode::kWrite, 1});
  TxName w2 = type.NewAccess(t2, AccessSpec{x, OpCode::kWrite, 2});

  Trace beta;
  // t1 runs fully and reports...
  beta.push_back(Action::RequestCreate(t1));
  beta.push_back(Action::Create(t1));
  beta.push_back(Action::RequestCreate(w1));
  beta.push_back(Action::Create(w1));
  // ... but w2 responds BEFORE w1 (conflict edge t2 -> t1) while t2 is
  // requested only after t1's report (precedes t1 -> t2).
  beta.push_back(Action::RequestCommit(w1, Value::Ok()));
  beta.push_back(Action::Commit(w1));
  beta.push_back(Action::ReportCommit(w1, Value::Ok()));
  beta.push_back(Action::RequestCommit(t1, Value::Int(1)));
  beta.push_back(Action::Commit(t1));
  beta.push_back(Action::ReportCommit(t1, Value::Int(1)));
  beta.push_back(Action::RequestCreate(t2));
  beta.push_back(Action::Create(t2));
  beta.push_back(Action::RequestCreate(w2));
  beta.push_back(Action::Create(w2));
  beta.push_back(Action::RequestCommit(w2, Value::Ok()));
  beta.push_back(Action::Commit(w2));
  beta.push_back(Action::ReportCommit(w2, Value::Ok()));
  beta.push_back(Action::RequestCommit(t2, Value::Int(1)));
  beta.push_back(Action::Commit(t2));

  // Forward order: acyclic.
  FastSgReport fast = FastSgAcyclicity(type, beta, ConflictMode::kReadWrite);
  EXPECT_TRUE(fast.acyclic);
  SerializationGraph full =
      SerializationGraph::Build(type, beta, ConflictMode::kReadWrite);
  EXPECT_TRUE(full.IsAcyclic());

  // Now swap the two write responses in time: w2's REQUEST_COMMIT cannot
  // have happened before t2 existed, so instead build the inverse: a trace
  // where the conflict order contradicts precedes is impossible to realize
  // with committed accesses; emulate it by checking the pure-graph level.
  // (The realizable contradiction cases are covered by oracle_test, which
  // compares the timeline verdict with the batch build on every trace.)
}

TEST(IncrementalTopoGraphTest, AcceptsDagRejectsCycle) {
  IncrementalTopoGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(2, 3));
  EXPECT_TRUE(g.AddEdge(1, 3));
  EXPECT_EQ(g.edge_count(), 3u);
  // Closing the cycle 3 -> 1 must fail and leave the graph unchanged.
  EXPECT_FALSE(g.AddEdge(3, 1));
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_FALSE(g.HasEdge(3, 1));
  // The failed insertion must not have corrupted the order: a legal edge
  // still inserts fine.
  EXPECT_TRUE(g.AddEdge(3, 4));
  EXPECT_FALSE(g.AddEdge(4, 1));
}

TEST(IncrementalTopoGraphTest, SelfLoopAndDuplicates) {
  IncrementalTopoGraph g;
  EXPECT_FALSE(g.AddEdge(5, 5));
  EXPECT_TRUE(g.AddEdge(5, 6));
  EXPECT_TRUE(g.AddEdge(5, 6));  // Duplicate: accepted, not double counted.
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(IncrementalTopoGraphTest, MaintainsTopologicalOrder) {
  // Insert edges against discovery order so that Pearce–Kelly has to
  // reorder: nodes are discovered 1..6 but constrained 6 -> 5 -> ... -> 1.
  IncrementalTopoGraph g;
  for (TxName t = 1; t <= 6; ++t) g.AddEdge(t, 100 + t);  // discover 1..6
  for (TxName t = 6; t >= 2; --t) EXPECT_TRUE(g.AddEdge(t, t - 1));
  for (TxName t = 6; t >= 2; --t) {
    ASSERT_TRUE(g.OrdOf(t).has_value());
    EXPECT_LT(*g.OrdOf(t), *g.OrdOf(t - 1)) << "t=" << t;
  }
  // And the chain direction is now locked in.
  EXPECT_FALSE(g.AddEdge(1, 6));
}

TEST(IncrementalTopoGraphTest, RemoveEdgeReopensPath) {
  IncrementalTopoGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(2, 3));
  EXPECT_FALSE(g.AddEdge(3, 1));
  g.RemoveEdge(2, 3);
  EXPECT_FALSE(g.HasEdge(2, 3));
  // With the path broken, the former back edge is legal.
  EXPECT_TRUE(g.AddEdge(3, 1));
  // Removal is idempotent.
  g.RemoveEdge(2, 3);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(IncrementalTopoGraphTest, RandomizedAgainstDfsCycleCheck) {
  // Insert random edges; at every step the PK verdict must match a
  // from-scratch DFS reachability check on the accepted edge set.
  Rng rng(2024);
  constexpr TxName kNodes = 24;
  IncrementalTopoGraph g;
  std::set<std::pair<TxName, TxName>> accepted;
  auto reaches = [&](TxName from, TxName to) {
    std::vector<TxName> stack{from};
    std::set<TxName> seen;
    while (!stack.empty()) {
      TxName u = stack.back();
      stack.pop_back();
      if (u == to) return true;
      if (!seen.insert(u).second) continue;
      for (const auto& [a, b] : accepted) {
        if (a == u) stack.push_back(b);
      }
    }
    return false;
  };
  for (int step = 0; step < 600; ++step) {
    TxName from = 1 + rng.NextU64() % kNodes;
    TxName to = 1 + rng.NextU64() % kNodes;
    bool would_cycle = from == to || reaches(to, from);
    bool ok = g.AddEdge(from, to);
    ASSERT_EQ(ok, !would_cycle)
        << "step " << step << ": " << from << " -> " << to;
    if (ok) accepted.insert({from, to});
    ASSERT_EQ(g.edge_count(), accepted.size());
    // Occasionally remove a random accepted edge.
    if (!accepted.empty() && rng.NextU64() % 4 == 0) {
      auto it = accepted.begin();
      std::advance(it, rng.NextU64() % accepted.size());
      g.RemoveEdge(it->first, it->second);
      accepted.erase(it);
    }
  }
  // Final sanity: maintained order is consistent with every accepted edge.
  for (const auto& [a, b] : accepted) {
    ASSERT_TRUE(g.OrdOf(a).has_value() && g.OrdOf(b).has_value());
    EXPECT_LT(*g.OrdOf(a), *g.OrdOf(b));
  }
}

TEST(FastWitnessTest, FastOrdersRespectEdges) {
  QuickRunParams params;
  params.config.backend = Backend::kMoss;
  params.config.seed = 6;
  params.num_objects = 2;
  params.num_toplevel = 6;
  QuickRunResult run = QuickRun(params);
  Trace serial = SerialPart(run.sim.trace);
  auto orders = FastTopologicalOrders(*run.type, serial,
                                      ConflictMode::kCommutativity);
  ASSERT_TRUE(orders.has_value());
  // Every materialized conflict and precedes edge must agree with the order.
  std::map<TxName, std::map<TxName, size_t>> pos;
  for (const auto& [p, children] : *orders) {
    for (size_t i = 0; i < children.size(); ++i) pos[p][children[i]] = i;
  }
  SerializationGraph full = SerializationGraph::Build(
      *run.type, serial, ConflictMode::kCommutativity);
  for (const auto* edges : {&full.conflict_edges(), &full.precedes_edges()}) {
    for (const SiblingEdge& e : *edges) {
      auto pit = pos.find(e.parent);
      ASSERT_NE(pit, pos.end());
      ASSERT_TRUE(pit->second.count(e.from));
      ASSERT_TRUE(pit->second.count(e.to));
      EXPECT_LT(pit->second[e.from], pit->second[e.to]);
    }
  }
}

TEST(FastWitnessTest, VirtualTimelineNodesDoNotLeakIntoOrders) {
  // Serial sibling completion forces the timeline encoding to seal epoch
  // nodes (names tagged above the 32-bit TxName space) in two components:
  // under a nested parent and under T0. Those virtual nodes participate in
  // the combined topological sort but must never appear in the per-parent
  // sibling orders the function returns.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName p = type.NewChild(kT0);
  std::vector<TxName> accesses;
  for (int i = 0; i < 5; ++i) {
    accesses.push_back(type.NewAccess(p, AccessSpec{x, OpCode::kWrite, i}));
  }
  TxName q = type.NewAccess(kT0, AccessSpec{x, OpCode::kWrite, 9});

  Trace beta;
  beta.push_back(Action::RequestCreate(p));
  beta.push_back(Action::Create(p));
  for (TxName a : accesses) {  // each completes before the next is requested
    beta.push_back(Action::RequestCreate(a));
    beta.push_back(Action::Create(a));
    beta.push_back(Action::RequestCommit(a, Value::Ok()));
    beta.push_back(Action::Commit(a));
    beta.push_back(Action::ReportCommit(a, Value::Ok()));
  }
  beta.push_back(Action::RequestCommit(p, Value::Int(1)));
  beta.push_back(Action::Commit(p));
  beta.push_back(Action::ReportCommit(p, Value::Int(1)));
  beta.push_back(Action::RequestCreate(q));  // after p's report: T0 epoch
  beta.push_back(Action::Create(q));
  beta.push_back(Action::RequestCommit(q, Value::Ok()));
  beta.push_back(Action::Commit(q));
  beta.push_back(Action::ReportCommit(q, Value::Ok()));

  FastSgReport report = FastSgAcyclicity(type, beta, ConflictMode::kReadWrite);
  ASSERT_GT(report.timeline_node_count, 0u);  // epochs actually sealed

  auto orders = FastTopologicalOrders(type, beta, ConflictMode::kReadWrite);
  ASSERT_TRUE(orders.has_value());
  for (const auto& [parent, children] : *orders) {
    for (TxName t : children) {
      ASSERT_LT(t, type.num_names())
          << "virtual timeline node leaked into parent " << parent;
      EXPECT_EQ(type.parent(t), parent);
    }
  }
  // All five serial accesses survive, in completion order.
  ASSERT_TRUE(orders->count(p));
  EXPECT_EQ(orders->at(p), accesses);
}

}  // namespace
}  // namespace ntsg
