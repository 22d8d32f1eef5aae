// Property tests for IncrementalTopoGraph edge and node *removal* under
// random interleavings: the maintained order stays valid for every surviving
// edge, cycle verdicts always match a from-scratch rebuild, and removal
// re-enables exactly the edges whose cycles it broke. The node-removal case
// drives the GC's primitives (RemoveNode, InNeighbors, CompactOrders, slab
// slot reuse) against a reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sg/fast_graph.h"

namespace ntsg {
namespace {

using EdgeSet = std::set<std::pair<TxName, TxName>>;

// Reference oracle: would adding from -> to close a cycle in `edges`?
// (Reachability of `from` from `to` over the current edge set.)
bool WouldCycle(const EdgeSet& edges, TxName from, TxName to) {
  if (from == to) return true;
  std::vector<TxName> stack = {to};
  std::set<TxName> seen = {to};
  while (!stack.empty()) {
    TxName u = stack.back();
    stack.pop_back();
    if (u == from) return true;
    for (const auto& [a, b] : edges) {
      if (a == u && seen.insert(b).second) stack.push_back(b);
    }
  }
  return false;
}

void ExpectOrderValid(const IncrementalTopoGraph& graph, const EdgeSet& edges) {
  for (const auto& [from, to] : edges) {
    ASSERT_TRUE(graph.HasEdge(from, to));
    auto of = graph.OrdOf(from);
    auto ot = graph.OrdOf(to);
    ASSERT_TRUE(of.has_value());
    ASSERT_TRUE(ot.has_value());
    EXPECT_LT(*of, *ot) << from << " -> " << to;
  }
}

TEST(TopoRemovalTest, RemovingAnEdgeReenablesTheReverse) {
  IncrementalTopoGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(2, 3));
  EXPECT_FALSE(g.AddEdge(3, 1));  // would close the cycle
  g.RemoveEdge(1, 2);
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(3, 1));  // the path 1 ->* 3 is gone
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(TopoRemovalTest, RemoveIsIdempotentAndIgnoresAbsentEdges) {
  IncrementalTopoGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  g.RemoveEdge(1, 2);
  g.RemoveEdge(1, 2);   // already gone
  g.RemoveEdge(7, 8);   // never existed
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.AddEdge(2, 1));  // direction is free again
}

// Regression for a latent UB in RemoveEdge: the adjacency-list drop helper
// dereferenced std::find's result unconditionally. Removing an edge that was
// never inserted — but whose endpoints are both live and carry real edges —
// must take the not-present early return and leave graph, order, and cycle
// verdicts untouched (an edge-set/adjacency divergence now aborts loudly
// instead of scanning past end()).
TEST(TopoRemovalTest, RemoveNeverInsertedEdgeBetweenLiveEndpoints) {
  IncrementalTopoGraph g;
  ASSERT_TRUE(g.AddEdge(1, 2));
  ASSERT_TRUE(g.AddEdge(2, 3));
  ASSERT_TRUE(g.AddEdge(1, 4));
  g.RemoveEdge(1, 3);  // both endpoints live, edge never inserted
  g.RemoveEdge(3, 1);  // reverse direction, also absent
  g.RemoveEdge(4, 2);  // endpoints live via unrelated edges
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(1, 4));
  ExpectOrderValid(g, {{1, 2}, {2, 3}, {1, 4}});
  // The untouched path 1 ->* 3 still forbids the back edge.
  EXPECT_FALSE(g.AddEdge(3, 1));
}

TEST(TopoRemovalTest, SelfEdgeAlwaysRejected) {
  IncrementalTopoGraph g;
  EXPECT_FALSE(g.AddEdge(4, 4));
  EXPECT_EQ(g.edge_count(), 0u);
}

// The core property: drive a graph through a long random interleaving of
// insertions and removals over a small node universe (small so that cycles
// and re-insertions are frequent), checking after every step that
//   1. AddEdge accepts exactly the edges a from-scratch reachability oracle
//      says are safe,
//   2. the maintained topological order is valid for all surviving edges,
//   3. a fresh graph rebuilt from the surviving edges accepts them all.
TEST(TopoRemovalTest, RandomChurnMatchesFromScratchRebuild) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    IncrementalTopoGraph g;
    EdgeSet edges;
    const TxName kNodes = 8;
    size_t accepted = 0, rejected = 0, removed = 0;

    for (int step = 0; step < 400; ++step) {
      bool remove = !edges.empty() && rng.NextBool(0.4);
      if (remove) {
        size_t idx = rng.NextBelow(edges.size());
        auto it = edges.begin();
        std::advance(it, idx);
        auto [from, to] = *it;
        g.RemoveEdge(from, to);
        edges.erase(it);
        ++removed;
        EXPECT_FALSE(g.HasEdge(from, to));
      } else {
        TxName from = static_cast<TxName>(1 + rng.NextBelow(kNodes));
        TxName to = static_cast<TxName>(1 + rng.NextBelow(kNodes));
        bool oracle_rejects =
            !edges.count({from, to}) && WouldCycle(edges, from, to);
        bool ok = g.AddEdge(from, to);
        ASSERT_EQ(ok, !oracle_rejects)
            << "seed " << seed << " step " << step << ": " << from << " -> "
            << to;
        if (ok) {
          edges.insert({from, to});
          ++accepted;
        } else {
          ++rejected;
        }
      }
      ASSERT_EQ(g.edge_count(), edges.size());
      ExpectOrderValid(g, edges);
    }

    // The interleaving must actually have exercised all three behaviors.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(removed, 0u);

    // A from-scratch rebuild accepts every surviving edge, in any order —
    // here, the set's sorted order.
    IncrementalTopoGraph rebuilt;
    for (const auto& [from, to] : edges) {
      ASSERT_TRUE(rebuilt.AddEdge(from, to));
    }
    ExpectOrderValid(rebuilt, edges);
    EXPECT_EQ(rebuilt.edge_count(), g.edge_count());
  }
}

// Removal-heavy endgame: tear a dense acyclic graph all the way down while
// the order stays valid, then rebuild it reversed — every edge direction is
// free once the graph is empty.
TEST(TopoRemovalTest, TearDownAndRebuildReversed) {
  IncrementalTopoGraph g;
  EdgeSet edges;
  const TxName kNodes = 10;
  for (TxName from = 1; from <= kNodes; ++from) {
    for (TxName to = from + 1; to <= kNodes; ++to) {
      ASSERT_TRUE(g.AddEdge(from, to));
      edges.insert({from, to});
    }
  }
  // Reversed edges are all cycle-closing while the forward ones stand.
  EXPECT_FALSE(g.AddEdge(kNodes, 1));

  Rng rng(99);
  while (!edges.empty()) {
    size_t idx = rng.NextBelow(edges.size());
    auto it = edges.begin();
    std::advance(it, idx);
    g.RemoveEdge(it->first, it->second);
    edges.erase(it);
    ExpectOrderValid(g, edges);
  }
  EXPECT_EQ(g.edge_count(), 0u);

  for (TxName from = 1; from <= kNodes; ++from) {
    for (TxName to = from + 1; to <= kNodes; ++to) {
      ASSERT_TRUE(g.AddEdge(to, from));  // the reverse of the original
    }
  }
  EXPECT_FALSE(g.AddEdge(1, kNodes));
}

using LiveModel = std::map<TxName, std::vector<TxName>>;

// The graph's live nodes sorted by their current order key.
std::vector<TxName> LiveByOrd(const IncrementalTopoGraph& graph,
                              const LiveModel& live) {
  std::vector<TxName> nodes;
  for (const auto& [t, preds] : live) nodes.push_back(t);
  std::sort(nodes.begin(), nodes.end(), [&graph](TxName a, TxName b) {
    return *graph.OrdOf(a) < *graph.OrdOf(b);
  });
  return nodes;
}

// The watermark GC drives the graph with AddEdge, RemoveNode and periodic
// CompactOrders (never RemoveEdge). A seeded churn of exactly that mix runs
// against a reference model, the live nodes with each one's predecessors in
// insertion order, and after every step:
//   1. HasEdge and edge_count match the reference edge set;
//   2. InNeighbors lists the reference predecessors in insertion order;
//   3. every edge ascends in OrdOf;
//   4. AddEdge refuses exactly the edges that close a reference path;
//   5. slab_count() never exceeds the peak live node count (slots recycle);
//   6. after CompactOrders, next_ord() == node_count() and the live nodes
//      keep their relative order on keys 0..node_count()-1.
TEST(TopoRemovalTest, NodeRemovalChurnMatchesReference) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    IncrementalTopoGraph g;
    LiveModel live;  // live node -> its predecessors in insertion order
    EdgeSet edges;
    const TxName kNodes = 12;
    size_t peak_live = 0, created = 0;
    size_t accepted = 0, refused = 0, removed = 0, compacted = 0;

    for (int step = 0; step < 600; ++step) {
      const uint64_t dice = rng.NextBelow(10);
      if (dice < 6) {
        TxName from = static_cast<TxName>(1 + rng.NextBelow(kNodes));
        TxName to = static_cast<TxName>(1 + rng.NextBelow(kNodes));
        const bool present = edges.count({from, to}) != 0;
        const bool closes = !present && WouldCycle(edges, from, to);
        const bool ok = g.AddEdge(from, to);
        ASSERT_EQ(ok, !closes) << "seed " << seed << " step " << step << ": "
                               << from << " -> " << to;
        if (!ok) {
          ++refused;
        } else if (!present) {
          for (TxName t : {from, to}) {
            if (live.count(t) == 0) ++created;
          }
          live[from];
          live[to].push_back(from);
          edges.insert({from, to});
          ++accepted;
        }
      } else if (dice < 9) {
        TxName t = static_cast<TxName>(1 + rng.NextBelow(kNodes));
        g.RemoveNode(t);
        if (live.erase(t) != 0) ++removed;
        for (auto& [node, preds] : live) {
          preds.erase(std::remove(preds.begin(), preds.end(), t),
                      preds.end());
        }
        for (auto it = edges.begin(); it != edges.end();) {
          it = it->first == t || it->second == t ? edges.erase(it)
                                                 : std::next(it);
        }
      } else {
        const std::vector<TxName> before = LiveByOrd(g, live);
        g.CompactOrders();
        ++compacted;
        ASSERT_EQ(g.next_ord(), g.node_count()) << "seed " << seed;
        ASSERT_EQ(LiveByOrd(g, live), before) << "seed " << seed;
        for (size_t i = 0; i < before.size(); ++i) {
          ASSERT_EQ(*g.OrdOf(before[i]), i) << "seed " << seed;
        }
      }
      peak_live = std::max(peak_live, live.size());

      ASSERT_EQ(g.node_count(), live.size()) << "seed " << seed;
      ASSERT_EQ(g.edge_count(), edges.size()) << "seed " << seed;
      ASSERT_LE(g.slab_count(), peak_live) << "seed " << seed;
      for (TxName from = 1; from <= kNodes; ++from) {
        for (TxName to = 1; to <= kNodes; ++to) {
          ASSERT_EQ(g.HasEdge(from, to), edges.count({from, to}) != 0)
              << "seed " << seed << " step " << step;
        }
      }
      for (TxName t = 1; t <= kNodes; ++t) {
        auto it = live.find(t);
        ASSERT_EQ(g.InNeighbors(t),
                  it == live.end() ? std::vector<TxName>{} : it->second)
            << "seed " << seed << " step " << step << " node " << t;
      }
      ExpectOrderValid(g, edges);
    }

    // The churn must have exercised every primitive, slot reuse included.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(removed, 0u);
    EXPECT_GT(compacted, 0u);
    EXPECT_GT(created, g.slab_count()) << "no slab slot was ever reused";
  }
}

}  // namespace
}  // namespace ntsg
