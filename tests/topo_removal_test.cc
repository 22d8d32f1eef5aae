// Property tests for IncrementalTopoGraph edge and node *removal* under
// random interleavings: the maintained order stays valid for every surviving
// edge, cycle verdicts always match a from-scratch rebuild, and removal
// re-enables exactly the edges whose cycles it broke. The node-removal case
// drives the GC's primitives (RemoveNode, InNeighbors, CompactOrders, slab
// slot reuse) against a reference model, and the tagged case drives the
// certifier's edge-identity map (AddTaggedEdge over both relations) against
// one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
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

using TagModel = std::map<std::pair<TxName, TxName>, uint8_t>;
using TagResult = IncrementalTopoGraph::TagResult;

// Every pair the graph reports through ForEachTagged, with its tags.
TagModel TaggedPairs(const IncrementalTopoGraph& graph) {
  TagModel pairs;
  graph.ForEachTagged([&pairs](TxName from, TxName to, uint8_t tags) {
    EXPECT_TRUE(pairs.emplace(std::make_pair(from, to), tags).second)
        << "pair " << from << " -> " << to << " walked twice";
  });
  return pairs;
}

size_t CountTag(const TagModel& tags, uint8_t tag) {
  size_t n = 0;
  for (const auto& [pair, bits] : tags) n += (bits & tag) != 0 ? 1 : 0;
  return n;
}

// The certifier's edge-identity map under a seeded churn: tagged inserts
// over both relations (repeats, pairs in both relations, cycle refusals and
// their re-offers), untagged AddEdge/RemoveEdge, RemoveNode, CompactOrders
// and copies, against a reference model of (pair -> tags) plus the admitted
// edge set. After every step:
//   1. AddTaggedEdge's outcome is kKnown exactly for a repeated tag,
//      kAdmitted for a new tag on an admitted pair or a safe new edge, and
//      kRefused exactly when the reference says the edge closes a cycle;
//   2. tagged_count and ForEachTagged match the reference tags, refused
//      pairs included;
//   3. HasEdge and edge_count cover admitted edges only, and every edge
//      ascends in OrdOf;
//   4. a refused pair is in neither InNeighbors nor any FindPath, and
//      FindPath finds a path over admitted edges exactly when one exists;
//   5. AddEdge and RemoveEdge keep their untagged contract (RemoveEdge
//      forgets an admitted pair's tags and leaves a refused pair alone).
// RemoveNode is only applied to nodes no refused pair touches: the
// certifier's GC stands down at the first refusal, and the graph checks it.
TEST(TopoRemovalTest, TaggedPairsMatchReference) {
  constexpr uint8_t kC = IncrementalTopoGraph::kConflictTag;
  constexpr uint8_t kP = IncrementalTopoGraph::kPrecedesTag;
  size_t known = 0, refused = 0, refused_again = 0, both = 0, removed = 0,
         copies = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    IncrementalTopoGraph g;
    TagModel tags;    // pair -> relation tags, refused pairs included
    EdgeSet edges;    // admitted pairs
    std::map<TxName, std::set<TxName>> live;  // node -> its predecessors
    const TxName kNodes = 9;
    auto admit = [&](TxName from, TxName to) {
      edges.insert({from, to});
      live[from];
      live[to].insert(from);
    };
    auto forget_pair = [&](TxName from, TxName to) {
      edges.erase({from, to});
      tags.erase({from, to});
      live[to].erase(from);
    };
    auto touches_refused = [&](TxName t) {
      for (const auto& [pair, bits] : tags) {
        if (edges.count(pair) == 0 && (pair.first == t || pair.second == t)) {
          return true;
        }
      }
      return false;
    };

    for (int step = 0; step < 500; ++step) {
      const uint64_t dice = rng.NextBelow(20);
      TxName from = static_cast<TxName>(1 + rng.NextBelow(kNodes));
      TxName to = static_cast<TxName>(1 + rng.NextBelow(kNodes));
      if (dice < 12) {
        if (from == to) continue;
        const uint8_t tag = rng.NextBool(0.5) ? kC : kP;
        const uint8_t before = tags.count({from, to}) ? tags[{from, to}] : 0;
        const bool was_admitted = edges.count({from, to}) != 0;
        TagResult expect;
        if ((before & tag) != 0) {
          expect = TagResult::kKnown;
          ++known;
        } else {
          tags[{from, to}] = before | tag;
          if (before != 0) ++both;
          if (was_admitted) {
            expect = TagResult::kAdmitted;
          } else if (WouldCycle(edges, from, to)) {
            expect = TagResult::kRefused;
            ++refused;
            if (before != 0) ++refused_again;
          } else {
            expect = TagResult::kAdmitted;
            admit(from, to);
          }
        }
        ASSERT_EQ(g.AddTaggedEdge(from, to, tag), expect)
            << "seed " << seed << " step " << step << ": " << from << " -> "
            << to << " tag " << int{tag};
      } else if (dice < 14) {
        const bool present = edges.count({from, to}) != 0;
        const bool closes = !present && WouldCycle(edges, from, to);
        ASSERT_EQ(g.AddEdge(from, to), !closes)
            << "seed " << seed << " step " << step;
        if (!closes && !present) admit(from, to);
      } else if (dice < 16) {
        if (!edges.empty() && rng.NextBool(0.7)) {
          auto it = edges.begin();
          std::advance(it, rng.NextBelow(edges.size()));
          std::tie(from, to) = *it;
        }
        g.RemoveEdge(from, to);
        if (edges.count({from, to}) != 0) forget_pair(from, to);
      } else if (dice < 18) {
        if (touches_refused(from)) continue;
        g.RemoveNode(from);
        if (live.erase(from) != 0) ++removed;
        for (auto& [node, preds] : live) preds.erase(from);
        for (auto it = tags.begin(); it != tags.end();) {
          const auto [a, b] = it->first;
          if (a == from || b == from) {
            edges.erase(it->first);
            it = tags.erase(it);
          } else {
            ++it;
          }
        }
        for (auto it = edges.begin(); it != edges.end();) {
          it = it->first == from || it->second == from ? edges.erase(it)
                                                       : std::next(it);
        }
      } else if (dice < 19) {
        g.CompactOrders();
        ASSERT_EQ(g.next_ord(), g.node_count());
      } else {
        // Snapshots are copies; continue on the copy, which must carry the
        // tags, counters and adjacency over exactly.
        IncrementalTopoGraph copy(g);
        g = IncrementalTopoGraph();
        g = copy;
        ++copies;
      }

      ASSERT_EQ(TaggedPairs(g), tags) << "seed " << seed << " step " << step;
      ASSERT_EQ(g.tagged_count(kC), CountTag(tags, kC)) << "seed " << seed;
      ASSERT_EQ(g.tagged_count(kP), CountTag(tags, kP)) << "seed " << seed;
      ASSERT_EQ(g.edge_count(), edges.size()) << "seed " << seed;
      ASSERT_EQ(g.node_count(), live.size()) << "seed " << seed;
      for (TxName a = 1; a <= kNodes; ++a) {
        for (TxName b = 1; b <= kNodes; ++b) {
          ASSERT_EQ(g.HasEdge(a, b), edges.count({a, b}) != 0)
              << "seed " << seed << " step " << step;
        }
        std::vector<TxName> in = g.InNeighbors(a);
        std::sort(in.begin(), in.end());
        auto it = live.find(a);
        ASSERT_EQ(in, it == live.end()
                          ? std::vector<TxName>{}
                          : std::vector<TxName>(it->second.begin(),
                                                it->second.end()))
            << "seed " << seed << " step " << step << " node " << a;
      }
      for (const auto& [pair, bits] : tags) {
        if (edges.count(pair) != 0) continue;
        const auto [a, b] = pair;
        // WouldCycle(edges, b, a) is "a reaches b over admitted edges".
        const std::vector<TxName> path = g.FindPath(a, b);
        ASSERT_EQ(path.empty(), !WouldCycle(edges, b, a))
            << "seed " << seed << " step " << step;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          ASSERT_TRUE(edges.count({path[i], path[i + 1]}))
              << "FindPath used a refused pair, seed " << seed;
        }
      }
      ExpectOrderValid(g, edges);
    }
  }
  // Every behavior the certifier relies on was exercised.
  EXPECT_GT(known, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(refused_again, 0u);
  EXPECT_GT(both, 0u);
  EXPECT_GT(removed, 0u);
  EXPECT_GT(copies, 0u);
}

}  // namespace
}  // namespace ntsg
