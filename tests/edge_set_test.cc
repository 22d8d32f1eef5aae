// Unit tests for the flat containers behind the conflict frontier, the
// online graph and the batch edge accumulators: FlatIndexMap tombstoned
// erase/rehash (the GC retirement path erases frontier lists and graph
// pairs, so the probe-chain invariants get direct coverage here) and
// SiblingEdgeSet's insert-only dedup.

#include "sg/edge_set.h"

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace ntsg {
namespace {

TEST(FlatIndexMapTest, EraseMakesKeyAbsent) {
  FlatIndexMap m;
  *m.FindOrInsert(7, 70) = 70;
  *m.FindOrInsert(8, 80) = 80;
  EXPECT_TRUE(m.Erase(7));
  EXPECT_EQ(m.Find(7), FlatIndexMap::kNotFound);
  EXPECT_EQ(m.Find(8), 80u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.Erase(7));  // Double-erase is a no-op.
  EXPECT_FALSE(m.Erase(99));
  uint32_t erased = 0;
  EXPECT_TRUE(m.Erase(8, &erased));  // Reports the value it erased.
  EXPECT_EQ(erased, 80u);
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlatIndexMapTest, EraseOnEmptyMap) {
  FlatIndexMap m;
  EXPECT_FALSE(m.Erase(0));
  EXPECT_EQ(m.Find(0), FlatIndexMap::kNotFound);
}

TEST(FlatIndexMapTest, ProbeChainSurvivesTombstone) {
  // Insert enough keys that some probe chains collide, erase interior
  // members, and confirm every survivor is still reachable.
  FlatIndexMap m;
  for (uint64_t k = 0; k < 64; ++k) *m.FindOrInsert(k, uint32_t(k)) = uint32_t(k);
  for (uint64_t k = 0; k < 64; k += 2) EXPECT_TRUE(m.Erase(k));
  for (uint64_t k = 0; k < 64; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(m.Find(k), FlatIndexMap::kNotFound) << k;
    } else {
      EXPECT_EQ(m.Find(k), uint32_t(k)) << k;
    }
  }
  EXPECT_EQ(m.size(), 32u);
}

TEST(FlatIndexMapTest, InsertReusesTombstone) {
  FlatIndexMap m;
  for (uint64_t k = 0; k < 8; ++k) *m.FindOrInsert(k, uint32_t(k)) = uint32_t(k);
  EXPECT_TRUE(m.Erase(3));
  size_t tombs = m.tombstones();
  EXPECT_GE(tombs, 1u);
  // Re-inserting the same key must land on (or before) the tombstone, not
  // duplicate it past the chain.
  *m.FindOrInsert(3, 33) = 33;
  EXPECT_EQ(m.Find(3), 33u);
  EXPECT_LT(m.tombstones(), tombs + 1);
  EXPECT_EQ(m.size(), 8u);
}

TEST(FlatIndexMapTest, RehashDropsTombstones) {
  FlatIndexMap m;
  // Churn insert/erase so tombstones pile up; the rehash trigger counts them
  // toward load, so Find/FindOrInsert never degrade to a full-table scan.
  for (uint64_t round = 0; round < 200; ++round) {
    *m.FindOrInsert(round, uint32_t(round)) = uint32_t(round);
    if (round >= 4) EXPECT_TRUE(m.Erase(round - 4));
  }
  EXPECT_EQ(m.size(), 4u);
  // Tombstones are bounded by the rehash trigger; far fewer than the 196
  // erases performed.
  EXPECT_LT(m.tombstones(), 100u);
  for (uint64_t k = 196; k < 200; ++k) EXPECT_EQ(m.Find(k), uint32_t(k));
  EXPECT_EQ(m.Find(100), FlatIndexMap::kNotFound);
}

TEST(FlatIndexMapTest, ForEachVisitsExactlyLiveEntries) {
  FlatIndexMap m;
  for (uint64_t k = 0; k < 20; ++k) *m.FindOrInsert(k * 3, uint32_t(k)) = uint32_t(k);
  for (uint64_t k = 0; k < 20; k += 2) EXPECT_TRUE(m.Erase(k * 3));
  std::map<uint64_t, uint32_t> seen;
  m.ForEach([&](uint64_t key, uint32_t value) { seen[key] = value; });
  EXPECT_EQ(seen.size(), 10u);
  for (uint64_t k = 1; k < 20; k += 2) {
    ASSERT_TRUE(seen.count(k * 3)) << k;
    EXPECT_EQ(seen[k * 3], uint32_t(k));
  }
}

TEST(FlatIndexMapTest, RandomizedAgainstStdMap) {
  std::mt19937_64 rng(42);
  FlatIndexMap m;
  std::map<uint64_t, uint32_t> ref;
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng() % 512;
    if (rng() % 3 == 0) {
      EXPECT_EQ(m.Erase(key), ref.erase(key) > 0) << "step " << step;
    } else {
      uint32_t v = uint32_t(rng());
      *m.FindOrInsert(key, v) = v;
      ref[key] = v;
    }
    ASSERT_EQ(m.size(), ref.size()) << "step " << step;
  }
  for (uint64_t key = 0; key < 512; ++key) {
    auto it = ref.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(m.Find(key), FlatIndexMap::kNotFound) << key;
    } else {
      EXPECT_EQ(m.Find(key), it->second) << key;
    }
  }
}

SiblingEdge E(TxName parent, TxName from, TxName to) {
  return SiblingEdge{parent, from, to};
}

TEST(SiblingEdgeSetTest, RandomizedAgainstStdSet) {
  std::mt19937_64 rng(7);
  SiblingEdgeSet s;
  std::set<SiblingEdge> ref;
  for (int step = 0; step < 20000; ++step) {
    SiblingEdge e = E(TxName(rng() % 8), TxName(rng() % 32), TxName(rng() % 32));
    EXPECT_EQ(s.Insert(e), ref.insert(e).second) << "step " << step;
    ASSERT_EQ(s.size(), ref.size()) << "step " << step;
  }
  std::vector<SiblingEdge> sorted = s.SortedEdges();
  ASSERT_EQ(sorted.size(), ref.size());
  size_t i = 0;
  for (const SiblingEdge& e : ref) EXPECT_EQ(sorted[i++], e);
}

}  // namespace
}  // namespace ntsg
