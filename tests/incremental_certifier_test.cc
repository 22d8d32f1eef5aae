// Unit tests for the online certifier and its visibility tracker. Prefix
// consistency with the batch build (verdict, edge counts, fingerprint at
// every prefix) is one of oracle_test's invariants.

#include <gtest/gtest.h>

#include "sg/incremental_certifier.h"
#include "sim/driver.h"

namespace ntsg {
namespace {

QuickRunResult SmallRun(uint64_t seed, Backend backend,
                        ObjectType object_type = ObjectType::kReadWrite) {
  QuickRunParams params;
  params.config.backend = backend;
  params.config.seed = seed;
  params.num_objects = 2;
  params.object_type = object_type;
  params.num_toplevel = 2;
  params.gen.depth = 2;
  params.gen.fanout = 2;
  params.gen.read_prob = 0.5;
  return QuickRun(params);
}

TEST(IncrementalCertifierTest, RejectionIsStickyAndPositioned) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    QuickRunResult run = SmallRun(seed, Backend::kDirtyReadMoss);
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    std::optional<uint64_t> first;
    for (size_t i = 0; i < run.sim.trace.size(); ++i) {
      cert.Ingest(run.sim.trace[i]);
      if (!first.has_value() && !cert.verdict().ok()) {
        first = i;
        ASSERT_EQ(cert.first_rejection_pos(), first);
      }
      if (first.has_value()) {
        // Once latched, the position never moves.
        ASSERT_EQ(cert.first_rejection_pos(), first);
      }
    }
  }
}

TEST(VisibilityTrackerTest, CommitDeepInTreeRevealsEarlierOp) {
  // An access commits early but stays invisible while its ancestor chain is
  // open; each ancestor commit re-parks it one level up, and only the last
  // (deepest-in-time) commit fires it — with the original tag, in park
  // order relative to later watchers.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName p = type.NewChild(kT0);
  TxName c = type.NewChild(p);
  TxName a = type.NewAccess(c, AccessSpec{x, OpCode::kWrite, 1});
  TxName b = type.NewAccess(p, AccessSpec{x, OpCode::kWrite, 2});

  VisibilityTracker tracker(type);
  std::vector<VisibilityTracker::Item> fired;
  ASSERT_EQ(tracker.Watch(a, 11), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(a, &fired);
  EXPECT_TRUE(fired.empty());  // c and p still open
  ASSERT_EQ(tracker.Watch(b, 22), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(b, &fired);
  EXPECT_TRUE(fired.empty());  // p still open
  tracker.OnCommit(c, &fired);
  EXPECT_TRUE(fired.empty());  // a re-parks on p
  tracker.OnCommit(p, &fired);  // the deep reveal: both become visible
  ASSERT_EQ(fired.size(), 2u);
  // Park order on p: b re-parked there at OnCommit(b), before a arrived
  // via OnCommit(c).
  EXPECT_EQ(fired[0].subject, b);
  EXPECT_EQ(fired[0].tag, 22u);
  EXPECT_EQ(fired[1].subject, a);
  EXPECT_EQ(fired[1].tag, 11u);
  // Once the chain is committed, a fresh watch is immediately visible.
  EXPECT_EQ(tracker.Watch(a, 33), VisibilityTracker::WatchResult::kVisible);
}

TEST(VisibilityTrackerTest, AbortedAncestorDropsParkedItems) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName p = type.NewChild(kT0);
  TxName c = type.NewChild(p);
  TxName a = type.NewAccess(c, AccessSpec{x, OpCode::kWrite, 1});

  VisibilityTracker tracker(type);
  std::vector<VisibilityTracker::Item> fired, dropped;
  ASSERT_EQ(tracker.Watch(a, 7), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(a, &fired, &dropped);
  tracker.OnCommit(c, &fired, &dropped);  // a now parks on p
  EXPECT_TRUE(fired.empty());
  EXPECT_TRUE(dropped.empty());
  tracker.OnAbort(p, &dropped);  // p can never commit: the item is dead
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].subject, a);
  EXPECT_EQ(dropped[0].tag, 7u);
  EXPECT_TRUE(fired.empty());
  // Watching under the aborted ancestor reports dead immediately.
  EXPECT_EQ(tracker.Watch(a, 8), VisibilityTracker::WatchResult::kDead);
}

TEST(IncrementalCertifierTest, EmptyAndTrivialTraces) {
  SystemType type;
  type.AddObject(ObjectType::kReadWrite, "X", 0);
  IncrementalCertifier cert(type, ConflictMode::kReadWrite);
  EXPECT_TRUE(cert.verdict().ok());
  EXPECT_EQ(cert.actions_ingested(), 0u);
  EXPECT_EQ(cert.conflict_edge_count(), 0u);
  EXPECT_EQ(cert.precedes_edge_count(), 0u);
  EXPECT_FALSE(cert.first_rejection_pos().has_value());
}

}  // namespace
}  // namespace ntsg
