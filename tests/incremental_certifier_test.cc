// Prefix-consistency property test for the online certifier: for every
// prefix of every generated trace, IncrementalCertifier's running verdict,
// edge counts and graph fingerprint must equal a from-scratch batch build of
// that prefix — across both conflict modes and across correct and
// deliberately broken schedulers (the latter exercise the rejection path).

#include <gtest/gtest.h>

#include "sg/certifier.h"
#include "sg/conflicts.h"
#include "sg/fingerprint.h"
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

/// Ingests `beta` one action at a time and compares against the batch
/// certifier at every prefix: verdict, edge counts, and the fingerprint of
/// the serial prefix's conflict(β) ∪ precedes(β), which a rejected prefix
/// must match too (refused edges stay members of their relation).
void CheckEveryPrefix(const SystemType& type, const Trace& beta,
                      ConflictMode mode) {
  IncrementalCertifier cert(type, mode);
  Trace prefix;
  prefix.reserve(beta.size());
  for (size_t i = 0; i < beta.size(); ++i) {
    cert.Ingest(beta[i]);
    prefix.push_back(beta[i]);
    CertifierReport batch = CertifySeriallyCorrect(type, prefix, mode);
    IncrementalVerdict v = cert.verdict();
    ASSERT_EQ(v.appropriate, batch.appropriate_return_values)
        << "appropriate diverged at prefix " << i + 1 << "/" << beta.size();
    ASSERT_EQ(v.acyclic, batch.graph_acyclic)
        << "acyclicity diverged at prefix " << i + 1 << "/" << beta.size();
    ASSERT_EQ(cert.conflict_edge_count(), batch.conflict_edge_count)
        << "conflict edges diverged at prefix " << i + 1;
    ASSERT_EQ(cert.precedes_edge_count(), batch.precedes_edge_count)
        << "precedes edges diverged at prefix " << i + 1;
    const Trace serial = SerialPart(prefix);
    ASSERT_EQ(cert.graph_fingerprint(),
              FingerprintSerializationGraph(
                  ConflictRelation(type, serial, mode),
                  PrecedesRelation(type, serial)))
        << "fingerprint diverged at prefix " << i + 1 << "/" << beta.size();
    // first_rejection_pos latches at the first not-OK prefix; it can be set
    // while the verdict is currently OK only if appropriateness flipped
    // back, which per-object replay allows (a late commit can repair a
    // previously diverging sequence) — but once set it never moves.
    if (!v.ok()) ASSERT_TRUE(cert.first_rejection_pos().has_value());
  }
}

// 150 seeds x both modes over a correct scheduler = 300 traces where the
// verdict should typically stay OK throughout.
TEST(IncrementalCertifierTest, MatchesBatchOnEveryPrefixMoss) {
  size_t prefixes = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    QuickRunResult run = SmallRun(seed, Backend::kMoss);
    ASSERT_TRUE(run.sim.stats.completed);
    for (ConflictMode mode :
         {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
      CheckEveryPrefix(*run.type, run.sim.trace, mode);
      if (HasFatalFailure()) return;
    }
    prefixes += run.sim.trace.size();
  }
  EXPECT_GT(prefixes, 1000u);
}

// 60 seeds x two broken schedulers x both modes = 240 traces, many of which
// the certifier must reject — and reject at the same prefix as batch.
TEST(IncrementalCertifierTest, MatchesBatchOnBrokenSchedulers) {
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (Backend backend :
         {Backend::kDirtyReadMoss, Backend::kNoReadLockMoss}) {
      QuickRunResult run = SmallRun(seed, backend);
      for (ConflictMode mode :
           {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
        CheckEveryPrefix(*run.type, run.sim.trace, mode);
        if (HasFatalFailure()) return;
        IncrementalCertifier cert(*run.type, mode);
        cert.IngestTrace(run.sim.trace);
        if (!cert.verdict().ok()) ++rejected;
      }
    }
  }
  // The broken schedulers must produce a healthy number of rejections, or
  // this test is not exercising the rejection path.
  EXPECT_GT(rejected, 10u);
}

// Commutativity mode against a non-read/write object type: 40 counter
// traces under the undo scheduler plus 40 under SGT.
TEST(IncrementalCertifierTest, MatchesBatchOnCounterObjects) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (Backend backend : {Backend::kUndo, Backend::kSgt}) {
      QuickRunResult run = SmallRun(seed, backend, ObjectType::kCounter);
      CheckEveryPrefix(*run.type, run.sim.trace,
                       ConflictMode::kCommutativity);
      if (HasFatalFailure()) return;
    }
  }
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
