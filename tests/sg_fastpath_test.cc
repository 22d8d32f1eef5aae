// Differential property suite for the SG(β) fast path: the frontier-based
// ConflictRelation, the flattened PrecedesRelation, and the frontier-backed
// IncrementalCertifier are checked edge for edge against the retained naive
// reference implementations (sg/reference.h) over 600+ seeded traces in
// both conflict modes — including every prefix of a trace through the
// incremental path and an out-of-order deep-reveal construction.

#include <gtest/gtest.h>

#include <vector>

#include "sg/conflicts.h"
#include "sg/fingerprint.h"
#include "sg/incremental_certifier.h"
#include "sg/reference.h"
#include "sim/driver.h"

namespace ntsg {
namespace {

QuickRunResult FastpathRun(uint64_t seed, Backend backend,
                           ObjectType object_type) {
  QuickRunParams params;
  params.config.backend = backend;
  params.config.seed = seed;
  params.num_objects = 3;
  params.object_type = object_type;
  params.num_toplevel = 3;
  params.gen.depth = 2;
  params.gen.fanout = 2;
  params.gen.read_prob = 0.5;
  return QuickRun(params);
}

/// One edge-for-edge comparison of the production relations against the
/// naive reference on `beta`: conflict and precedes. Both contracts promise
/// the same deduplicated (parent, from, to)-sorted vector, so plain vector
/// equality is the whole check.
void ExpectBatchParity(const SystemType& type, const Trace& beta,
                       ConflictMode mode, uint64_t seed) {
  Trace serial = SerialPart(beta);
  std::vector<SiblingEdge> naive = NaiveConflictRelation(type, serial, mode);
  std::vector<SiblingEdge> fast = ConflictRelation(type, serial, mode);
  ASSERT_EQ(fast, naive) << "conflict relation diverged, seed " << seed;
  ASSERT_EQ(PrecedesRelation(type, serial), NaivePrecedesRelation(type, serial))
      << "precedes relation diverged, seed " << seed;
}

// The bulk sweep: read/write objects through two schedulers in both
// conflict modes, plus counter objects (value-dependent commutativity)
// through one — more than 600 (trace, mode) combinations in total.
TEST(SgFastpathTest, BatchMatchesNaiveReferenceAcrossSeedsAndModes) {
  size_t combos = 0;
  for (uint64_t seed = 1; seed <= 130; ++seed) {
    for (Backend backend : {Backend::kMoss, Backend::kUndo}) {
      QuickRunResult run = FastpathRun(seed, backend, ObjectType::kReadWrite);
      ASSERT_TRUE(run.sim.stats.completed);
      for (ConflictMode mode :
           {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
        ExpectBatchParity(*run.type, run.sim.trace, mode, seed);
        if (HasFatalFailure()) return;
        ++combos;
      }
    }
  }
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    QuickRunResult run =
        FastpathRun(seed * 31 + 7, Backend::kUndo, ObjectType::kCounter);
    ASSERT_TRUE(run.sim.stats.completed);
    ExpectBatchParity(*run.type, run.sim.trace, ConflictMode::kCommutativity,
                      seed);
    if (HasFatalFailure()) return;
    ++combos;
  }
  EXPECT_GE(combos, 600u);
}

/// Ingests `beta` action by action; after every prefix the incremental
/// certifier's edge counts and graph fingerprint must equal the naive
/// reference built from scratch on that prefix.
void CheckEveryPrefixAgainstNaive(const SystemType& type, const Trace& beta,
                                  ConflictMode mode) {
  IncrementalCertifier cert(type, mode);
  Trace prefix;
  prefix.reserve(beta.size());
  for (size_t i = 0; i < beta.size(); ++i) {
    cert.Ingest(beta[i]);
    prefix.push_back(beta[i]);
    Trace serial = SerialPart(prefix);
    std::vector<SiblingEdge> conflict =
        NaiveConflictRelation(type, serial, mode);
    std::vector<SiblingEdge> precedes = NaivePrecedesRelation(type, serial);
    ASSERT_EQ(cert.conflict_edge_count(), conflict.size())
        << "conflict count diverged at prefix " << i + 1 << "/" << beta.size();
    ASSERT_EQ(cert.precedes_edge_count(), precedes.size())
        << "precedes count diverged at prefix " << i + 1;
    ASSERT_EQ(cert.graph_fingerprint(),
              FingerprintSerializationGraph(conflict, precedes))
        << "fingerprint diverged at prefix " << i + 1;
  }
}

TEST(SgFastpathTest, IncrementalMatchesNaiveReferenceAtEveryPrefix) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    QuickRunResult run =
        FastpathRun(seed, Backend::kMoss, ObjectType::kReadWrite);
    ASSERT_TRUE(run.sim.stats.completed);
    for (ConflictMode mode :
         {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
      CheckEveryPrefixAgainstNaive(*run.type, run.sim.trace, mode);
      if (HasFatalFailure()) return;
    }
  }
}

// A commit deep in the tree reveals an operation whose trace position is
// *earlier* than operations already visible: B's read activates before A's
// nested write because subtransaction S commits late. This drives the
// frontier's out-of-order insertion path (full rescan, watermarks
// untouched); every prefix must still match the naive reference exactly.
TEST(SgFastpathTest, OutOfOrderDeepRevealMatchesNaive) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X");
  TxName a = type.NewChild(kT0);
  TxName s = type.NewChild(a);
  TxName a1 = type.NewAccess(s, AccessSpec{x, OpCode::kWrite, 7});
  TxName b = type.NewChild(kT0);
  TxName b1 = type.NewAccess(b, AccessSpec{x, OpCode::kRead, 0});

  Trace beta = {
      Action::RequestCreate(a),  Action::Create(a),
      Action::RequestCreate(b),  Action::Create(b),
      Action::RequestCreate(s),  Action::Create(s),
      // The nested write runs first in trace order...
      Action::RequestCreate(a1), Action::Create(a1),
      Action::RequestCommit(a1, Value::Ok()), Action::Commit(a1),
      Action::ReportCommit(a1, Value::Ok()),
      // ...then B's read, whose ancestors all commit promptly, so it
      // becomes visible to T0 first.
      Action::RequestCreate(b1), Action::Create(b1),
      Action::RequestCommit(b1, Value::Int(7)), Action::Commit(b1),
      Action::ReportCommit(b1, Value::Int(7)),
      Action::RequestCommit(b, Value::Ok()), Action::Commit(b),
      Action::ReportCommit(b, Value::Ok()),
      // Only now do S and A commit, revealing a1 at its earlier position.
      Action::RequestCommit(s, Value::Ok()), Action::Commit(s),
      Action::ReportCommit(s, Value::Ok()),
      Action::RequestCommit(a, Value::Ok()), Action::Commit(a),
      Action::ReportCommit(a, Value::Ok()),
  };

  for (ConflictMode mode :
       {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
    CheckEveryPrefixAgainstNaive(type, beta, mode);
    ExpectBatchParity(type, beta, mode, /*seed=*/0);
  }
  // The reveal produces exactly the write->read edge between the toplevels.
  std::vector<SiblingEdge> conflict =
      ConflictRelation(type, SerialPart(beta), ConflictMode::kReadWrite);
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], (SiblingEdge{kT0, a, b}));
}

}  // namespace
}  // namespace ntsg
