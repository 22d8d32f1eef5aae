// The fault-injection guarantee, enforced: fault plans are deterministic;
// re-inserting an operation is idempotent; snapshot/restore resumes a
// certifier without re-ingesting the prefix; for every seeded workload ×
// fault plan, crashing the certifier and restoring it from its snapshots
// (CertifyWithCrashes, the recovery `ntsg chaos` runs) lands on the
// uninterrupted run's verdict, rejection point, graph fingerprint and GC
// schedule; and plan-driven faults in the simulation driver and SGT
// coordinator leave the produced behaviors serially correct.
//
// The crash suite covers 25 workload seeds × 4 fault-plan seeds × both
// conflict modes = 200 (workload, plan) pairs, half of them with the
// commit-watermark collector on.

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"
#include "sim/chaos.h"
#include "sim/driver.h"

namespace ntsg {
namespace {

QuickRunResult MakeWorkload(uint64_t seed, ObjectType object_type,
                            Backend backend = Backend::kMoss) {
  QuickRunParams params;
  params.config.backend = backend;
  params.config.seed = seed;
  params.num_objects = 6;
  params.object_type = object_type;
  params.num_toplevel = 6;
  params.gen.depth = 2;
  params.gen.fanout = 3;
  params.gen.read_prob = 0.5;
  return QuickRun(params);
}

// --- FaultPlan / FaultInjector basics ---------------------------------------

TEST(FaultPlanTest, GenerationIsDeterministic) {
  FaultPlanParams params;
  params.injected_aborts = 2;
  FaultPlan a = FaultPlan::Generate(42, 1000, params);
  FaultPlan b = FaultPlan::Generate(42, 1000, params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].param, b.events[i].param);
  }
  FaultPlan c = FaultPlan::Generate(43, 1000, params);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultPlanTest, RespectsParamsAndHorizon) {
  FaultPlanParams params;
  params.crashes = 3;
  params.snapshots = 0;
  params.injected_aborts = 4;
  params.spurious_rejects = 1;
  FaultPlan plan = FaultPlan::Generate(7, 500, params);
  size_t crashes = 0, snaps = 0, aborts = 0, rejects = 0;
  uint64_t prev = 0;
  for (const FaultEvent& e : plan.events) {
    EXPECT_LT(e.at, 500u);
    EXPECT_GE(e.at, prev);  // sorted
    prev = e.at;
    switch (e.kind) {
      case FaultKind::kCrashWorker:
        ++crashes;
        break;
      case FaultKind::kSnapshotWorker:
        ++snaps;
        break;
      case FaultKind::kInjectAbort:
        ++aborts;
        break;
      case FaultKind::kSpuriousReject:
        ++rejects;
        break;
    }
  }
  EXPECT_EQ(crashes, 3u);
  EXPECT_EQ(snaps, 0u);
  EXPECT_EQ(aborts, 4u);
  EXPECT_EQ(rejects, 1u);
}

TEST(FaultInjectorTest, FiltersKindsAndFiresMonotonically) {
  FaultPlan plan;
  plan.events.push_back({5, FaultKind::kCrashWorker, 0});
  plan.events.push_back({5, FaultKind::kInjectAbort, 9});
  plan.events.push_back({10, FaultKind::kSnapshotWorker, 0});
  FaultInjector injector(plan,
                         {FaultKind::kCrashWorker, FaultKind::kSnapshotWorker});
  std::vector<FaultEvent> fired;
  EXPECT_FALSE(injector.Poll(4, &fired));
  EXPECT_TRUE(fired.empty());
  EXPECT_TRUE(injector.Poll(7, &fired));
  ASSERT_EQ(fired.size(), 1u);  // the InjectAbort was filtered out
  EXPECT_EQ(fired[0].kind, FaultKind::kCrashWorker);
  fired.clear();
  EXPECT_TRUE(injector.Poll(100, &fired));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, FaultKind::kSnapshotWorker);
  EXPECT_EQ(injector.pending(), 0u);
}

// --- Idempotency of re-insertion ---------------------------------------------

TEST(IdempotencyTest, DuplicateInsertVisibleOpIsExactNoOp) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName top = type.NewChild(kT0);
  TxName w = type.NewAccess(top, AccessSpec{x, OpCode::kWrite, 5});
  TxName r = type.NewAccess(top, AccessSpec{x, OpCode::kRead, 0});

  ObjectIngestState state(type, x, ConflictMode::kReadWrite);
  std::vector<SiblingEdge> edges;
  state.InsertVisibleOp(3, w, Value::Ok(), &edges);
  EXPECT_TRUE(edges.empty());
  state.InsertVisibleOp(8, r, Value::Int(5), &edges);
  ASSERT_EQ(edges.size(), 1u);  // w conflicts r
  EXPECT_EQ(edges[0], (SiblingEdge{top, w, r}));
  EXPECT_TRUE(state.legal());

  // Re-insert both; nothing may change, in particular no re-emitted edges.
  edges.clear();
  state.InsertVisibleOp(3, w, Value::Ok(), &edges);
  state.InsertVisibleOp(8, r, Value::Int(5), &edges);
  EXPECT_TRUE(edges.empty());
  EXPECT_EQ(state.op_count(), 2u);
  EXPECT_TRUE(state.legal());
}

// --- Certifier snapshot / restore --------------------------------------------

TEST(SnapshotRestoreTest, RestoredCertifierResumesFromCheckpoint) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    QuickRunResult run = MakeWorkload(seed, ObjectType::kReadWrite);
    ASSERT_TRUE(run.sim.stats.completed);
    const Trace& beta = run.sim.trace;

    IncrementalCertifier full(*run.type, ConflictMode::kReadWrite);
    full.IngestTrace(beta);

    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    size_t half = beta.size() / 2;
    for (size_t i = 0; i < half; ++i) cert.Ingest(beta[i]);
    IncrementalCertifier snapshot = cert;  // checkpoint mid-stream

    for (size_t i = half; i < beta.size(); ++i) cert.Ingest(beta[i]);

    // "Crash": discard cert's live state; resume from the checkpoint and
    // re-ingest only the suffix.
    IncrementalCertifier restored = snapshot;
    for (size_t i = half; i < beta.size(); ++i) restored.Ingest(beta[i]);

    EXPECT_EQ(restored.verdict().ok(), full.verdict().ok());
    EXPECT_EQ(restored.conflict_edge_count(), full.conflict_edge_count());
    EXPECT_EQ(restored.precedes_edge_count(), full.precedes_edge_count());
    EXPECT_EQ(restored.graph_fingerprint(), full.graph_fingerprint());
    EXPECT_EQ(cert.graph_fingerprint(), full.graph_fingerprint());
  }
}

TEST(SnapshotRestoreTest, SnapshotIsUnaffectedByLaterIngest) {
  QuickRunResult run = MakeWorkload(9, ObjectType::kCounter, Backend::kUndo);
  const Trace& beta = run.sim.trace;
  IncrementalCertifier cert(*run.type, ConflictMode::kCommutativity);
  size_t third = beta.size() / 3;
  for (size_t i = 0; i < third; ++i) cert.Ingest(beta[i]);
  IncrementalCertifier snapshot = cert;
  uint64_t fp_at_snapshot = snapshot.graph_fingerprint();
  size_t edges_at_snapshot = snapshot.conflict_edge_count();
  for (size_t i = third; i < beta.size(); ++i) cert.Ingest(beta[i]);
  EXPECT_EQ(snapshot.graph_fingerprint(), fp_at_snapshot);
  EXPECT_EQ(snapshot.conflict_edge_count(), edges_at_snapshot);
  EXPECT_EQ(snapshot.actions_ingested(), third);
}

// --- Certifier crash recovery -------------------------------------------------

struct ModeCase {
  ObjectType object_type;
  ConflictMode mode;
};

// 25 workload seeds × 4 plan seeds × 2 conflict modes = 200 pairs. Every
// third workload runs a deliberately broken backend, so the suite also
// proves that *rejected* verdicts and their rejection points are stable
// under crashes. Odd plan seeds run with GC on: a snapshot carries the
// collector's state, so the restored run retires exactly the families the
// uninterrupted one does.
TEST(CrashRecoveryTest, VerdictAndFingerprintSurviveEveryPlan) {
  const ModeCase kModes[] = {
      {ObjectType::kReadWrite, ConflictMode::kReadWrite},
      {ObjectType::kCounter, ConflictMode::kCommutativity},
  };
  size_t pairs = 0;
  FaultStats total;
  size_t rejected_workloads = 0;
  size_t retired = 0;
  for (const ModeCase& mc : kModes) {
    for (uint64_t workload_seed = 1; workload_seed <= 25; ++workload_seed) {
      bool broken = workload_seed % 3 == 0;
      Backend backend =
          mc.object_type == ObjectType::kReadWrite
              ? (broken ? Backend::kDirtyReadMoss : Backend::kMoss)
              : (broken ? Backend::kNoCommuteUndo : Backend::kUndo);
      QuickRunResult run = MakeWorkload(workload_seed, mc.object_type,
                                        backend);
      const Trace& beta = run.sim.trace;

      for (uint64_t plan_seed = 1; plan_seed <= 4; ++plan_seed) {
        GcOptions gc;
        gc.interval = plan_seed % 2 == 1 ? 8 + workload_seed : 0;
        IncrementalCertifier clean(*run.type, mc.mode, gc);
        clean.IngestTrace(beta);
        if (plan_seed == 1 && !clean.verdict().ok()) ++rejected_workloads;

        FaultPlanParams params;
        params.crashes = 3;
        params.snapshots = 2;
        FaultPlan plan = FaultPlan::Generate(plan_seed * 1000 + workload_seed,
                                             beta.size(), params);
        FaultStats stats;
        IncrementalCertifier chaotic = CertifyWithCrashes(
            IncrementalCertifier(*run.type, mc.mode, gc), beta, plan, &stats);

        ++pairs;
        total.crashes += stats.crashes;
        total.items_replayed += stats.items_replayed;
        retired += chaotic.retired_roots().size();
        const std::string label = "workload " + std::to_string(workload_seed) +
                                  " plan " + std::to_string(plan_seed);
        ASSERT_EQ(chaotic.verdict().appropriate, clean.verdict().appropriate)
            << label;
        ASSERT_EQ(chaotic.verdict().acyclic, clean.verdict().acyclic) << label;
        ASSERT_EQ(chaotic.first_rejection_pos(), clean.first_rejection_pos())
            << label;
        ASSERT_EQ(chaotic.graph_fingerprint(), clean.graph_fingerprint())
            << label;
        ASSERT_EQ(chaotic.conflict_edge_count(), clean.conflict_edge_count());
        ASSERT_EQ(chaotic.precedes_edge_count(), clean.precedes_edge_count());
        ASSERT_EQ(chaotic.SortedRetiredRoots(), clean.SortedRetiredRoots())
            << label;
        ASSERT_EQ(chaotic.actions_ingested(), beta.size()) << label;
      }
    }
  }
  EXPECT_EQ(pairs, 200u);
  EXPECT_EQ(total.crashes, 600u);      // every planned crash fired
  EXPECT_GT(total.items_replayed, 0u);  // and recovery re-fed actions
  EXPECT_GT(rejected_workloads, 0u);    // rejected verdicts were covered too
  EXPECT_GT(retired, 0u);               // GC genuinely ran under crashes
}

// --- Driver-level faults -----------------------------------------------------

TEST(DriverFaultTest, PlanAbortsAreDeterministicAndStayCorrect) {
  FaultPlanParams params;
  params.crashes = 0;
  params.snapshots = 0;
  params.injected_aborts = 4;
  FaultPlan plan = FaultPlan::Generate(77, 800, params);

  auto run_once = [&] {
    QuickRunParams p;
    p.config.seed = 21;
    p.num_objects = 6;
    p.num_toplevel = 6;
    p.gen.depth = 2;
    p.gen.fanout = 3;
    p.config.fault_plan = &plan;
    return QuickRun(p);
  };
  QuickRunResult a = run_once();
  QuickRunResult b = run_once();
  ASSERT_TRUE(a.sim.stats.completed);
  EXPECT_GT(a.sim.stats.plan_aborts_injected, 0u);
  EXPECT_EQ(a.sim.stats.plan_aborts_injected, b.sim.stats.plan_aborts_injected);
  EXPECT_EQ(a.sim.trace.size(), b.sim.trace.size());

  // Same trace, byte for byte: the plan replays exactly.
  IncrementalCertifier ca(*a.type, ConflictMode::kReadWrite);
  ca.IngestTrace(a.sim.trace);
  IncrementalCertifier cb(*b.type, ConflictMode::kReadWrite);
  cb.IngestTrace(b.sim.trace);
  EXPECT_EQ(ca.graph_fingerprint(), cb.graph_fingerprint());

  // Injected aborts are legal controller moves: the behavior still
  // certifies.
  CertifierReport report =
      CertifySeriallyCorrect(*a.type, a.sim.trace, ConflictMode::kReadWrite);
  EXPECT_TRUE(report.status.ok());
}

TEST(DriverFaultTest, SpuriousRejectsLeaveSgtSeriallyCorrect) {
  FaultPlanParams params;
  params.crashes = 0;
  params.snapshots = 0;
  params.injected_aborts = 2;
  params.spurious_rejects = 4;
  FaultPlan plan = FaultPlan::Generate(13, 400, params);

  QuickRunParams p;
  p.config.backend = Backend::kSgt;
  p.config.seed = 31;
  p.num_objects = 6;
  p.num_toplevel = 6;
  p.gen.depth = 2;
  p.gen.fanout = 3;
  p.config.fault_plan = &plan;
  QuickRunResult run = QuickRun(p);
  ASSERT_TRUE(run.sim.stats.completed);
  EXPECT_GT(run.sim.stats.spurious_rejects_injected, 0u);

  CertifierReport report = CertifySeriallyCorrect(*run.type, run.sim.trace,
                                                  ConflictMode::kReadWrite);
  EXPECT_TRUE(report.status.ok());
}

}  // namespace
}  // namespace ntsg
