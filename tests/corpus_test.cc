// Golden-corpus regression test. tests/corpus/ holds seeded traces (Moss,
// undo, MVTO, SGT, and deliberately broken backends) with their expected
// verdicts, edge counts, and serialization-graph fingerprints pinned in
// MANIFEST.tsv by tools/corpus_gen. Every entry is replayed through both
// certifier implementations — batch and incremental — so any drift in
// certification semantics, conflict detection, or fingerprinting fails
// loudly here before it reaches a fuzz tier.
//
// To refresh after an intentional semantic change:
//   ./build/tools/corpus_gen tests/corpus   (then review the MANIFEST diff)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "iso/checker.h"
#include "iso/incremental_iso.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

struct CorpusEntry {
  std::string file;
  ConflictMode mode;
  bool expect_ok;
  size_t conflict_edges;
  size_t precedes_edges;
  uint64_t fingerprint;
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
    std::string mode, verdict, fp;
    row >> e.file >> mode >> verdict >> e.conflict_edges >> e.precedes_edges >>
        fp;
    EXPECT_FALSE(row.fail()) << "bad manifest line: " << line;
    EXPECT_TRUE(mode == "read_write" || mode == "commutativity") << line;
    EXPECT_TRUE(verdict == "ok" || verdict == "rejected") << line;
    e.mode = mode == "read_write" ? ConflictMode::kReadWrite
                                  : ConflictMode::kCommutativity;
    e.expect_ok = verdict == "ok";
    e.fingerprint = std::stoull(fp, nullptr, 16);
    entries.push_back(e);
  }
  return entries;
}

class CorpusTest : public ::testing::Test {
 protected:
  static std::vector<CorpusEntry> entries_;
  static void SetUpTestSuite() { entries_ = LoadManifest(); }
};
std::vector<CorpusEntry> CorpusTest::entries_;

TEST_F(CorpusTest, CorpusIsSubstantialAndDiverse) {
  ASSERT_GE(entries_.size(), 20u);
  size_t ok = 0, rejected = 0, rw = 0, comm = 0;
  for (const auto& e : entries_) {
    (e.expect_ok ? ok : rejected) += 1;
    (e.mode == ConflictMode::kReadWrite ? rw : comm) += 1;
  }
  // Both verdicts and both conflict modes must be represented, or the corpus
  // has stopped guarding half the behavior space.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(rw, 0u);
  EXPECT_GT(comm, 0u);
}

TEST_F(CorpusTest, BatchCertifierMatchesGoldenVerdicts) {
  for (const auto& e : entries_) {
    SystemType type;
    Trace trace;
    Status st =
        ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file, &type,
                      &trace);
    ASSERT_TRUE(st.ok()) << e.file << ": " << st.ToString();
    ASSERT_FALSE(trace.empty()) << e.file;
    CertifierReport report = CertifySeriallyCorrect(type, trace, e.mode);
    EXPECT_EQ(report.status.ok(), e.expect_ok) << e.file;
  }
}

TEST_F(CorpusTest, IncrementalCertifierMatchesGoldenGraphs) {
  for (const auto& e : entries_) {
    SystemType type;
    Trace trace;
    ASSERT_TRUE(ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file,
                              &type, &trace)
                    .ok())
        << e.file;
    IncrementalCertifier cert(type, e.mode);
    cert.IngestTrace(trace);
    EXPECT_EQ(cert.verdict().ok(), e.expect_ok) << e.file;
    EXPECT_EQ(cert.conflict_edge_count(), e.conflict_edges) << e.file;
    EXPECT_EQ(cert.precedes_edge_count(), e.precedes_edges) << e.file;
    EXPECT_EQ(cert.graph_fingerprint(), e.fingerprint) << e.file;
  }
}

// ---------------------------------------------------------------------------
// Isolation-spectrum corpus: the hand-built anomaly traces (iso_*.trace)
// pin a pass/fail verdict per isolation level and an anomaly label in
// ISO_MANIFEST.tsv, plus a byte-exact rendered verdict vector under
// tests/golden/. Refresh with:
//   ./build/tools/corpus_gen tests/corpus tests/golden

struct IsoCorpusEntry {
  std::string file;
  ConflictMode mode;
  bool ok[kNumIsoLevels];
  std::string anomaly;  // at the first failing level; "none" if all pass
};

std::vector<IsoCorpusEntry> LoadIsoManifest() {
  std::ifstream in(std::string(NTSG_CORPUS_DIR) + "/ISO_MANIFEST.tsv");
  EXPECT_TRUE(in.good()) << "missing " NTSG_CORPUS_DIR "/ISO_MANIFEST.tsv";
  std::vector<IsoCorpusEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    IsoCorpusEntry e;
    std::string mode, verdict[kNumIsoLevels];
    row >> e.file >> mode;
    for (size_t i = 0; i < kNumIsoLevels; ++i) row >> verdict[i];
    row >> e.anomaly;
    EXPECT_FALSE(row.fail()) << "bad iso manifest line: " << line;
    EXPECT_TRUE(mode == "read_write" || mode == "commutativity") << line;
    e.mode = mode == "read_write" ? ConflictMode::kReadWrite
                                  : ConflictMode::kCommutativity;
    for (size_t i = 0; i < kNumIsoLevels; ++i) {
      EXPECT_TRUE(verdict[i] == "pass" || verdict[i] == "fail") << line;
      e.ok[i] = verdict[i] == "pass";
    }
    entries.push_back(e);
  }
  return entries;
}

class IsoCorpusTest : public ::testing::Test {
 protected:
  static std::vector<IsoCorpusEntry> entries_;
  static void SetUpTestSuite() { entries_ = LoadIsoManifest(); }
};
std::vector<IsoCorpusEntry> IsoCorpusTest::entries_;

TEST_F(IsoCorpusTest, CorpusCoversTheAnomalySpectrum) {
  ASSERT_GE(entries_.size(), 10u);
  std::vector<std::string> anomalies;
  size_t clean = 0, first_fail_per_level[kNumIsoLevels] = {0};
  for (const auto& e : entries_) {
    if (e.anomaly == "none") {
      ++clean;
      continue;
    }
    anomalies.push_back(e.anomaly);
    for (size_t i = 0; i < kNumIsoLevels; ++i) {
      if (!e.ok[i]) {
        ++first_fail_per_level[i];
        break;
      }
    }
  }
  // Clean controls plus first-failures at every level of the spectrum.
  EXPECT_GE(clean, 2u);
  for (size_t i = 0; i < kNumIsoLevels; ++i) {
    EXPECT_GT(first_fail_per_level[i], 0u)
        << "no corpus entry first fails at "
        << IsoLevelName(static_cast<IsoLevel>(i));
  }
  std::sort(anomalies.begin(), anomalies.end());
  anomalies.erase(std::unique(anomalies.begin(), anomalies.end()),
                  anomalies.end());
  EXPECT_GE(anomalies.size(), 6u);
}

TEST_F(IsoCorpusTest, BatchVerdictVectorsMatchManifest) {
  for (const auto& e : entries_) {
    SystemType type;
    Trace trace;
    ASSERT_TRUE(ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file,
                              &type, &trace)
                    .ok())
        << e.file;
    IsoVerdictVector vv = CheckIsolationLevels(type, trace, e.mode);
    EXPECT_TRUE(vv.Monotone()) << e.file;
    for (size_t i = 0; i < kNumIsoLevels; ++i) {
      EXPECT_EQ(vv.levels[i].ok, e.ok[i])
          << e.file << " at " << IsoLevelName(static_cast<IsoLevel>(i));
    }
    if (e.anomaly == "none") {
      EXPECT_TRUE(vv.AllOk()) << e.file;
    } else {
      ASSERT_LT(vv.FirstFailing(), kNumIsoLevels) << e.file;
      EXPECT_EQ(AnomalyKindName(vv.levels[vv.FirstFailing()].violation.anomaly),
                e.anomaly)
          << e.file;
    }
  }
}

TEST_F(IsoCorpusTest, IncrementalCheckerMatchesManifest) {
  for (const auto& e : entries_) {
    SystemType type;
    Trace trace;
    ASSERT_TRUE(ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file,
                              &type, &trace)
                    .ok())
        << e.file;
    IncrementalIsoChecker inc(type, e.mode);
    inc.IngestTrace(trace);
    IsoVerdictVector vv = inc.Verdict();
    for (size_t i = 0; i < kNumIsoLevels; ++i) {
      EXPECT_EQ(vv.levels[i].ok, e.ok[i])
          << e.file << " at " << IsoLevelName(static_cast<IsoLevel>(i));
    }
  }
}

TEST_F(IsoCorpusTest, RenderedVerdictVectorsMatchGoldens) {
  for (const auto& e : entries_) {
    SystemType type;
    Trace trace;
    ASSERT_TRUE(ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + e.file,
                              &type, &trace)
                    .ok())
        << e.file;
    std::string golden_path = std::string(NTSG_GOLDEN_DIR) + "/" +
                              e.file.substr(0, e.file.size() - 6) +
                              ".verdict.txt";
    std::ifstream golden_in(golden_path);
    ASSERT_TRUE(golden_in.good()) << "missing " << golden_path;
    std::string golden((std::istreambuf_iterator<char>(golden_in)),
                       std::istreambuf_iterator<char>());
    IsoVerdictVector vv = CheckIsolationLevels(type, trace, e.mode);
    EXPECT_EQ(vv.ToString(type), golden) << e.file;
  }
}

}  // namespace
}  // namespace ntsg
