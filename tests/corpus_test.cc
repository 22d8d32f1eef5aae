// Golden-corpus regression test. tests/corpus/ holds seeded traces (Moss,
// undo, MVTO, SGT, and deliberately broken backends) with their expected
// verdicts, edge counts, and serialization-graph fingerprints pinned in
// MANIFEST.tsv by tools/corpus_gen, plus the hand-built anomaly traces
// (iso_*.trace) whose per-level verdicts ISO_MANIFEST.tsv pins and whose
// rendered verdict vectors tests/golden/ holds byte for byte. oracle_test
// replays every row through every certifier configuration; this file keeps
// the corpus itself honest and pins the renderings.
//
// To refresh after an intentional semantic change:
//   ./build/tools/corpus_gen tests/corpus tests/golden
//   (then review the MANIFEST diff)

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "corpus_manifest.h"
#include "iso/checker.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

class CorpusTest : public ::testing::Test {
 protected:
  static std::vector<CorpusEntry> entries_;
  static void SetUpTestSuite() {
    for (CorpusEntry& e : LoadCorpusManifests()) {
      if (e.has_graph) entries_.push_back(e);
    }
  }
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

class IsoCorpusTest : public ::testing::Test {
 protected:
  static std::vector<CorpusEntry> entries_;
  static void SetUpTestSuite() {
    for (CorpusEntry& e : LoadCorpusManifests()) {
      if (e.has_iso) entries_.push_back(e);
    }
  }
};
std::vector<CorpusEntry> IsoCorpusTest::entries_;

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
      if (!e.iso_ok[i]) {
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

TEST_F(IsoCorpusTest, RenderedVerdictVectorsMatchGoldens) {
  for (const auto& e : entries_) {
    SystemType type;
    Trace trace;
    ASSERT_TRUE(ReadTraceFile(CorpusPath(e.file), &type, &trace).ok())
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
