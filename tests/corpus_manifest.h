// The one reader of the golden corpus manifests. tests/corpus/MANIFEST.tsv
// pins each certifier trace's verdict, edge counts and SG(β) fingerprint;
// ISO_MANIFEST.tsv pins each isolation trace's per-level verdicts and the
// anomaly named at its first failing level. Both are written by
// tools/corpus_gen and read here for corpus_test and oracle_test.

#ifndef NTSG_TESTS_CORPUS_MANIFEST_H_
#define NTSG_TESTS_CORPUS_MANIFEST_H_

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "iso/levels.h"
#include "sg/conflicts.h"

namespace ntsg {

struct CorpusEntry {
  std::string file;
  ConflictMode mode = ConflictMode::kReadWrite;

  // A MANIFEST.tsv row.
  bool has_graph = false;
  bool expect_ok = false;
  size_t conflict_edges = 0;
  size_t precedes_edges = 0;
  uint64_t fingerprint = 0;

  // An ISO_MANIFEST.tsv row.
  bool has_iso = false;
  std::array<bool, kNumIsoLevels> iso_ok{};
  std::string anomaly;  // at the first failing level; "none" if all pass
};

inline std::string CorpusPath(const std::string& file) {
  return std::string(NTSG_CORPUS_DIR) + "/" + file;
}

/// Every row of both manifests, MANIFEST.tsv first. A malformed row is a
/// test failure.
inline std::vector<CorpusEntry> LoadCorpusManifests() {
  std::vector<CorpusEntry> entries;
  for (const char* manifest : {"MANIFEST.tsv", "ISO_MANIFEST.tsv"}) {
    const bool iso = std::string(manifest) == "ISO_MANIFEST.tsv";
    std::ifstream in(CorpusPath(manifest));
    EXPECT_TRUE(in.good()) << "missing " << CorpusPath(manifest);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream row(line);
      CorpusEntry e;
      std::string mode;
      row >> e.file >> mode;
      if (iso) {
        e.has_iso = true;
        for (bool& ok : e.iso_ok) {
          std::string verdict;
          row >> verdict;
          EXPECT_TRUE(verdict == "pass" || verdict == "fail") << line;
          ok = verdict == "pass";
        }
        row >> e.anomaly;
      } else {
        e.has_graph = true;
        std::string verdict, fp;
        row >> verdict >> e.conflict_edges >> e.precedes_edges >> fp;
        EXPECT_TRUE(verdict == "ok" || verdict == "rejected") << line;
        e.expect_ok = verdict == "ok";
        e.fingerprint = std::stoull(fp, nullptr, 16);
      }
      EXPECT_FALSE(row.fail()) << "bad " << manifest << " line: " << line;
      EXPECT_TRUE(mode == "read_write" || mode == "commutativity") << line;
      e.mode = mode == "read_write" ? ConflictMode::kReadWrite
                                    : ConflictMode::kCommutativity;
      entries.push_back(e);
    }
  }
  return entries;
}

}  // namespace ntsg

#endif  // NTSG_TESTS_CORPUS_MANIFEST_H_
