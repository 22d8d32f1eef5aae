// corpus_gen — regenerates the golden trace corpus under tests/corpus/.
//
//   corpus_gen <output-dir> [golden-dir] [--binary-dir=DIR]
//
// With --binary-dir=DIR every entry is also written as a binary segment
// twin (<name>.ntsgs); each twin is read back, re-certified, and its
// verdict, edge counts, and graph fingerprint must be byte-identical to the
// text entry's before the generator reports success.
//
// Each corpus entry is a seeded simulator run saved in the ntsg-trace
// format, together with a MANIFEST.tsv line recording the expected
// certification outcome and the canonical serialization-graph fingerprint:
//
//   <file> <mode> <ok|rejected> <conflict-edges> <precedes-edges> <fp-hex>
//
// The hand-built anomaly templates (iso/anomaly_traces.h) are emitted
// alongside as iso_<template>.trace, pinned by ISO_MANIFEST.tsv:
//
//   <file> <mode> <rc> <ra> <si> <ser> <anomaly>     (pass|fail per level)
//
// and, when [golden-dir] is given, each template's rendered verdict vector
// is written there as iso_<template>.verdict.txt for byte-exact comparison.
//
// The corpus pins today's verdicts as goldens: oracle_test replays every
// entry through every certifier configuration and fails on any drift from
// its manifest row, and corpus_test pins the renderings. Regenerate (and review the diff!) only when an intentional
// semantic change moves a golden.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "iso/anomaly_traces.h"
#include "iso/checker.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"
#include "sim/driver.h"
#include "tx/segment/segment_reader.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

struct CorpusSpec {
  const char* name;
  Backend backend;
  ObjectType object_type;
  uint64_t seed;
  size_t toplevel;
  int depth;
};

// ~20 entries spanning the implemented backends, both conflict modes, deep
// and shallow nesting, and the deliberately broken variants (whose REJECTED
// verdicts are exactly what regression tests must keep rejecting).
const CorpusSpec kSpecs[] = {
    {"moss_small_1", Backend::kMoss, ObjectType::kReadWrite, 1, 4, 2},
    {"moss_small_2", Backend::kMoss, ObjectType::kReadWrite, 2, 4, 2},
    {"moss_wide", Backend::kMoss, ObjectType::kReadWrite, 3, 10, 1},
    {"moss_deep", Backend::kMoss, ObjectType::kReadWrite, 4, 4, 3},
    {"moss_large", Backend::kMoss, ObjectType::kReadWrite, 5, 12, 2},
    {"undo_counter_1", Backend::kUndo, ObjectType::kCounter, 6, 6, 2},
    {"undo_counter_2", Backend::kUndo, ObjectType::kCounter, 7, 6, 2},
    {"undo_set", Backend::kUndo, ObjectType::kSet, 8, 6, 2},
    {"undo_queue", Backend::kUndo, ObjectType::kQueue, 9, 5, 2},
    {"undo_bank", Backend::kUndo, ObjectType::kBankAccount, 10, 6, 2},
    {"mvto_1", Backend::kMvto, ObjectType::kReadWrite, 11, 6, 2},
    {"mvto_2", Backend::kMvto, ObjectType::kReadWrite, 12, 8, 2},
    {"mvto_deep", Backend::kMvto, ObjectType::kReadWrite, 13, 4, 3},
    {"sgt_counter", Backend::kSgt, ObjectType::kCounter, 14, 6, 2},
    {"sgt_rw", Backend::kSgt, ObjectType::kReadWrite, 15, 6, 2},
    {"locking_counter", Backend::kGeneralLocking, ObjectType::kCounter, 16, 6,
     2},
    {"broken_dirty_read_1", Backend::kDirtyReadMoss, ObjectType::kReadWrite,
     17, 8, 2},
    {"broken_dirty_read_2", Backend::kDirtyReadMoss, ObjectType::kReadWrite,
     18, 8, 2},
    {"broken_no_read_lock", Backend::kNoReadLockMoss, ObjectType::kReadWrite,
     19, 8, 2},
    {"broken_no_commute", Backend::kNoCommuteUndo, ObjectType::kCounter, 20,
     8, 2},
    // Seeds hunted so the rejection is specifically a serialization-graph
    // cycle (not just inappropriate return values): these anchor the
    // `ntsg explain` golden tests, which need witness cycles to print.
    {"broken_cycle_counter", Backend::kNoCommuteUndo, ObjectType::kCounter,
     23, 8, 2},
    {"broken_cycle_rw", Backend::kDirtyReadMoss, ObjectType::kReadWrite, 34,
     8, 2},
};

// Writes <name>.ntsgs into binary_dir and proves the twin is faithful: the
// binary file is read back and its decoded system + trace must re-serialize
// to exactly the same text as the original. Byte-equal serializations imply
// identical certification verdicts and fingerprints across formats.
// Alternates the codec per entry so the corpus pins both raw and RLE paths.
int WriteBinaryTwin(const std::string& binary_dir, const std::string& name,
                    const SystemType& type, const Trace& trace,
                    size_t entry_index) {
  seg::Codec codec =
      entry_index % 2 == 0 ? seg::Codec::kRaw : seg::Codec::kRle;
  std::string path = binary_dir + "/" + name + ".ntsgs";
  Status st = seg::WriteBinaryTraceFile(path, type, trace, {}, codec);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
    return 1;
  }
  SystemType type2;
  Trace trace2;
  SiblingOrders orders2;
  st = seg::ReadBinaryTraceFile(path, &type2, &trace2, &orders2);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: re-read failed: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (SerializeSystemAndTrace(type, trace) !=
      SerializeSystemAndTrace(type2, trace2, orders2)) {
    std::fprintf(stderr, "%s: binary twin diverges from text entry\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

int Generate(const std::string& out_dir, const std::string& binary_dir) {
  std::ofstream manifest(out_dir + "/MANIFEST.tsv");
  if (!manifest) {
    std::fprintf(stderr, "cannot write %s/MANIFEST.tsv\n", out_dir.c_str());
    return 1;
  }
  size_t entry_index = 0;
  for (const CorpusSpec& spec : kSpecs) {
    QuickRunParams params;
    params.config.backend = spec.backend;
    params.config.seed = spec.seed;
    params.num_objects = 5;
    params.object_type = spec.object_type;
    params.num_toplevel = spec.toplevel;
    params.gen.depth = spec.depth;
    params.gen.fanout = 3;
    params.gen.read_prob = 0.5;
    QuickRunResult run = QuickRun(params);
    if (!run.sim.stats.completed) {
      std::fprintf(stderr, "%s: run did not complete\n", spec.name);
      return 1;
    }

    ConflictMode mode = spec.object_type == ObjectType::kReadWrite
                            ? ConflictMode::kReadWrite
                            : ConflictMode::kCommutativity;
    CertifierReport batch =
        CertifySeriallyCorrect(*run.type, run.sim.trace, mode);
    IncrementalCertifier cert(*run.type, mode);
    cert.IngestTrace(run.sim.trace);
    if (batch.status.ok() != cert.verdict().ok()) {
      std::fprintf(stderr, "%s: batch and incremental disagree\n", spec.name);
      return 1;
    }

    std::string file = std::string(spec.name) + ".trace";
    Status st = WriteTraceFile(out_dir + "/" + file, *run.type,
                               run.sim.trace);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name, st.ToString().c_str());
      return 1;
    }
    if (!binary_dir.empty()) {
      int rc = WriteBinaryTwin(binary_dir, spec.name, *run.type,
                               run.sim.trace, entry_index++);
      if (rc != 0) return rc;
    }
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(cert.graph_fingerprint()));
    manifest << file << "\t"
             << (mode == ConflictMode::kReadWrite ? "read_write"
                                                  : "commutativity")
             << "\t" << (batch.status.ok() ? "ok" : "rejected") << "\t"
             << cert.conflict_edge_count() << "\t"
             << cert.precedes_edge_count() << "\t" << fp << "\n";
    std::printf("%-22s %s  events=%zu  conflict=%zu precedes=%zu fp=%s\n",
                spec.name, batch.status.ok() ? "ok      " : "rejected",
                run.sim.trace.size(), cert.conflict_edge_count(),
                cert.precedes_edge_count(), fp);
  }
  return 0;
}

// Emits every hand-built anomaly template (salt 0) with its expected
// per-level verdict vector, sanity-checking before pinning: the vector must
// be monotone and every failing level's witness must survive the
// independent re-verification.
int GenerateIso(const std::string& out_dir, const std::string& golden_dir,
                const std::string& binary_dir) {
  std::ofstream manifest(out_dir + "/ISO_MANIFEST.tsv");
  if (!manifest) {
    std::fprintf(stderr, "cannot write %s/ISO_MANIFEST.tsv\n",
                 out_dir.c_str());
    return 1;
  }
  for (size_t i = 0; i < kNumAnomalyTemplates; ++i) {
    AnomalyTemplate t = static_cast<AnomalyTemplate>(i);
    const char* name = AnomalyTemplateName(t);
    BuiltTrace built = BuildAnomalyTrace(t);
    IsoVerdictVector vv = CheckIsolationLevels(*built.type, built.trace,
                                               ConflictMode::kReadWrite);
    if (!vv.Monotone()) {
      std::fprintf(stderr, "iso_%s: verdict vector is not monotone\n", name);
      return 1;
    }
    for (const IsoLevelVerdict& lv : vv.levels) {
      if (!lv.ok && !lv.violation.witness_verified) {
        std::fprintf(stderr, "iso_%s: %s witness failed re-verification\n",
                     name, IsoLevelName(lv.level));
        return 1;
      }
    }

    std::string file = std::string("iso_") + name + ".trace";
    Status st = WriteTraceFile(out_dir + "/" + file, *built.type,
                               built.trace);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(), st.ToString().c_str());
      return 1;
    }
    if (!binary_dir.empty()) {
      int rc = WriteBinaryTwin(binary_dir, std::string("iso_") + name,
                               *built.type, built.trace, i);
      if (rc != 0) return rc;
    }
    manifest << file << "\tread_write";
    for (const IsoLevelVerdict& lv : vv.levels) {
      manifest << "\t" << (lv.ok ? "pass" : "fail");
    }
    size_t first = vv.FirstFailing();
    manifest << "\t"
             << (vv.AllOk() ? "none"
                            : AnomalyKindName(vv.levels[first].violation.anomaly))
             << "\n";

    if (!golden_dir.empty()) {
      std::string golden = golden_dir + "/" + "iso_" + name + ".verdict.txt";
      std::ofstream out(golden);
      out << vv.ToString(*built.type);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", golden.c_str());
        return 1;
      }
    }
    std::printf("%-26s %s\n", file.c_str(),
                vv.AllOk()
                    ? "all pass"
                    : AnomalyKindName(vv.levels[first].violation.anomaly));
  }
  return 0;
}

}  // namespace
}  // namespace ntsg

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string binary_dir;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--binary-dir=", 0) == 0) {
      binary_dir = arg.substr(std::string("--binary-dir=").size());
      if (binary_dir.empty()) {
        std::fprintf(stderr, "--binary-dir requires a directory\n");
        return 2;
      }
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty() || positional.size() > 2) {
    std::fprintf(stderr,
                 "usage: corpus_gen <output-dir> [golden-dir] "
                 "[--binary-dir=DIR]\n");
    return 2;
  }
  int rc = ntsg::Generate(positional[0], binary_dir);
  if (rc != 0) return rc;
  return ntsg::GenerateIso(positional[0],
                           positional.size() == 2 ? positional[1] : "",
                           binary_dir);
}
