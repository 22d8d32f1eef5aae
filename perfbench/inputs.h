#ifndef NTSG_PERFBENCH_INPUTS_H_
#define NTSG_PERFBENCH_INPUTS_H_

// Seeded input generation and the two on-disk forms the benchmark decodes:
// the text trace format (tx/trace_io.h) and a WAL TraceStore directory
// (tx/segment/trace_store.h). Generators are pure functions of their
// arguments, so one seed always yields byte-identical files.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "load/workloads.h"
#include "sg/conflicts.h"
#include "tx/system_type.h"
#include "tx/trace.h"

namespace ntsg::perfbench {

struct Generated {
  std::unique_ptr<SystemType> type;
  Trace trace;
  ConflictMode mode = ConflictMode::kReadWrite;
};

/// The EXPERIMENTS.md T10 shape: `num_ops` read/write accesses over 64
/// objects with Zipf(1.10) popularity, 5 accesses per top-level. Every
/// top-level is created before any access runs and every access is created
/// before the first one reports, so precedes(beta) is empty. Reads return
/// the serial replay's value, so the trace is legal by construction.
Generated GenerateZipf(uint64_t seed, size_t num_ops);

/// A `load` application workload (U_X behaviour, serially correct by
/// Theorem 25).
Generated GenerateLoad(load::Workload workload, size_t toplevel, size_t scale,
                       uint64_t seed);

/// Where one input is stored; both forms hold the same behaviour.
struct StoredInput {
  std::string text_path;
  std::string wal_dir;
  ConflictMode mode = ConflictMode::kReadWrite;
};

/// Writes `g` as a text trace and as a sealed WAL directory.
Status WriteInput(const Generated& g, const StoredInput& where);
/// Writes only the WAL directory, with `actions_per_segment` per segment.
Status WriteWal(const Generated& g, const std::string& dir,
                uint64_t actions_per_segment);

/// Replays a sealed WAL directory into a fresh `type` and `trace` (the text
/// form decodes with ReadTraceFile).
Status DecodeWal(const std::string& dir, SystemType* type, Trace* trace);

/// FNV-1a over the bytes of a file, or of every regular file in a
/// directory in name order; 0 with a non-OK status when unreadable.
Status HashPath(const std::string& path, uint64_t* hash);
/// Total size in bytes of a file, or of every regular file in a directory.
uint64_t PathBytes(const std::string& path);

}  // namespace ntsg::perfbench

#endif  // NTSG_PERFBENCH_INPUTS_H_
