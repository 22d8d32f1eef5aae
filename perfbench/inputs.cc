#include "perfbench/inputs.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <vector>

#include "common/rng.h"
#include "tx/segment/trace_store.h"
#include "tx/trace_io.h"

namespace ntsg::perfbench {

Generated GenerateZipf(uint64_t seed, size_t num_ops) {
  constexpr size_t kObjects = 64;
  constexpr size_t kOpsPerTop = 5;
  constexpr double kZipfS = 1.10;

  Generated out;
  out.type = std::make_unique<SystemType>();
  out.mode = ConflictMode::kReadWrite;
  SystemType& type = *out.type;
  std::vector<ObjectId> objects;
  for (size_t i = 0; i < kObjects; ++i) {
    std::string name = "X";
    name += std::to_string(i);
    objects.push_back(type.AddObject(ObjectType::kReadWrite, name));
  }
  std::vector<int64_t> current(kObjects, 0);  // serial replay per object
  Rng rng(seed);
  ZipfSampler zipf(kObjects, kZipfS);

  std::vector<TxName> tops((num_ops + kOpsPerTop - 1) / kOpsPerTop);
  for (TxName& p : tops) {
    p = type.NewChild(kT0);
    out.trace.push_back(Action::RequestCreate(p));
    out.trace.push_back(Action::Create(p));
  }
  size_t remaining = num_ops;
  std::vector<TxName> accesses;
  for (TxName p : tops) {
    const size_t k = std::min(kOpsPerTop, remaining);
    remaining -= k;
    accesses.clear();
    for (size_t j = 0; j < k; ++j) {
      const ObjectId x = objects[zipf.Sample(rng)];
      const bool read = rng.NextBool(0.5);
      const AccessSpec spec =
          read ? AccessSpec{x, OpCode::kRead, 0}
               : AccessSpec{x, OpCode::kWrite, rng.NextInRange(0, 99)};
      const TxName t = type.NewAccess(p, spec);
      accesses.push_back(t);
      out.trace.push_back(Action::RequestCreate(t));
      out.trace.push_back(Action::Create(t));
    }
    for (TxName t : accesses) {
      const AccessSpec& spec = type.access(t);
      Value v = Value::Ok();
      if (spec.op == OpCode::kRead) {
        v = Value::Int(current[spec.object]);
      } else {
        current[spec.object] = spec.arg;
      }
      out.trace.push_back(Action::RequestCommit(t, v));
      out.trace.push_back(Action::Commit(t));
      out.trace.push_back(Action::ReportCommit(t, v));
    }
    out.trace.push_back(Action::RequestCommit(p, Value::Ok()));
    out.trace.push_back(Action::Commit(p));
    out.trace.push_back(Action::ReportCommit(p, Value::Ok()));
  }
  return out;
}

Generated GenerateLoad(load::Workload workload, size_t toplevel, size_t scale,
                       uint64_t seed) {
  load::WorkloadParams params;
  params.workload = workload;
  params.toplevel = toplevel;
  params.scale = scale;
  params.seed = seed;
  load::WorkloadInstance wl = load::BuildWorkload(params);
  Generated out;
  out.type = std::move(wl.type);
  out.trace = std::move(wl.trace);
  out.mode = wl.mode;
  return out;
}

Status WriteWal(const Generated& g, const std::string& dir,
                uint64_t actions_per_segment) {
  seg::TraceStore::Options opts;
  opts.actions_per_segment = actions_per_segment;
  std::unique_ptr<seg::TraceStore> store;
  NTSG_RETURN_IF_ERROR(
      seg::TraceStore::Create(dir, g.type.get(), {}, opts, &store));
  for (const Action& a : g.trace) NTSG_RETURN_IF_ERROR(store->Append(a));
  return store->SealActive();
}

Status WriteInput(const Generated& g, const StoredInput& where) {
  NTSG_RETURN_IF_ERROR(WriteTraceFile(where.text_path, *g.type, g.trace));
  // Large segments keep the number of seal-time fsyncs (and their jitter in
  // the set-up time) small.
  return WriteWal(g, where.wal_dir, /*actions_per_segment=*/16384);
}

Status DecodeWal(const std::string& dir, SystemType* type, Trace* trace) {
  SiblingOrders orders;
  std::unique_ptr<seg::TraceStore> store;
  return seg::TraceStore::Open(dir, type, &orders, trace, {}, &store);
}

namespace {

// Regular files under `path` (itself, or its entries in name order).
std::vector<std::string> FilesOf(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return {};
  if (S_ISREG(st.st_mode)) return {path};
  std::vector<std::string> files;
  if (DIR* d = ::opendir(path.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string full = path + "/" + e->d_name;
      if (::stat(full.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
        files.push_back(full);
      }
    }
    ::closedir(d);
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

Status HashPath(const std::string& path, uint64_t* hash) {
  *hash = 0;
  const std::vector<std::string> files = FilesOf(path);
  if (files.empty()) return Status::NotFound("nothing to hash at " + path);
  uint64_t h = 0xCBF29CE484222325ull;
  for (const std::string& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) return Status::NotFound("cannot open " + f);
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
      for (std::streamsize i = 0; i < in.gcount(); ++i) {
        h ^= static_cast<unsigned char>(buf[i]);
        h *= 0x100000001B3ull;
      }
    }
  }
  *hash = h;
  return Status::Ok();
}

uint64_t PathBytes(const std::string& path) {
  uint64_t total = 0;
  struct stat st;
  for (const std::string& f : FilesOf(path)) {
    if (::stat(f.c_str(), &st) == 0) total += static_cast<uint64_t>(st.st_size);
  }
  return total;
}

}  // namespace ntsg::perfbench
