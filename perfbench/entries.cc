#include "perfbench/entries.h"

#include <utility>
#include <vector>

#include "sg/appropriate.h"
#include "sg/certifier.h"
#include "sg/fingerprint.h"
#include "sg/graph.h"
#include "tx/trace_io.h"

namespace ntsg::perfbench {

Status Decode(const StoredInput& in, Format f, SystemType* type,
              Trace* trace) {
  return f == Format::kText ? ReadTraceFile(in.text_path, type, trace)
                            : DecodeWal(in.wal_dir, type, trace);
}

StagedBatch CertifyStaged(const SystemType& type, const Trace& beta,
                          ConflictMode mode) {
  StagedBatch out;
  auto t0 = Clock::now();
  const Trace serial = SerialPart(beta);
  out.serial_part_s = SecondsSince(t0);

  t0 = Clock::now();
  const Status values = mode == ConflictMode::kReadWrite
                            ? CheckAppropriateReturnValuesRw(type, serial)
                            : CheckAppropriateReturnValuesGeneral(type, serial);
  out.appropriate_s = SecondsSince(t0);

  t0 = Clock::now();
  std::vector<SiblingEdge> conflict = ConflictRelation(type, serial, mode);
  out.conflict_s = SecondsSince(t0);

  t0 = Clock::now();
  std::vector<SiblingEdge> precedes = PrecedesRelation(type, serial);
  out.precedes_s = SecondsSince(t0);

  // Untimed: the fingerprint is the oracle's, not the certifier's, work.
  out.result.conflict_edges = conflict.size();
  out.result.precedes_edges = precedes.size();
  out.result.fingerprint = FingerprintSerializationGraph(conflict, precedes);

  t0 = Clock::now();
  const SerializationGraph sg =
      SerializationGraph::FromEdges(std::move(conflict), std::move(precedes));
  out.graph_s = SecondsSince(t0);

  t0 = Clock::now();
  const bool acyclic = !sg.FindCycle().has_value();
  out.cycle_s = SecondsSince(t0);

  out.result.certified = values.ok() && acyclic;
  return out;
}

Sample RunBatch(const StoredInput& in, Format f, size_t threads,
                const Expected& expected) {
  Sample s;
  SystemType type;
  Trace trace;
  CertifierReport report;
  const auto t0 = Clock::now();
  const Status decoded = Decode(in, f, &type, &trace);
  if (decoded.ok()) {
    CertifyOptions options;
    options.num_threads = threads;
    report = CertifySeriallyCorrect(type, trace, in.mode, options);
  }
  s.seconds = SecondsSince(t0);
  if (!decoded.ok()) {
    s.error = "decode: " + decoded.ToString();
  } else if (!report.status.ok()) {
    s.error = "not certified: " + report.status.ToString();
  } else if (report.conflict_edge_count != expected.conflict_edges ||
             report.precedes_edge_count != expected.precedes_edges) {
    s.error = "edge counts differ from the pinned batch build";
  } else {
    s.ok = expected.certified;
    if (!s.ok) s.error = "certified, but the pinned verdict is not";
  }
  return s;
}

namespace {

load::LoadOptions OnlineOptions(load::CertMode mode, size_t gc_interval) {
  load::LoadOptions opt;
  opt.mode = mode;
  opt.gc_interval = gc_interval;
  opt.batch = 0;
  return opt;
}

Sample Judge(Sample s, const Status& run) {
  if (!run.ok()) {
    s.error = "run: " + run.ToString();
  } else if (!s.report.certified) {
    s.error = std::string(load::CertModeName(s.report.mode)) +
              " run did not certify";
  } else {
    s.ok = true;
  }
  return s;
}

}  // namespace

Sample RunOnline(const StoredInput& in, Format f, load::CertMode mode,
                 size_t shards, size_t gc_interval) {
  Sample s;
  load::WorkloadInstance wl;
  wl.type = std::make_unique<SystemType>();
  wl.mode = in.mode;
  load::LoadOptions opt = OnlineOptions(mode, gc_interval);
  opt.shards = shards;
  opt.pace = false;
  Status run;
  const auto t0 = Clock::now();
  const Status decoded = Decode(in, f, wl.type.get(), &wl.trace);
  if (decoded.ok()) run = load::RunLoad(wl, opt, &s.report);
  s.seconds = SecondsSince(t0);
  if (!decoded.ok()) {
    s.error = "decode: " + decoded.ToString();
    return s;
  }
  return Judge(std::move(s), run);
}

Sample RunOpen(const load::WorkloadInstance& wl, double rate,
               uint64_t arrival_seed, size_t gc_interval) {
  Sample s;
  load::LoadOptions opt =
      OnlineOptions(load::CertMode::kIncremental, gc_interval);
  opt.rate = rate;
  opt.poisson = true;
  opt.arrival_seed = arrival_seed;
  opt.pace = true;
  const auto t0 = Clock::now();
  const Status run = load::RunLoad(wl, opt, &s.report);
  s.seconds = SecondsSince(t0);
  return Judge(std::move(s), run);
}

}  // namespace ntsg::perfbench
