// ntsg benchmark: one seeded workload per process, from trace bytes
// on disk to a checked verdict. `--trace 0` prints the end-to-end metrics,
// `--trace 1` the per-layer ones from a separate run that times each public
// call from outside. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/README.md explains the workloads; run.py builds and calls this.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "obs/families.h"
#include "obs/metrics.h"
#include "perfbench/entries.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"
#include "tx/trace_io.h"

#ifndef NTSG_PERFBENCH_BUILD_TYPE
#define NTSG_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ntsg::perfbench {
namespace {

// Parallel entry points use 3 workers; with the driving thread that fills
// the 4 cores the benchmark is specified for.
constexpr size_t kWorkers = 3;

// Open-loop ladder: offered rates in actions/s, lowest first. A workload
// walks it up from its reference rung. A rung keeps up when it certifies,
// achieves >= 0.9 x offered, and its p99 stays under the cap. The reference
// rung reports its achieved rate whether or not it keeps up; the rungs above
// it sit far from where either workload crosses the line, so open_max_rate
// does not flip between rungs from run to run.
constexpr double kLadder[] = {25'000, 200'000, 400'000, 1'600'000};
constexpr double kKeepUpFraction = 0.9;
constexpr double kP99CapUs = 500'000;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed in this order; BENCHMARK.json lists the same names and units.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"batch_verdict_s", "s"},
    {"batch_parallel_verdict_s", "s"},
    {"online_verdict_s", "s"},
    {"online_parallel_verdict_s", "s"},
    {"ingest_p99_us", "us"},
    {"open_p50_us", "us"},
    {"open_max_rate", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"tx.text_decode_s", "s"},
    {"tx.text_bytes_per_action", "bytes"},
    {"segment.wal_decode_s", "s"},
    {"segment.bytes_per_action", "bytes"},
    {"sg.batch.serial_part_s", "s"},
    {"sg.batch.appropriate_s", "s"},
    {"sg.batch.conflict_s", "s"},
    {"sg.batch.precedes_s", "s"},
    {"sg.batch.graph_s", "s"},
    {"sg.batch.cycle_s", "s"},
    {"sg.batch.stage_coverage", "ratio"},
    {"sg.batch.conflict_edges", "count"},
    {"sg.batch.precedes_edges", "count"},
    {"sg.ingest.request_create_s", "s"},
    {"sg.ingest.create_s", "s"},
    {"sg.ingest.request_commit_s", "s"},
    {"sg.ingest.commit_s", "s"},
    {"sg.ingest.abort_s", "s"},
    {"sg.ingest.report_s", "s"},
    {"sg.ingest.inform_s", "s"},
    {"sg.ingest.max_us", "us"},
    {"sg.ingest.coverage", "ratio"},
    {"sg.gc.pass_s", "s"},
    {"sg.gc.runs", "count"},
    {"sg.gc.max_pass_us", "us"},
    {"sg.gc.retired_families", "count"},
    {"sg.gc.pruned_ops", "count"},
    {"sg.gc.live_nodes_peak", "count"},
    {"sg.gc.lag_actions", "count"},
    {"sim.pipeline.speedup", "ratio"},
    {"sim.pipeline.speedup_base_s", "s"},
    {"sim.pipeline.queue_depth_max", "count"},
    {"sim.pipeline.stripe_wait_s", "s"},
    {"open_p99_us", "us"},
    {"load.late_frac", "ratio"},
    {"load.achieved_frac", "ratio"},
    {"obs.traced_overhead", "ratio"},
};

// Coverage checks of the traced run: stage sums against the whole call. The
// tolerance covers host noise between two separately timed calls; a missing
// stage shows as a much larger gap.
constexpr double kCoverageTolerance = 0.1;

struct WorkloadSpec {
  const char* name;
  Format format;       // the stored form the end-to-end paths decode
  size_t gc_interval;  // GC for the online and open-loop paths; 0 = off
  double ref_rate;     // the ladder rung the open-loop walk starts at
  size_t inputs;       // inputs per run, generated from consecutive seeds
  Generated (*generate)(uint64_t seed);
};

Generated ZipfAudit(uint64_t seed) { return GenerateZipf(seed, 10'000); }
Generated BankService(uint64_t seed) {
  return GenerateLoad(load::Workload::kBank, /*toplevel=*/500, /*scale=*/16,
                      seed);
}

// zipf_audit runs its open loop in overload: GC-off it saturates near 25k
// actions/s, where p50 flips between sub-microsecond and backlog values from
// run to run. Offered 1.6M actions/s, its arrivals are nearly a burst, so
// latency is the backlog the certifier builds and the achieved rate its
// throughput. The cost of one behaviour depends on its
// seed (bank's GC passes stall behind long-lived families), so a run takes
// the median over several. perfbench/README.md has the reasons for each
// workload.
constexpr WorkloadSpec kWorkloads[] = {
    {"zipf_audit", Format::kText, 0, 1'600'000, 2, ZipfAudit},
    {"bank_service", Format::kWal, 1024, 25'000, 8, BankService},
};

double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

/// Counts operations and their failures; reports the first few failures.
class Tally {
 public:
  bool Record(bool ok, const std::string& what, const std::string& why) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 10) std::cerr << "FAILED " << what << ": " << why << "\n";
    }
    return ok;
  }
  bool Record(const Sample& s, const std::string& what) {
    return Record(s.ok, what, s.error);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Samples per metric and input. A metric's value is the median, over the
/// inputs that have samples, of each input's median, so every input weighs
/// the same however many rounds it got.
class Samples {
 public:
  void SetInput(size_t i) { input_ = i; }
  void Add(const std::string& name, double v) {
    values_[name][input_].push_back(v);
  }
  double Value(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nan("");
    std::vector<double> per_input;
    for (const auto& [input, v] : it->second) per_input.push_back(Median(v));
    return Median(per_input);
  }
  size_t Count(const std::string& name) const {
    auto it = values_.find(name);
    size_t n = 0;
    if (it != values_.end()) {
      for (const auto& [input, v] : it->second) n += v.size();
    }
    return n;
  }

 private:
  size_t input_ = 0;
  std::map<std::string, std::map<size_t, std::vector<double>>> values_;
};

/// One input on disk plus what it must certify to.
struct Prepared {
  StoredInput stored;
  Expected expected;
};

/// One timed set-up: generate from `seed`, write both stored forms under
/// `dir`, decode the end-to-end form back, and pin the expected outcome with
/// the GC-off batch build.
bool SetupInput(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
                Tally* tally, Samples* samples, Prepared* out) {
  ::mkdir(dir.c_str(), 0755);
  out->stored.text_path = dir + "/input.trace";
  out->stored.wal_dir = dir + "/input.wal";
  const auto t0 = Clock::now();
  const Generated g = spec.generate(seed);
  out->stored.mode = g.mode;
  Status st = WriteInput(g, out->stored);
  SystemType type;
  Trace trace;
  if (st.ok()) st = Decode(out->stored, spec.format, &type, &trace);
  if (st.ok()) out->expected = CertifyStaged(type, trace, g.mode).result;
  samples->Add("setup_s", SecondsSince(t0));
  return tally->Record(st.ok(), "setup", "write/decode: " + st.ToString()) &&
         tally->Record(out->expected.certified, "setup",
                       "the generated input does not certify");
}

/// Sets up the run's inputs from consecutive seeds, then the first one again:
/// the repeat must write byte-identical files and pin the same outcome.
bool Setup(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
           Tally* tally, Samples* samples, std::vector<Prepared>* out) {
  out->resize(spec.inputs);
  for (size_t i = 0; i < spec.inputs; ++i) {
    samples->SetInput(i);
    if (!SetupInput(spec, seed * spec.inputs + i,
                    dir + "/input-" + std::to_string(i), tally, samples,
                    &(*out)[i])) {
      return false;
    }
  }
  const Prepared& first = out->front();
  uint64_t text_hash = 0, wal_hash = 0, text_again = 0, wal_again = 0;
  Status st = HashPath(first.stored.text_path, &text_hash);
  if (st.ok()) st = HashPath(first.stored.wal_dir, &wal_hash);
  Prepared again;
  samples->SetInput(0);
  if (!SetupInput(spec, seed * spec.inputs, dir + "/input-0", tally, samples,
                  &again)) {
    return false;
  }
  if (st.ok()) st = HashPath(again.stored.text_path, &text_again);
  if (st.ok()) st = HashPath(again.stored.wal_dir, &wal_again);
  return tally->Record(st.ok() && text_hash == text_again &&
                           wal_hash == wal_again &&
                           again.expected.fingerprint ==
                               first.expected.fingerprint,
                       "setup", "repeated set-up is not deterministic");
}

/// Untimed cross-checks: both stored forms decode to the same behaviour, and
/// the GC-off incremental certifier agrees with the pinned batch build on
/// verdict, edge counts and graph fingerprint.
void Oracle(const Prepared& p, Tally* tally) {
  SystemType text_type, wal_type;
  Trace text_trace, wal_trace;
  const Status a = ReadTraceFile(p.stored.text_path, &text_type, &text_trace);
  const Status b = DecodeWal(p.stored.wal_dir, &wal_type, &wal_trace);
  tally->Record(a.ok() && b.ok() &&
                    SerializeSystemAndTrace(text_type, text_trace) ==
                        SerializeSystemAndTrace(wal_type, wal_trace),
                "oracle", "text and WAL forms decode differently");

  IncrementalCertifier cert(wal_type, p.stored.mode);
  cert.IngestTrace(wal_trace);
  const Expected& e = p.expected;
  tally->Record(cert.verdict().ok() == e.certified &&
                    cert.conflict_edge_count() == e.conflict_edges &&
                    cert.precedes_edge_count() == e.precedes_edges &&
                    cert.graph_fingerprint() == e.fingerprint,
                "oracle",
                "GC-off incremental certifier disagrees with the batch build");
}

/// Calls `round(i)` for i = 0, 1, ... until `seconds` have passed, never
/// starting a round the remaining time cannot hold; at least one round.
template <typename Fn>
void ForRounds(double seconds, Fn&& round) {
  const auto start = Clock::now();
  for (uint64_t i = 0;; ++i) {
    round(i);
    const double elapsed = SecondsSince(start);
    if (elapsed + elapsed / static_cast<double>(i + 1) > seconds) return;
  }
}

bool KeepsUp(const Sample& s, double rate) {
  return s.ok && s.report.achieved_rate >= kKeepUpFraction * rate &&
         s.report.p99_us <= kP99CapUs;
}

/// End-to-end run: rounds of every entry point until `seconds` have passed.
void Measure(const WorkloadSpec& spec, const std::vector<Prepared>& inputs,
             uint64_t seed, double seconds, Tally* tally, Samples* out) {
  ForRounds(seconds, [&](uint64_t round) {
    const Prepared& p = inputs[round % inputs.size()];
    out->SetInput(round % inputs.size());
    load::WorkloadInstance open_wl;
    open_wl.type = std::make_unique<SystemType>();
    open_wl.mode = p.stored.mode;
    const Status decoded =
        Decode(p.stored, spec.format, open_wl.type.get(), &open_wl.trace);
    if (!tally->Record(decoded.ok(), "open-loop decode", decoded.ToString())) {
      return;
    }

    Sample s = RunBatch(p.stored, spec.format, 1, p.expected);
    if (tally->Record(s, "batch")) out->Add("batch_verdict_s", s.seconds);
    s = RunBatch(p.stored, spec.format, kWorkers, p.expected);
    if (tally->Record(s, "batch parallel")) {
      out->Add("batch_parallel_verdict_s", s.seconds);
    }
    s = RunOnline(p.stored, spec.format, load::CertMode::kIncremental,
                  kWorkers, spec.gc_interval);
    if (tally->Record(s, "online")) {
      out->Add("online_verdict_s", s.seconds);
      out->Add("ingest_p99_us", s.report.p99_us);
    }
    s = RunOnline(p.stored, spec.format, load::CertMode::kSharded, kWorkers,
                  spec.gc_interval);
    if (tally->Record(s, "online parallel")) {
      out->Add("online_parallel_verdict_s", s.seconds);
    }

    // Walk the ladder up from the reference rung until a rung falls behind.
    const uint64_t arrival_seed = seed * 1'000'003 + round;
    double max_rate = 0;
    for (double rate : kLadder) {
      if (rate < spec.ref_rate) continue;
      s = RunOpen(open_wl, rate, arrival_seed, spec.gc_interval);
      if (!tally->Record(s, "open loop")) break;
      std::cerr << "input " << round % inputs.size() << " rung " << rate
                << ": achieved " << s.report.achieved_rate << " p50 "
                << s.report.p50_us << "us p99 " << s.report.p99_us << "us\n";
      const bool reference = rate == spec.ref_rate;
      if (reference) out->Add("open_p50_us", s.report.p50_us);
      if (reference || KeepsUp(s, rate)) max_rate = s.report.achieved_rate;
      if (!KeepsUp(s, rate)) break;
    }
    if (max_rate > 0) out->Add("open_max_rate", max_rate);
  });
}

/// Polls the pipeline's queue-depth gauges while a sharded run is live.
class DepthSampler {
 public:
  explicit DepthSampler(size_t shards) {
    for (size_t i = 0; i < shards; ++i) {
      gauges_.push_back(obs::IngestQueueDepthGauge(i));
    }
    thread_ = std::thread([this] { Loop(); });
  }
  ~DepthSampler() { Stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  /// Stops polling; returns the largest total depth seen.
  int64_t Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return max_;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      int64_t depth = 0;
      for (const obs::Gauge* g : gauges_) depth += g->value();
      max_ = std::max(max_, depth);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  std::vector<obs::Gauge*> gauges_;
  std::atomic<bool> stop_{false};
  int64_t max_ = 0;
  std::thread thread_;  // last: starts after the members it reads
};

const char* IngestBucket(ActionKind k) {
  switch (k) {
    case ActionKind::kRequestCreate:
      return "sg.ingest.request_create_s";
    case ActionKind::kCreate:
      return "sg.ingest.create_s";
    case ActionKind::kRequestCommit:
      return "sg.ingest.request_commit_s";
    case ActionKind::kCommit:
      return "sg.ingest.commit_s";
    case ActionKind::kAbort:
      return "sg.ingest.abort_s";
    case ActionKind::kReportCommit:
    case ActionKind::kReportAbort:
      return "sg.ingest.report_s";
    case ActionKind::kInformCommit:
    case ActionKind::kInformAbort:
      return "sg.ingest.inform_s";
  }
  return "sg.ingest.inform_s";
}

/// IncrementalCertifier::Ingest timed per call. A call during which
/// gc_stats().runs advanced is GC time; every other call is self time of
/// its action kind.
void TracedIngest(const SystemType& type, const Trace& trace,
                  ConflictMode mode, size_t gc_interval, Tally* tally,
                  Samples* out) {
  std::map<std::string, double> kind_s;
  for (const MetricDef& m : kPerLayer) {
    if (std::strncmp(m.name, "sg.ingest.", 10) == 0 &&
        std::strcmp(m.unit, "s") == 0) {
      kind_s[m.name] = 0;
    }
  }
  double gc_s = 0, max_us = 0, gc_max_us = 0;
  uint64_t live_peak = 0, lag_peak = 0;
  IncrementalCertifier cert(type, mode, GcOptions{gc_interval});
  const auto start = Clock::now();
  for (const Action& a : trace) {
    const uint64_t runs = cert.gc_stats().runs;
    const uint64_t live = cert.live_node_count();
    const auto t0 = Clock::now();
    cert.Ingest(a);
    const double d = SecondsSince(t0);
    if (cert.gc_stats().runs != runs) {
      gc_s += d;
      gc_max_us = std::max(gc_max_us, d * 1e6);
      live_peak = std::max<uint64_t>(live_peak, live);
      lag_peak = std::max(lag_peak, cert.actions_ingested() -
                                        cert.gc_stats().last_watermark);
    } else {
      kind_s[IngestBucket(a.kind)] += d;
      max_us = std::max(max_us, d * 1e6);
    }
  }
  const double total = SecondsSince(start);
  live_peak = std::max<uint64_t>(live_peak, cert.live_node_count());
  tally->Record(cert.verdict().ok(), "traced ingest", "did not certify");

  double covered = gc_s;
  for (const auto& [name, s] : kind_s) {
    out->Add(name, s);
    covered += s;
  }
  out->Add("sg.ingest.max_us", max_us);
  out->Add("sg.ingest.coverage", covered / total);
  out->Add("traced_ingest_s", total);
  const GcStats& gc = cert.gc_stats();
  out->Add("sg.gc.pass_s", gc_s);
  out->Add("sg.gc.runs", static_cast<double>(gc.runs));
  out->Add("sg.gc.max_pass_us", gc_max_us);
  out->Add("sg.gc.retired_families", static_cast<double>(gc.retired_families));
  out->Add("sg.gc.pruned_ops", static_cast<double>(gc.pruned_ops));
  out->Add("sg.gc.live_nodes_peak", static_cast<double>(live_peak));
  out->Add("sg.gc.lag_actions", static_cast<double>(lag_peak));
}

/// Per-layer run: rounds of spans around the public calls of each layer
/// until `seconds` have passed.
void MeasureTraced(const WorkloadSpec& spec,
                   const std::vector<Prepared>& inputs, uint64_t seed,
                   double seconds, Tally* tally, Samples* out) {
  ForRounds(seconds, [&](uint64_t round) {
    const Prepared& p = inputs[round % inputs.size()];
    out->SetInput(round % inputs.size());
    const ConflictMode mode = p.stored.mode;
    // Decode layers, on both stored forms.
    SystemType text_type, wal_type;
    Trace text_trace, wal_trace;
    auto t0 = Clock::now();
    Status st = ReadTraceFile(p.stored.text_path, &text_type, &text_trace);
    out->Add("tx.text_decode_s", SecondsSince(t0));
    tally->Record(st.ok(), "text decode", st.ToString());
    t0 = Clock::now();
    st = DecodeWal(p.stored.wal_dir, &wal_type, &wal_trace);
    out->Add("segment.wal_decode_s", SecondsSince(t0));
    if (!tally->Record(st.ok(), "WAL decode", st.ToString())) return;
    const double actions = static_cast<double>(wal_trace.size());
    out->Add("tx.text_bytes_per_action",
             static_cast<double>(PathBytes(p.stored.text_path)) / actions);
    out->Add("segment.bytes_per_action",
             static_cast<double>(PathBytes(p.stored.wal_dir)) / actions);
    const SystemType& type = wal_type;
    const Trace& trace = wal_trace;

    // Batch certifier stages against the whole call, timed before and after
    // the staged run so heap warm-up does not favour either side.
    double whole_s = 0;
    auto whole = [&] {
      const auto w0 = Clock::now();
      const CertifierReport r = CertifySeriallyCorrect(type, trace, mode);
      whole_s += SecondsSince(w0) / 2;
      tally->Record(r.status.ok(), "batch", r.status.ToString());
    };
    whole();
    const StagedBatch staged = CertifyStaged(type, trace, mode);
    whole();
    tally->Record(staged.result.certified &&
                      staged.result.fingerprint == p.expected.fingerprint,
                  "staged batch", "disagrees with the pinned outcome");
    out->Add("sg.batch.serial_part_s", staged.serial_part_s);
    out->Add("sg.batch.appropriate_s", staged.appropriate_s);
    out->Add("sg.batch.conflict_s", staged.conflict_s);
    out->Add("sg.batch.precedes_s", staged.precedes_s);
    out->Add("sg.batch.graph_s", staged.graph_s);
    out->Add("sg.batch.cycle_s", staged.cycle_s);
    out->Add("sg.batch.stage_coverage", staged.StageSum() / whole_s);
    out->Add("sg.batch.conflict_edges",
             static_cast<double>(staged.result.conflict_edges));
    out->Add("sg.batch.precedes_edges",
             static_cast<double>(staged.result.precedes_edges));

    // Incremental certifier per action kind and GC, then the same loop
    // without spans for the tracing overhead.
    TracedIngest(type, trace, mode, spec.gc_interval, tally, out);
    {
      IncrementalCertifier cert(type, mode, GcOptions{spec.gc_interval});
      t0 = Clock::now();
      for (const Action& a : trace) cert.Ingest(a);
      out->Add("untraced_ingest_s", SecondsSince(t0));
      tally->Record(cert.verdict().ok(), "untraced ingest", "did not certify");
    }

    // Pipeline: speedup over the solo certifier with metrics off, then a
    // metrics-on sharded run for the registry-only internals.
    const Sample solo = RunOnline(p.stored, spec.format,
                                  load::CertMode::kIncremental, kWorkers,
                                  spec.gc_interval);
    const Sample sharded = RunOnline(p.stored, spec.format,
                                     load::CertMode::kSharded, kWorkers,
                                     spec.gc_interval);
    if (tally->Record(solo, "online") && tally->Record(sharded, "sharded")) {
      out->Add("sim.pipeline.speedup", solo.seconds / sharded.seconds);
      out->Add("sim.pipeline.speedup_base_s", solo.seconds);
    }
    obs::MetricsRegistry::Default().ResetAll();
    obs::SetMetricsEnabled(true);
    int64_t depth_max = 0;
    Sample instrumented;
    {
      DepthSampler sampler(kWorkers);
      instrumented = RunOnline(p.stored, spec.format, load::CertMode::kSharded,
                               kWorkers, spec.gc_interval);
      depth_max = sampler.Stop();
    }
    obs::SetMetricsEnabled(false);
    if (tally->Record(instrumented, "sharded with metrics")) {
      out->Add("sim.pipeline.queue_depth_max", static_cast<double>(depth_max));
      out->Add(
          "sim.pipeline.stripe_wait_s",
          static_cast<double>(obs::GetIngestMetrics().stripe_lock_wait_us->sum()) /
              1e6);
    }

    // Harness pacing at the reference rung.
    load::WorkloadInstance wl;
    wl.type = std::make_unique<SystemType>();
    wl.mode = mode;
    st = Decode(p.stored, spec.format, wl.type.get(), &wl.trace);
    if (!tally->Record(st.ok(), "open-loop decode", st.ToString())) return;
    const Sample open =
        RunOpen(wl, spec.ref_rate, seed * 1'000'003 + round, spec.gc_interval);
    if (tally->Record(open, "open loop")) {
      out->Add("open_p99_us", open.report.p99_us);
      out->Add("load.late_frac",
               static_cast<double>(open.report.late_arrivals) /
                   static_cast<double>(open.report.actions));
      out->Add("load.achieved_frac",
               open.report.achieved_rate / open.report.offered_rate);
    }
  });
  out->Add("obs.traced_overhead", out->Value("traced_ingest_s") /
                                      out->Value("untraced_ingest_s") -
                                      1);
  const double stage_cov = out->Value("sg.batch.stage_coverage");
  const double ingest_cov = out->Value("sg.ingest.coverage");
  tally->Record(std::fabs(stage_cov - 1) <= kCoverageTolerance, "coverage",
                "batch stages sum to " + std::to_string(stage_cov) +
                    " of CertifySeriallyCorrect");
  tally->Record(std::fabs(ingest_cov - 1) <= kCoverageTolerance, "coverage",
                "ingest kinds and GC sum to " + std::to_string(ingest_cov) +
                    " of the traced online time");
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Usage() {
  std::cerr << "usage: ntsg_perfbench --workload <zipf_audit|bank_service> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n"
               "       ntsg_perfbench --self-test --workdir <dir>\n";
  return 2;
}

int SelfTest(const std::string& dir);

int Main(int argc, char** argv) {
  std::string workload, workdir;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* val = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--workdir") {
      workdir = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (!(seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(val, &end, 10));
      if (trace != 0 && trace != 1) return Usage();
    } else {
      return Usage();
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return Usage();
  }
  if (workdir.empty()) return Usage();

#ifndef NDEBUG
  std::cerr << "refusing to measure an unoptimized build (build type "
            << NTSG_PERFBENCH_BUILD_TYPE << ")\n";
  return 2;
#endif
  if (self_test) return SelfTest(workdir);

  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage();

  std::cout << "# ntsg perfbench workload=" << spec->name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << trace << "\n"
            << "# nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << NTSG_PERFBENCH_BUILD_TYPE
            << " compiler=\"" << CompilerName() << "\" workers=" << kWorkers
            << " clock=steady_clock(wall) inputs=" << spec->inputs << "\n";

  Tally tally;
  Samples samples;
  std::vector<Prepared> inputs;
  const bool ready = Setup(*spec, seed, workdir, &tally, &samples, &inputs);
  if (ready) {
    for (const Prepared& p : inputs) Oracle(p, &tally);
    if (trace == 0) {
      Measure(*spec, inputs, seed, seconds, &tally, &samples);
    } else {
      MeasureTraced(*spec, inputs, seed, seconds, &tally, &samples);
    }
  }
  samples.SetInput(0);
  samples.Add("peak_rss_mb", PeakRssMb());

  std::string metrics;
  bool complete = true;
  const std::span<const MetricDef> defs =
      trace == 0 ? std::span<const MetricDef>(kEndToEnd)
                 : std::span<const MetricDef>(kPerLayer);
  for (const MetricDef& m : defs) {
    double v = samples.Value(m.name);
    if (!std::isfinite(v)) {
      complete = false;
      v = 0;
    }
    std::cout << m.name << " = " << FormatValue(v) << " " << m.unit << "  ("
              << samples.Count(m.name) << " samples)\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(m.name) + "\": {\"value\": " +
               FormatValue(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  const double error_rate =
      tally.attempted() == 0
          ? 1
          : static_cast<double>(tally.failed()) /
                static_cast<double>(tally.attempted());
  std::cout << "error_rate = " << FormatValue(error_rate) << "  ("
            << tally.failed() << " failed of " << tally.attempted() << ")\n";
  const bool correct = ready && complete && tally.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(1, tally.attempted())
            << ", \"failed\": " << tally.failed() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// The benchmark's own tests.

int SelfTest(const std::string& dir) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  auto stored_at = [&](const std::string& name, ConflictMode mode) {
    StoredInput s;
    s.text_path = dir + "/" + name + ".trace";
    s.wal_dir = dir + "/" + name + ".wal";
    s.mode = mode;
    return s;
  };
  auto hashes = [](const StoredInput& s) {
    uint64_t a = 0, b = 0;
    const bool ok =
        HashPath(s.text_path, &a).ok() && HashPath(s.wal_dir, &b).ok();
    return ok ? std::make_pair(a, b) : std::make_pair(uint64_t{0}, uint64_t{0});
  };

  // Generator determinism: one seed, byte-identical files; another seed,
  // different files.
  struct Gen {
    const char* name;
    Generated (*make)(uint64_t);
  };
  const Gen gens[] = {
      {"zipf", [](uint64_t s) { return GenerateZipf(s, 2000); }},
      {"bank",
       [](uint64_t s) {
         return GenerateLoad(load::Workload::kBank, 40, 8, s);
       }},
  };
  for (const Gen& g : gens) {
    const std::string n = g.name;
    const Generated a = g.make(5), b = g.make(5), c = g.make(6);
    const StoredInput sa = stored_at(n + "-a", a.mode);
    const StoredInput sb = stored_at(n + "-b", b.mode);
    const StoredInput sc = stored_at(n + "-c", c.mode);
    const bool written = WriteInput(a, sa).ok() && WriteInput(b, sb).ok() &&
                         WriteInput(c, sc).ok();
    check(written && hashes(sa) == hashes(sb) && hashes(sa).first != 0,
          n + ": same seed writes byte-identical text and WAL");
    check(written && hashes(sa).first != hashes(sc).first,
          n + ": another seed writes different inputs");
  }

  // A flipped read return value: every entry point rejects it, and each
  // rejection is a counted failure, not a crash.
  {
    Generated g = GenerateZipf(5, 2000);
    const StoredInput clean = stored_at("zipf-a", g.mode);
    SystemType type;
    Trace trace;
    const Expected pinned = Decode(clean, Format::kText, &type, &trace).ok()
                                ? CertifyStaged(type, trace, g.mode).result
                                : Expected{};
    check(pinned.certified, "clean zipf input certifies");
    for (size_t i = 0; i < g.trace.size(); ++i) {
      Action& a = g.trace[i];
      if (a.kind == ActionKind::kRequestCommit && g.type->IsAccess(a.tx) &&
          g.type->access(a.tx).op == OpCode::kRead) {
        a.value = Value::Int(a.value.AsInt() + 1);
        for (size_t j = i + 1; j < g.trace.size(); ++j) {
          if (g.trace[j].kind == ActionKind::kReportCommit &&
              g.trace[j].tx == a.tx) {
            g.trace[j].value = a.value;
            break;
          }
        }
        break;
      }
    }
    const StoredInput flipped = stored_at("zipf-flipped", g.mode);
    check(WriteInput(g, flipped).ok(), "flipped input written");
    Tally tally;
    for (Format f : {Format::kText, Format::kWal}) {
      tally.Record(RunBatch(flipped, f, 1, pinned), "batch");
      tally.Record(RunBatch(flipped, f, kWorkers, pinned), "batch parallel");
      tally.Record(RunOnline(flipped, f, load::CertMode::kIncremental,
                             kWorkers, 0),
                   "online");
      tally.Record(
          RunOnline(flipped, f, load::CertMode::kSharded, kWorkers, 1024),
          "online parallel");
    }
    check(tally.attempted() == 8 && tally.failed() == 8,
          "flipped read fails all 8 entry points");
    Tally control;
    control.Record(RunBatch(clean, Format::kText, 1, pinned), "batch");
    control.Record(
        RunOnline(clean, Format::kWal, load::CertMode::kSharded, kWorkers, 0),
        "online parallel");
    check(control.failed() == 0, "the unflipped input passes the same paths");
  }

  // A truncated WAL segment: a decode failure, counted, never a verdict.
  {
    const Generated g = GenerateLoad(load::Workload::kBank, 40, 8, 5);
    const StoredInput s = stored_at("bank-truncated", g.mode);
    const bool written = WriteWal(g, s.wal_dir, 256).ok();
    const std::string seg = s.wal_dir + "/seg-00000001.ntsgs";
    const uint64_t size = PathBytes(seg);
    check(written && size > 0 && ::truncate(seg.c_str(), size / 2) == 0,
          "WAL segment truncated");
    const Sample batch = RunBatch(s, Format::kWal, 1, Expected{true, 0, 0, 0});
    const Sample online =
        RunOnline(s, Format::kWal, load::CertMode::kIncremental, kWorkers,
                  1024);
    check(!batch.ok && batch.error.rfind("decode", 0) == 0,
          "truncated WAL fails batch decode: " + batch.error);
    check(!online.ok && online.error.rfind("decode", 0) == 0,
          "truncated WAL fails online decode: " + online.error);
  }

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ntsg::perfbench

int main(int argc, char** argv) { return ntsg::perfbench::Main(argc, argv); }
