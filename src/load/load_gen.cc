#include "load/load_gen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/families.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"

namespace ntsg::load {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sleeps until `target_us` (steady-clock). Coarse sleep to within ~200us,
// then spin — OS oversleep would otherwise smear every paced sample by the
// scheduler quantum and bury the quantiles the harness exists to measure.
void SleepUntilUs(uint64_t target_us) {
  uint64_t now = NowUs();
  if (now + 200 < target_us) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(target_us - now - 200));
  }
  while (NowUs() < target_us) {
  }
}

/// Virtual arrival timestamps (us) for `n` actions: a pure function of the
/// options, shared by every certifier mode and every run.
std::vector<uint64_t> BuildSchedule(size_t n, const LoadOptions& opt) {
  std::vector<uint64_t> sched(n);
  Rng rng(opt.arrival_seed ^ 0x10ADC0DEull);
  const double mean_us = 1e6 / opt.rate;
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    if (opt.poisson) {
      // Exponential inter-arrival: -mean * ln(1 - U), U uniform in [0,1).
      t += -mean_us * std::log1p(-rng.NextDouble());
    } else {
      t += mean_us;
    }
    sched[i] = static_cast<uint64_t>(std::llround(t));
  }
  return sched;
}

/// Admission target: one certifier mode behind a uniform interface. The
/// epoch verdict is "ok"/"rejected" where the certifier has a mid-stream
/// answer (the incremental certifier); batch certifies nothing until Finish
/// and reports "pending".
class Sink {
 public:
  struct Final {
    bool appropriate = false;
    bool acyclic = false;
    GcStats gc;
  };

  virtual ~Sink() = default;
  virtual void Admit(const Action& a) = 0;
  virtual const char* EpochVerdict() const = 0;
  virtual GcStats EpochGc() const = 0;
  virtual Final Finish() = 0;
};

class BatchSink : public Sink {
 public:
  BatchSink(const SystemType& type, ConflictMode mode)
      : type_(type), mode_(mode) {}

  void Admit(const Action& a) override { collected_.push_back(a); }
  const char* EpochVerdict() const override { return "pending"; }
  GcStats EpochGc() const override { return GcStats{}; }

  Final Finish() override {
    CertifierReport report = CertifySeriallyCorrect(type_, collected_, mode_);
    return Final{report.appropriate_return_values, report.graph_acyclic,
                 GcStats{}};
  }

 private:
  const SystemType& type_;
  const ConflictMode mode_;
  Trace collected_;
};

class IncrementalSink : public Sink {
 public:
  IncrementalSink(const SystemType& type, ConflictMode mode, size_t gc_interval)
      : cert_(type, mode, GcOptions{gc_interval}) {}

  void Admit(const Action& a) override { cert_.Ingest(a); }
  const char* EpochVerdict() const override {
    return cert_.verdict().ok() ? "ok" : "rejected";
  }
  GcStats EpochGc() const override { return cert_.gc_stats(); }

  Final Finish() override {
    IncrementalVerdict v = cert_.verdict();
    return Final{v.appropriate, v.acyclic, cert_.gc_stats()};
  }

 private:
  IncrementalCertifier cert_;
};

std::unique_ptr<Sink> MakeSink(const WorkloadInstance& wl,
                               const LoadOptions& opt) {
  if (opt.mode == CertMode::kBatch) {
    return std::make_unique<BatchSink>(*wl.type, wl.mode);
  }
  return std::make_unique<IncrementalSink>(*wl.type, wl.mode,
                                           opt.gc_interval);
}

}  // namespace

const char* CertModeName(CertMode m) {
  return m == CertMode::kBatch ? "batch" : "incremental";
}

bool ParseCertMode(const std::string& s, CertMode* out) {
  if (s == "batch") {
    *out = CertMode::kBatch;
  } else if (s == "incremental") {
    *out = CertMode::kIncremental;
  } else {
    return false;
  }
  return true;
}

Status RunLoad(const WorkloadInstance& wl, const LoadOptions& opt,
               LoadReport* out) {
  NTSG_CHECK(opt.rate > 0);
  NTSG_CHECK(opt.epochs > 0);
  *out = LoadReport{};
  out->mode = opt.mode;
  out->offered_rate = opt.rate;

  const Trace& trace = wl.trace;
  const std::vector<uint64_t> sched = BuildSchedule(trace.size(), opt);
  const uint64_t span_us = sched.empty() ? 1 : sched.back() + 1;
  const uint64_t epoch_len_us =
      std::max<uint64_t>(1, (span_us + opt.epochs - 1) / opt.epochs);
  out->vtime_end_us = span_us;

  std::unique_ptr<Sink> sink = MakeSink(wl, opt);
  obs::Histogram lat(obs::LoadLatencyBucketsUs());
  const obs::LoadMetrics& lm = obs::GetLoadMetrics();

  std::unique_ptr<obs::TimelineEmitter> timeline;
  if (!opt.timeline_path.empty()) {
    timeline = std::make_unique<obs::TimelineEmitter>(opt.timeline_path,
                                                      opt.timeline_wallclock);
    Status open = timeline->Open();
    if (!open.ok()) return open;
  }

  const uint64_t wall_start = NowUs();
  size_t epoch_idx = 0;
  uint64_t epoch_offered = 0;
  uint64_t admitted = 0;
  uint64_t ops = 0;

  auto emit_epoch = [&]() {
    if (timeline != nullptr) {
      obs::TimelineEpoch e;
      e.epoch = epoch_idx;
      e.mode = CertModeName(opt.mode);
      e.vtime_start_us = epoch_idx * epoch_len_us;
      e.vtime_end_us = (epoch_idx + 1) * epoch_len_us;
      e.offered = epoch_offered;
      e.admitted_total = admitted;
      e.ops_total = ops;
      e.verdict = sink->EpochVerdict();
      const GcStats gc = sink->EpochGc();
      e.gc_runs = gc.runs;
      e.gc_retired_families = gc.retired_families;
      e.gc_watermark = gc.last_watermark;
      if (opt.timeline_wallclock) {
        e.p50_us = lat.Quantile(0.50);
        e.p95_us = lat.Quantile(0.95);
        e.p99_us = lat.Quantile(0.99);
        e.p999_us = lat.Quantile(0.999);
        e.wall_elapsed_s =
            static_cast<double>(NowUs() - wall_start) / 1e6;
        e.metrics_json =
            obs::MetricsRegistry::Default().JsonText(/*compact=*/true);
      }
      timeline->Emit(e);
    }
    lm.epochs->Inc();
    ++epoch_idx;
    epoch_offered = 0;
  };

  for (size_t i = 0; i < trace.size(); ++i) {
    // Close every epoch whose window ends at or before this arrival; the
    // last epoch swallows any schedule tail.
    while (epoch_idx + 1 < opt.epochs &&
           sched[i] >= (epoch_idx + 1) * epoch_len_us) {
      emit_epoch();
    }
    const uint64_t sched_wall = wall_start + sched[i];
    if (opt.pace) {
      const uint64_t now = NowUs();
      if (now < sched_wall) {
        SleepUntilUs(sched_wall);
      } else if (now > sched_wall) {
        ++out->late_arrivals;
        lm.late_arrivals->Inc();
      }
    }
    lm.actions_offered->Inc();
    const uint64_t admit_start = NowUs();
    sink->Admit(trace[i]);
    const uint64_t admit_end = NowUs();
    const uint64_t latency_us =
        opt.pace ? admit_end - std::min(sched_wall, admit_end)
                 : admit_end - admit_start;
    lat.ObserveAlways(latency_us);
    lm.admission_us->Observe(latency_us);
    lm.actions_admitted->Inc();
    ++admitted;
    ++epoch_offered;
    const Action& a = trace[i];
    if (a.kind == ActionKind::kRequestCommit && wl.type->IsAccess(a.tx)) {
      ++ops;
    }
  }
  while (epoch_idx < opt.epochs) emit_epoch();

  Sink::Final final = sink->Finish();
  out->appropriate = final.appropriate;
  out->acyclic = final.acyclic;
  out->certified = final.appropriate && final.acyclic;
  out->gc = final.gc;
  out->actions = admitted;
  out->ops = ops;
  out->wall_seconds = static_cast<double>(NowUs() - wall_start) / 1e6;
  out->achieved_rate = out->wall_seconds > 0
                           ? static_cast<double>(admitted) / out->wall_seconds
                           : 0;
  out->p50_us = lat.Quantile(0.50);
  out->p95_us = lat.Quantile(0.95);
  out->p99_us = lat.Quantile(0.99);
  out->p999_us = lat.Quantile(0.999);
  if (timeline != nullptr) {
    out->timeline_status = timeline->Close();
    out->epochs_emitted = timeline->epochs_emitted();
  }
  return Status::Ok();
}

Status RunSaturationSweep(const WorkloadInstance& wl, const SweepOptions& opt,
                          SweepReport* out) {
  NTSG_CHECK(opt.max_steps > 0);
  NTSG_CHECK(opt.rate_multiplier > 1.0);
  *out = SweepReport{};
  out->certified = true;

  LoadOptions step_opt = opt.base;
  step_opt.timeline_path.clear();  // each step is a measurement, not a replay
  step_opt.pace = true;
  double rate = opt.base.rate;
  const obs::LoadMetrics& lm = obs::GetLoadMetrics();

  for (size_t s = 0; s < opt.max_steps; ++s) {
    step_opt.rate = rate;
    LoadReport report;
    Status status = RunLoad(wl, step_opt, &report);
    if (!status.ok()) return status;
    lm.sweep_steps->Inc();

    SweepStep step;
    step.offered_rate = rate;
    step.achieved_rate = report.achieved_rate;
    step.p50_us = report.p50_us;
    step.p99_us = report.p99_us;
    step.kneed = report.p99_us > opt.knee_p99_us ||
                 report.achieved_rate < opt.behind_fraction * rate;
    out->steps.push_back(step);
    out->certified = out->certified && report.certified;

    if (step.kneed) break;
    out->saturation_rate = report.achieved_rate;
    rate *= opt.rate_multiplier;
  }
  if (out->saturation_rate == 0 && !out->steps.empty()) {
    // Kneed on the very first step: the knee rate itself is the best
    // measured throughput figure available.
    out->saturation_rate = out->steps.front().achieved_rate;
  }
  return Status::Ok();
}

}  // namespace ntsg::load
