#include "obs/timeline.h"

#include <cstdio>
#include <sstream>

#include "obs/metrics.h"

namespace ntsg::obs {

TimelineEmitter::TimelineEmitter(std::string path, bool include_wallclock)
    : path_(std::move(path)), include_wallclock_(include_wallclock) {}

Status TimelineEmitter::Open() {
  out_.open(path_, std::ios::trunc);
  if (!out_) {
    return Status::Internal("cannot open " + path_ + " for writing");
  }
  return Status::Ok();
}

namespace {

std::string Fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string TimelineEmitter::RenderLine(const TimelineEpoch& e,
                                        bool include_wallclock) {
  std::ostringstream out;
  out << "{\"epoch\":" << e.epoch << ",\"mode\":\"" << JsonEscape(e.mode)
      << "\",\"vtime_start_us\":" << e.vtime_start_us
      << ",\"vtime_end_us\":" << e.vtime_end_us << ",\"offered\":" << e.offered
      << ",\"admitted_total\":" << e.admitted_total
      << ",\"ops_total\":" << e.ops_total << ",\"verdict\":\""
      << JsonEscape(e.verdict) << "\",\"gc_runs\":" << e.gc_runs
      << ",\"gc_retired_families\":" << e.gc_retired_families
      << ",\"gc_watermark\":" << e.gc_watermark;
  if (include_wallclock) {
    out << ",\"p50_us\":" << Fixed3(e.p50_us) << ",\"p95_us\":"
        << Fixed3(e.p95_us) << ",\"p99_us\":" << Fixed3(e.p99_us)
        << ",\"p999_us\":" << Fixed3(e.p999_us)
        << ",\"wall_elapsed_s\":" << Fixed3(e.wall_elapsed_s);
    if (!e.metrics_json.empty()) out << ",\"metrics\":" << e.metrics_json;
  }
  out << "}";
  return out.str();
}

void TimelineEmitter::Emit(const TimelineEpoch& e) {
  if (!out_.is_open()) return;
  out_ << RenderLine(e, include_wallclock_) << "\n";
  ++epochs_emitted_;
}

Status TimelineEmitter::Close() {
  if (!out_.is_open()) return Status::Ok();
  out_.flush();
  const bool good = out_.good();
  out_.close();
  if (!good) return Status::Internal("short write to " + path_);
  return Status::Ok();
}

}  // namespace ntsg::obs
