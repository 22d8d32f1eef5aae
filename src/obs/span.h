#ifndef NTSG_OBS_SPAN_H_
#define NTSG_OBS_SPAN_H_

#include <chrono>

#include "obs/metrics.h"

namespace ntsg::obs {

/// RAII span: records the enclosed scope's wall time, in microseconds, into
/// a latency histogram. The clock is read only when metrics are enabled *at
/// construction* — the disabled path is one branch, no syscall — and the
/// measured value feeds nothing but the histogram, so spans are safe inside
/// deterministic code (timing varies; verdicts and fingerprints cannot).
class SpanTimer {
 public:
  explicit SpanTimer(Histogram* histogram) {
    if (histogram != nullptr && MetricsEnabled()) {
      histogram_ = histogram;
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~SpanTimer() {
    if (histogram_ != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - start_;
      histogram_->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count()));
    }
  }

  /// Drops the span: nothing is observed when the scope ends.
  void Cancel() { histogram_ = nullptr; }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ntsg::obs

#endif  // NTSG_OBS_SPAN_H_
