#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace ntsg::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// NTSG_METRICS=1 (any nonempty value but "0") force-enables metrics at
/// process start — the CI hook that runs the full tier-1 gate instrumented
/// without touching any call site.
bool InitEnabledFromEnv() {
  const char* env = std::getenv("NTSG_METRICS");
  bool on = env != nullptr && env[0] != '\0' && std::string(env) != "0";
  g_enabled.store(on, std::memory_order_relaxed);
  return on;
}

const bool g_env_init = InitEnabledFromEnv();

}  // namespace

bool MetricsEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetMetricsEnabled(bool enabled) {
  (void)g_env_init;
  g_enabled.store(enabled, std::memory_order_relaxed);
}

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  NTSG_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  NTSG_CHECK(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
             bounds_.end())
      << "histogram bounds must be strictly increasing";
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(uint64_t v) {
  if (!MetricsEnabled()) return;
  ObserveAlways(v);
}

void Histogram::ObserveAlways(uint64_t v) {
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
             bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  // One consistent pass over the bucket counters; count_ may lag or lead
  // these by in-flight observations, so the rank is taken against the same
  // snapshot the walk uses.
  std::vector<uint64_t> snap(bounds_.size() + 1);
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    if (snap[i] == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += snap[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i == bounds_.size()) return static_cast<double>(bounds_.back());
    const double lower =
        i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
    const double upper = static_cast<double>(bounds_[i]);
    const double frac = (rank - below) / static_cast<double>(snap[i]);
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
  }
  return static_cast<double>(bounds_.empty() ? 0 : bounds_.back());
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::vector<uint64_t> DefaultLatencyBucketsUs() {
  return {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576};
}

std::vector<uint64_t> LogBuckets(uint64_t lo, uint64_t hi, int per_decade) {
  NTSG_CHECK(lo > 0 && hi >= lo && per_decade > 0);
  std::vector<uint64_t> bounds;
  const double step = std::pow(10.0, 1.0 / per_decade);
  double b = static_cast<double>(lo);
  while (true) {
    uint64_t v = static_cast<uint64_t>(std::llround(b));
    if (bounds.empty() || v > bounds.back()) bounds.push_back(v);
    if (v >= hi) break;
    b *= step;
  }
  return bounds;
}

std::vector<uint64_t> LoadLatencyBucketsUs() {
  return LogBuckets(1, 10'000'000, 8);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

std::string LabelPair(const std::string& key, const std::string& value) {
  std::string out = key + "=\"";
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Family& MetricsRegistry::FamilyFor(const std::string& name,
                                                    Kind kind,
                                                    const std::string& help) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
    it->second.help = help;
  } else {
    NTSG_CHECK(it->second.kind == kind)
        << "metric family " << name << " re-registered with another kind";
  }
  return it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst =
      FamilyFor(name, Kind::kCounter, help).instances[labels];
  if (inst.counter == nullptr) inst.counter = std::make_unique<Counter>();
  return inst.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = FamilyFor(name, Kind::kGauge, help).instances[labels];
  if (inst.gauge == nullptr) inst.gauge = std::make_unique<Gauge>();
  return inst.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<uint64_t> bounds,
                                         const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst =
      FamilyFor(name, Kind::kHistogram, help).instances[labels];
  if (inst.histogram == nullptr) {
    inst.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return inst.histogram.get();
}

namespace {

/// Prometheus metric names admit only [a-zA-Z0-9_:] (and no leading digit);
/// anything else — quotes, spaces, control characters from a hostile
/// registration — is mapped to '_' so the exposition stays parseable.
std::string SanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

/// HELP text escaping per the exposition format: backslash and newline.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Defense in depth for label strings that bypassed LabelPair: raw newlines
/// and carriage returns would break the line-oriented exposition, other
/// control characters are unrepresentable in it — replace them. Properly
/// escaped strings pass through untouched.
std::string SanitizeLabelBlock(const std::string& labels) {
  std::string out;
  out.reserve(labels.size());
  for (unsigned char c : labels) {
    if (c == '\n') {
      out += "\\n";
    } else if (c < 0x20) {
      out.push_back('_');
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

/// `name` or `name{labels}`; `extra` appends to the label list (histogram le).
std::string Series(const std::string& name, const std::string& labels,
                   const std::string& extra = "") {
  std::string inner = SanitizeLabelBlock(labels);
  if (!extra.empty()) inner += (inner.empty() ? "" : ",") + extra;
  if (inner.empty()) return name;
  return name + "{" + inner + "}";
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [raw_name, family] : families_) {
    const std::string name = SanitizeMetricName(raw_name);
    out << "# HELP " << name << " " << EscapeHelp(family.help) << "\n";
    const char* type = nullptr;
    switch (family.kind) {
      case Kind::kCounter:
        type = "counter";
        break;
      case Kind::kGauge:
        type = "gauge";
        break;
      case Kind::kHistogram:
        type = "histogram";
        break;
    }
    out << "# TYPE " << name << " " << type << "\n";
    for (const auto& [labels, inst] : family.instances) {
      switch (family.kind) {
        case Kind::kCounter:
          out << Series(name, labels) << " " << inst.counter->value() << "\n";
          break;
        case Kind::kGauge:
          out << Series(name, labels) << " " << inst.gauge->value() << "\n";
          break;
        case Kind::kHistogram: {
          // Exposition-format conformance: the cumulative `+Inf` bucket and
          // `_count` must be equal and no smaller than any finite bucket
          // within one scrape. Both are therefore derived from a single
          // pass over the bucket counters — the separate count_ cell can
          // lag an in-flight Observe (bucket incremented, count not yet)
          // and would render a non-monotone bucket series.
          const Histogram& h = *inst.histogram;
          uint64_t cumulative = 0;
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket(i);
            out << Series(name + "_bucket", labels,
                          "le=\"" + std::to_string(h.bounds()[i]) + "\"")
                << " " << cumulative << "\n";
          }
          cumulative += h.bucket(h.bounds().size());
          out << Series(name + "_bucket", labels, "le=\"+Inf\"") << " "
              << cumulative << "\n";
          out << Series(name + "_sum", labels) << " " << h.sum() << "\n";
          out << Series(name + "_count", labels) << " " << cumulative
              << "\n";
          break;
        }
      }
    }
  }
  return out.str();
}

namespace {

/// Fixed-precision decimal rendering for quantile estimates: three decimals,
/// never scientific notation, so exporters are byte-deterministic for equal
/// values regardless of locale or magnitude.
std::string FormatQuantile(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::JsonText(bool compact) const {
  const char* nl = compact ? "" : "\n";
  const char* indent = compact ? "" : "  ";
  const char* sp = compact ? "" : " ";
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{" << nl;
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) out << "," << nl;
    first_family = false;
    out << indent << "\"" << JsonEscape(name) << "\":" << sp << "{";
    bool first_inst = true;
    for (const auto& [labels, inst] : family.instances) {
      if (!first_inst) out << "," << sp;
      first_inst = false;
      out << "\"" << (labels.empty() ? "_" : JsonEscape(labels)) << "\":"
          << sp;
      switch (family.kind) {
        case Kind::kCounter:
          out << inst.counter->value();
          break;
        case Kind::kGauge:
          out << inst.gauge->value();
          break;
        case Kind::kHistogram: {
          // Same single-pass consistency rule as the Prometheus exposition:
          // "count" is the bucket total, so it always equals the sum of
          // "buckets" within one snapshot.
          const Histogram& h = *inst.histogram;
          uint64_t total = 0;
          for (size_t i = 0; i <= h.bounds().size(); ++i) {
            total += h.bucket(i);
          }
          out << "{\"count\":" << sp << total << "," << sp
              << "\"sum\":" << sp << h.sum() << "," << sp << "\"p50\":" << sp
              << FormatQuantile(h.Quantile(0.50)) << "," << sp
              << "\"p95\":" << sp << FormatQuantile(h.Quantile(0.95)) << ","
              << sp << "\"p99\":" << sp << FormatQuantile(h.Quantile(0.99))
              << "," << sp << "\"buckets\":" << sp << "[";
          for (size_t i = 0; i <= h.bounds().size(); ++i) {
            if (i > 0) out << "," << sp;
            out << h.bucket(i);
          }
          out << "]}";
          break;
        }
      }
    }
    out << "}";
  }
  out << nl << "}" << nl;
  return out.str();
}

std::string MetricsRegistry::QuantileText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    if (family.kind != Kind::kHistogram) continue;
    for (const auto& [labels, inst] : family.instances) {
      const Histogram& h = *inst.histogram;
      uint64_t total = 0;
      for (size_t i = 0; i <= h.bounds().size(); ++i) total += h.bucket(i);
      if (total == 0) continue;
      out << name << (labels.empty() ? "" : "{" + labels + "}") << ": p50="
          << FormatQuantile(h.Quantile(0.50))
          << " p95=" << FormatQuantile(h.Quantile(0.95))
          << " p99=" << FormatQuantile(h.Quantile(0.99)) << " (" << total
          << " samples)\n";
    }
  }
  return out.str();
}

Status MetricsRegistry::WriteSnapshot(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::Internal("cannot open " + path + " for writing");
  bool json = path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  file << (json ? JsonText() : PrometheusText());
  if (!file.good()) return Status::Internal("short write to " + path);
  return Status::Ok();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [labels, inst] : family.instances) {
      switch (family.kind) {
        case Kind::kCounter:
          inst.counter->Reset();
          break;
        case Kind::kGauge:
          inst.gauge->Reset();
          break;
        case Kind::kHistogram:
          inst.histogram->Reset();
          break;
      }
    }
  }
}

}  // namespace ntsg::obs
