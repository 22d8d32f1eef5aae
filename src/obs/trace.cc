#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"

namespace ntsg::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// NTSG_TRACE=1 (any nonempty value but "0") force-enables tracing at
/// process start — how CI runs the full tier-1 gate recording without
/// touching any call site.
bool InitEnabledFromEnv() {
  const char* env = std::getenv("NTSG_TRACE");
  bool on = env != nullptr && env[0] != '\0' && std::string(env) != "0";
  g_enabled.store(on, std::memory_order_relaxed);
  return on;
}

const bool g_env_init = InitEnabledFromEnv();

constexpr size_t kDefaultRingCapacity = 4096;

std::string FlagsToString(uint8_t flags) {
  static constexpr struct {
    uint8_t bit;
    const char* name;
  } kBits[] = {
      {kTraceFlagConflict, "conflict"},   {kTraceFlagPrecedes, "precedes"},
      {kTraceFlagAbort, "abort"},         {kTraceFlagReject, "reject"},
      {kTraceFlagSpurious, "spurious"},   {kTraceFlagInappropriate, "inappropriate"},
      {kTraceFlagCycle, "cycle"},
  };
  std::string out;
  for (const auto& b : kBits) {
    if ((flags & b.bit) == 0) continue;
    if (!out.empty()) out += "|";
    out += b.name;
  }
  return out;
}

}  // namespace

bool TraceEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetTraceEnabled(bool enabled) {
  (void)g_env_init;
  g_enabled.store(enabled, std::memory_order_relaxed);
}

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kActionIngested: return "action_ingested";
    case TraceEventKind::kActionExecuted: return "action_executed";
    case TraceEventKind::kSpanBegin: return "span_begin";
    case TraceEventKind::kSpanEnd: return "span_end";
    case TraceEventKind::kOpActivated: return "op_activated";
    case TraceEventKind::kOpParked: return "op_parked";
    case TraceEventKind::kOpFired: return "op_fired";
    case TraceEventKind::kOpDropped: return "op_dropped";
    case TraceEventKind::kEdgeInserted: return "edge_inserted";
    case TraceEventKind::kEdgeRejected: return "edge_rejected";
    case TraceEventKind::kEdgeRemoved: return "edge_removed";
    case TraceEventKind::kTopoReorder: return "topo_reorder";
    case TraceEventKind::kAdmissionCheck: return "admission_check";
    case TraceEventKind::kVerdictRejected: return "verdict_rejected";
    case TraceEventKind::kFaultFired: return "fault_fired";
    case TraceEventKind::kStallAbort: return "stall_abort";
    case TraceEventKind::kInjectedAbort: return "injected_abort";
    case TraceEventKind::kGcRun: return "gc_run";
    case TraceEventKind::kGcRetire: return "gc_retire";
    case TraceEventKind::kGcLateEvent: return "gc_late_event";
    case TraceEventKind::kIsoLevelRejected: return "iso_level_rejected";
    case TraceEventKind::kIsoMinerHit: return "iso_miner_hit";
  }
  return "unknown";
}

TraceEventFieldInfo TraceEventFields(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSpanBegin:
    case TraceEventKind::kSpanEnd:
    case TraceEventKind::kEdgeInserted:
    case TraceEventKind::kEdgeRejected:
    case TraceEventKind::kEdgeRemoved:
    case TraceEventKind::kTopoReorder:
      return {true, true};
    case TraceEventKind::kActionIngested:
    case TraceEventKind::kActionExecuted:
    case TraceEventKind::kOpActivated:
    case TraceEventKind::kOpParked:
    case TraceEventKind::kOpFired:
    case TraceEventKind::kOpDropped:
    case TraceEventKind::kAdmissionCheck:
    case TraceEventKind::kStallAbort:
    case TraceEventKind::kInjectedAbort:
    case TraceEventKind::kGcRetire:
    case TraceEventKind::kGcLateEvent:
      return {true, false};
    case TraceEventKind::kVerdictRejected:
    case TraceEventKind::kFaultFired:
    case TraceEventKind::kGcRun:
    case TraceEventKind::kIsoLevelRejected:
    case TraceEventKind::kIsoMinerHit:
      return {false, false};
  }
  return {false, false};
}

// --- TraceRing --------------------------------------------------------------

std::vector<TraceEvent> TraceRing::Snapshot(size_t last_n) const {
  uint64_t n = std::min<uint64_t>(count_, buf_.size());
  if (last_n < n) n = last_n;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = count_ - n; i < count_; ++i) {
    out.push_back(buf_[i % buf_.size()]);
  }
  return out;
}

// --- TraceRecorder ----------------------------------------------------------

struct TraceRecorder::Impl {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<TraceRing>> rings;  // by tid
  std::vector<TraceRing*> free_rings;             // LIFO: successor inherits
  size_t capacity = kDefaultRingCapacity;
  // Bumped by Clear(): stale thread-bound ring pointers are detected by
  // epoch mismatch and never dereferenced.
  std::atomic<uint64_t> epoch{1};
  std::atomic<uint64_t> seq{0};
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
};

/// Thread-lifetime binding of one ring: created on a thread's first emit,
/// returns the ring to the recorder's free list when the thread exits so a
/// successor thread inherits the history.
class TraceRingLease {
 public:
  ~TraceRingLease() {
    if (ring != nullptr) {
      TraceRecorder::Default().ReleaseRing(ring, epoch);
    }
  }
  TraceRing* ring = nullptr;
  uint64_t epoch = 0;
};

namespace {
thread_local TraceRingLease t_lease;
}  // namespace

TraceRecorder::TraceRecorder() : impl_(new Impl()) {}

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRing* TraceRecorder::RingForThisThread() {
  uint64_t epoch = impl_->epoch.load(std::memory_order_relaxed);
  if (t_lease.ring != nullptr && t_lease.epoch == epoch) return t_lease.ring;
  std::lock_guard<std::mutex> lock(impl_->mu);
  TraceRing* ring = nullptr;
  if (!impl_->free_rings.empty()) {
    ring = impl_->free_rings.back();
    impl_->free_rings.pop_back();
  } else {
    uint32_t tid = static_cast<uint32_t>(impl_->rings.size());
    impl_->rings.push_back(std::make_unique<TraceRing>(tid, impl_->capacity));
    ring = impl_->rings.back().get();
  }
  t_lease.ring = ring;
  t_lease.epoch = impl_->epoch.load(std::memory_order_relaxed);
  return ring;
}

void TraceRecorder::ReleaseRing(TraceRing* ring, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (epoch != impl_->epoch.load(std::memory_order_relaxed)) return;
  impl_->free_rings.push_back(ring);
}

void TraceRecorder::Emit(TraceEventKind kind, uint32_t span, uint32_t a,
                         uint32_t b, uint8_t flags, uint64_t arg) {
  TraceRing* ring = RingForThisThread();
  TraceEvent e;
  e.seq = impl_->seq.fetch_add(1, std::memory_order_relaxed);
  e.ts_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - impl_->t0)
          .count());
  e.arg = arg;
  e.span = span;
  e.a = a;
  e.b = b;
  e.kind = kind;
  e.flags = flags;
  ring->Append(e);
}

void TraceRecorder::SetRingCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

size_t TraceRecorder::ring_capacity() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->capacity;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->rings.clear();
  impl_->free_rings.clear();
  impl_->epoch.fetch_add(1, std::memory_order_relaxed);
  impl_->seq.store(0, std::memory_order_relaxed);
  impl_->t0 = std::chrono::steady_clock::now();
}

size_t TraceRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->rings.size();
}

uint64_t TraceRecorder::total_events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t total = 0;
  for (const auto& r : impl_->rings) total += r->count();
  return total;
}

std::vector<TraceEvent> TraceRecorder::MergedEvents() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& r : impl_->rings) {
      std::vector<TraceEvent> part = r->Snapshot();
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.seq < y.seq;
            });
  return all;
}

namespace {

/// Renders a subject field: resolved through `name_of` when the kind says it
/// holds a transaction name, numeric otherwise.
std::string Subject(uint32_t v, bool is_tx, const TraceNameFn& name_of) {
  if (is_tx && name_of != nullptr) return name_of(v);
  return std::to_string(v);
}

}  // namespace

std::string TraceRecorder::NdjsonText(const TraceNameFn& name_of) const {
  std::ostringstream out;
  // tid lookup: re-associate each event with its ring for the tid column.
  std::vector<std::pair<uint32_t, TraceEvent>> all;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& r : impl_->rings) {
      for (const TraceEvent& e : r->Snapshot()) all.emplace_back(r->tid(), e);
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    return x.second.seq < y.second.seq;
  });
  for (const auto& [tid, e] : all) {
    TraceEventFieldInfo info = TraceEventFields(e.kind);
    out << "{\"seq\":" << e.seq << ",\"ts_us\":" << e.ts_us << ",\"tid\":"
        << tid << ",\"kind\":\"" << TraceEventKindName(e.kind)
        << "\",\"span\":\""
        << JsonEscape(Subject(e.span, /*is_tx=*/true, name_of)) << "\",\"a\":\""
        << JsonEscape(Subject(e.a, info.a_is_tx, name_of)) << "\",\"b\":\""
        << JsonEscape(Subject(e.b, info.b_is_tx, name_of)) << "\",\"arg\":"
        << e.arg;
    if (e.flags != 0) {
      out << ",\"flags\":\"" << FlagsToString(e.flags) << "\"";
    }
    out << "}\n";
  }
  return out.str();
}

std::string TraceRecorder::ChromeTraceJson(const TraceNameFn& name_of) const {
  std::vector<std::pair<uint32_t, TraceEvent>> all;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& r : impl_->rings) {
      for (const TraceEvent& e : r->Snapshot()) all.emplace_back(r->tid(), e);
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    return x.second.seq < y.second.seq;
  });
  std::ostringstream out;
  out << "{\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"ntsg\"}}";
  for (const auto& [tid, e] : all) {
    TraceEventFieldInfo info = TraceEventFields(e.kind);
    out << ",\n";
    if (e.kind == TraceEventKind::kSpanBegin ||
        e.kind == TraceEventKind::kSpanEnd) {
      // Transaction intervals as async begin/end pairs keyed by the
      // transaction name: REQUEST_CREATE opens, REPORT_* closes, and the
      // parent relation mirrors the transaction tree.
      bool begin = e.kind == TraceEventKind::kSpanBegin;
      out << "{\"name\":\"" << JsonEscape(Subject(e.a, true, name_of))
          << "\",\"cat\":\"tx\",\"ph\":\"" << (begin ? "b" : "e")
          << "\",\"id\":" << e.a << ",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << e.ts_us;
      if (begin) {
        out << ",\"args\":{\"parent\":\""
            << JsonEscape(Subject(e.b, true, name_of)) << "\",\"pos\":"
            << e.arg << "}";
      } else if (e.flags & kTraceFlagAbort) {
        out << ",\"args\":{\"outcome\":\"abort\"}";
      }
      out << "}";
    } else {
      out << "{\"name\":\"" << TraceEventKindName(e.kind)
          << "\",\"cat\":\"ntsg\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
             "\"tid\":"
          << tid << ",\"ts\":" << e.ts_us << ",\"args\":{\"span\":\""
          << JsonEscape(Subject(e.span, true, name_of)) << "\",\"a\":\""
          << JsonEscape(Subject(e.a, info.a_is_tx, name_of)) << "\",\"b\":\""
          << JsonEscape(Subject(e.b, info.b_is_tx, name_of)) << "\",\"arg\":"
          << e.arg << ",\"flags\":\"" << FlagsToString(e.flags) << "\"}}";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

std::string TraceRecorder::FlightRecorderText(size_t last_n,
                                              const TraceNameFn& name_of)
    const {
  std::ostringstream out;
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t total = 0;
  for (const auto& r : impl_->rings) total += r->count();
  out << "flight recorder: " << impl_->rings.size() << " ring(s), capacity "
      << impl_->capacity << ", " << total << " event(s) recorded\n";
  for (const auto& r : impl_->rings) {
    std::vector<TraceEvent> events = r->Snapshot(last_n);
    out << "-- ring " << r->tid() << ": showing " << events.size() << " of "
        << r->count() << " event(s), " << r->dropped() << " overwritten --\n";
    for (const TraceEvent& e : events) {
      TraceEventFieldInfo info = TraceEventFields(e.kind);
      out << "  [seq " << e.seq << " ts " << e.ts_us << "us] "
          << TraceEventKindName(e.kind) << " span="
          << Subject(e.span, true, name_of) << " a="
          << Subject(e.a, info.a_is_tx, name_of) << " b="
          << Subject(e.b, info.b_is_tx, name_of) << " arg=" << e.arg;
      if (e.flags != 0) out << " flags=" << FlagsToString(e.flags);
      out << "\n";
    }
  }
  return out.str();
}

Status TraceRecorder::WriteTrace(const std::string& path,
                                 const TraceNameFn& name_of) const {
  std::ofstream file(path);
  if (!file) return Status::Internal("cannot open " + path + " for writing");
  bool json = path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  file << (json ? ChromeTraceJson(name_of) : NdjsonText(name_of));
  if (!file.good()) return Status::Internal("short write to " + path);
  return Status::Ok();
}

namespace internal {

void EmitSlow(TraceEventKind kind, uint32_t span, uint32_t a, uint32_t b,
              uint8_t flags, uint64_t arg) {
  TraceRecorder::Default().Emit(kind, span, a, b, flags, arg);
}

}  // namespace internal

}  // namespace ntsg::obs
