// One differential oracle for Theorem 8/19 (DESIGN.md §5).
//
// Five implementations answer the theorem and must agree on every behavior
// β: the batch SG build, the A2 timeline, the online certifier under GC, the
// online certifier under crash-restore, and the isolation checkers'
// serializable level. This harness runs every certifier configuration a
// production caller reaches on every trace source, and checks them against
// each other and against two oracles: the naive relations of sg/reference.h
// and the bounded exhaustive search ExhaustiveSerialCheck.
//
// Configurations, by caller:
//   certify                     batch CertifySeriallyCorrect
//   certify --gc=N              batch with CertifyOptions::gc_watermark
//   certify --online [--gc=N]   IncrementalCertifier, GC interval N
//   certify F.ntsgs             the binary segment input
//   certify --online --wal D    the WAL TraceStore input
//   chaos                       CertifyWithCrashes under a seeded plan
//   run, audit, sweep           FastSgAcyclicity, CheckSeriallyCorrectForT0
//   explain                     ExplainCycle over every reported cycle
//   isolate [--online]          CheckIsolationLevels, IncrementalIsoChecker
//   load, perfbench             IncrementalCertifier with GC off and on
// The online lattice (OnlineConfig) is GC interval {off, 1, small, 64} ×
// input {as built, text, binary segments, WAL} × {no crash, crash plan}; a
// new precedes encoding joins it as one more axis.
//
// Sources: the golden corpus, the anomaly templates, one seeded generator
// over every backend × object type × size (broken backends included), and
// hand-built adversarial traces. The invariants are listed in DESIGN.md §5
// and at the checks below: at every prefix (CaseChecker::Lockstep), after
// every planned crash (Crashes), and at the end of each trace (Run).
//
// oracle_test runs a deterministic sample in which every configuration
// meets every source family; oracle_full_test, this file compiled with
// NTSG_ORACLE_FULL, runs the full product over 10× the seeds. A failure
// names the source, the configuration and the shortest failing prefix, and
// saves that prefix under ::testing::TempDir() as a text trace that `ntsg
// certify` or `ntsg isolate` replays.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "checker/brute_force.h"
#include "checker/witness.h"
#include "corpus_manifest.h"
#include "fault/fault_plan.h"
#include "iso/anomaly_traces.h"
#include "iso/checker.h"
#include "iso/incremental_iso.h"
#include "sg/certifier.h"
#include "sg/explain.h"
#include "sg/fast_graph.h"
#include "sg/fingerprint.h"
#include "sg/incremental_certifier.h"
#include "sg/reference.h"
#include "sim/chaos.h"
#include "sim/driver.h"
#include "tx/segment/segment_reader.h"
#include "tx/segment/trace_store.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

#ifdef NTSG_ORACLE_FULL
constexpr bool kFullProduct = true;
constexpr uint64_t kSeedScale = 10;
#else
constexpr bool kFullProduct = false;
constexpr uint64_t kSeedScale = 1;
#endif

// --- Sources ----------------------------------------------------------------

enum class Family { kCorpus, kTemplate, kGenerated, kAdversarial };

enum class Input { kAsBuilt, kText, kBinary, kWal };

/// The source in one input format, decoded into a fresh SystemType.
struct Decoded {
  std::unique_ptr<SystemType> type;
  Trace trace;
};

struct Source {
  std::string name;
  Family family = Family::kGenerated;
  std::unique_ptr<SystemType> type;
  Trace trace;
  std::vector<ConflictMode> modes;
  /// Small enough to rebuild the graph at every prefix and to search
  /// exhaustively.
  bool small = false;
  /// Produced by a correct scheduler: the exhaustive search must accept.
  bool correct = false;
  std::optional<CorpusEntry> row;
  /// Drives the small GC interval and the crash plans.
  uint64_t seed = 0;
  /// Round trips made so far, shared by the source's conflict modes.
  std::map<Input, Decoded> decoded;
};

std::vector<ConflictMode> ModesFor(const SystemType& type) {
  for (ObjectId x = 0; x < type.num_objects(); ++x) {
    if (type.object_type(x) != ObjectType::kReadWrite) {
      return {ConflictMode::kCommutativity};
    }
  }
  return {ConflictMode::kReadWrite, ConflictMode::kCommutativity};
}

std::vector<Source> CorpusSources() {
  std::vector<Source> out;
  for (const CorpusEntry& e : LoadCorpusManifests()) {
    Source s;
    s.name = "corpus/" + e.file;
    s.family = Family::kCorpus;
    s.type = std::make_unique<SystemType>();
    Status st = ReadTraceFile(CorpusPath(e.file), s.type.get(), &s.trace);
    EXPECT_TRUE(st.ok()) << e.file << ": " << st.ToString();
    s.modes = {e.mode};
    s.small = s.trace.size() <= 60;
    s.row = e;
    s.seed = out.size() + 1;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Source> TemplateSources() {
  std::vector<Source> out;
  for (size_t t = 0; t < kNumAnomalyTemplates; ++t) {
    for (uint64_t salt : {0, 1, 2}) {
      BuiltTrace built = BuildAnomalyTrace(static_cast<AnomalyTemplate>(t),
                                           salt);
      Source s;
      s.name = std::string("template/") +
               AnomalyTemplateName(static_cast<AnomalyTemplate>(t)) + "#" +
               std::to_string(salt);
      s.family = Family::kTemplate;
      s.type = std::move(built.type);
      s.trace = std::move(built.trace);
      s.modes = ModesFor(*s.type);
      s.small = true;
      s.seed = out.size() + 1;
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// The generator's sizes. The small ones are searched exhaustively and
/// rebuilt at every prefix.
struct Size {
  const char* name;
  size_t objects;
  size_t toplevels;
  int fanout;
  uint64_t seeds;  // per backend and object type, in tier 1
  bool small;
};
constexpr Size kSizes[] = {
    {"tiny", 2, 2, 2, 10, true},
    {"small", 2, 3, 2, 6, true},
    {"medium", 6, 6, 3, 3, false},
};

/// The one workload generator: a seeded QuickRun whose program shape depends
/// only on (object type, size, seed), so backends differ only in scheduling.
Source Generate(Backend backend, ObjectType object, const Size& size,
                uint64_t seed) {
  QuickRunParams p;
  p.config.backend = backend;
  p.config.seed = seed;
  p.config.spontaneous_abort_prob = seed % 2 == 0 ? 0.004 : 0.0;
  p.config.stall_policy = seed % 3 == 0 ? StallPolicy::kAbortInnermost
                                        : StallPolicy::kAbortTopLevel;
  p.num_objects = size.objects;
  p.object_type = object;
  p.num_toplevel = size.toplevels;
  p.toplevel_retries = 1;
  p.gen.depth = 2;
  p.gen.fanout = size.fanout;
  p.gen.read_prob = 0.5;
  p.gen.child_retries = 1;
  QuickRunResult run = QuickRun(p);
  Source s;
  s.name = std::string("generated/") + BackendName(backend) + "/" +
           ObjectTypeName(object) + "/" + size.name + "/seed" +
           std::to_string(seed);
  s.type = std::move(run.type);
  s.trace = std::move(run.sim.trace);
  s.modes = ModesFor(*s.type);
  s.small = size.small;
  s.correct = !IsBrokenBackend(backend);
  s.seed = seed;
  return s;
}

std::vector<Source> GeneratedSources() {
  const Backend kAnyType[] = {Backend::kUndo, Backend::kNoCommuteUndo,
                              Backend::kSgt, Backend::kGeneralLocking};
  const Backend kReadWriteOnly[] = {
      Backend::kMoss, Backend::kDirtyReadMoss, Backend::kNoReadLockMoss,
      Backend::kIgnoreReadersMoss, Backend::kMvto};
  std::vector<Source> out;
  for (const Size& size : kSizes) {
    for (uint64_t seed = 1; seed <= size.seeds * kSeedScale; ++seed) {
      for (ObjectType object :
           {ObjectType::kReadWrite, ObjectType::kCounter, ObjectType::kSet,
            ObjectType::kQueue, ObjectType::kBankAccount}) {
        for (Backend b : kAnyType) {
          out.push_back(Generate(b, object, size, seed));
        }
        if (object != ObjectType::kReadWrite) continue;
        for (Backend b : kReadWriteOnly) {
          out.push_back(Generate(b, object, size, seed));
        }
      }
    }
  }
  return out;
}

/// The action sequences a controller emits, for hand-built traces.
struct TraceBuilder {
  Trace beta;
  void Open(TxName t) {
    beta.push_back(Action::RequestCreate(t));
    beta.push_back(Action::Create(t));
  }
  void Access(TxName a, Value v) {
    Open(a);
    beta.push_back(Action::RequestCommit(a, v));
    beta.push_back(Action::Commit(a));
    beta.push_back(Action::ReportCommit(a, v));
  }
  void Close(TxName t) {
    beta.push_back(Action::RequestCommit(t, Value::Ok()));
    beta.push_back(Action::Commit(t));
    beta.push_back(Action::ReportCommit(t, Value::Ok()));
  }
};

Source Adversarial(std::string name, std::unique_ptr<SystemType> type,
                   Trace trace) {
  Source s;
  s.name = "adversarial/" + name;
  s.family = Family::kAdversarial;
  s.modes = ModesFor(*type);
  s.type = std::move(type);
  s.trace = std::move(trace);
  s.small = true;
  s.seed = 7;
  return s;
}

// (a) GC closure. F is sealed while its SG-predecessor P is live: with GC
// every action, a pass after P's commit finds F reported and below the
// watermark (Q's parked reads hold it) while P's late write keeps P live.
// Q's commit then closes P -> F -> Q -> P, so a collector that retires F
// without its predecessors misses the cycle.
Source GcClosureTrace() {
  auto type = std::make_unique<SystemType>();
  ObjectId x = type->AddObject(ObjectType::kReadWrite, "X", 0);
  ObjectId z = type->AddObject(ObjectType::kReadWrite, "Z", 0);
  TxName p = type->NewChild(kT0);
  TxName f = type->NewChild(kT0);
  TxName q = type->NewChild(kT0);
  TxName p_rx = type->NewAccess(p, AccessSpec{x, OpCode::kRead, 0});
  TxName f_wx = type->NewAccess(f, AccessSpec{x, OpCode::kWrite, 5});
  TxName q_rx = type->NewAccess(q, AccessSpec{x, OpCode::kRead, 0});
  TxName q_rz = type->NewAccess(q, AccessSpec{z, OpCode::kRead, 0});
  TxName p_wz = type->NewAccess(p, AccessSpec{z, OpCode::kWrite, 7});
  TraceBuilder b;
  b.Open(p);
  b.Open(f);
  b.Open(q);
  b.Access(p_rx, Value::Int(0));
  b.Access(f_wx, Value::Ok());
  b.Close(f);
  b.Access(q_rx, Value::Int(5));  // parked until Q commits
  b.Access(q_rz, Value::Int(0));
  b.Access(p_wz, Value::Ok());
  b.Close(p);
  b.Close(q);
  return Adversarial("gc_closure", std::move(type), std::move(b.beta));
}

// (b) Two-epoch precedes. T reports, then U's request seals epoch 1; W
// reports, then T2's request seals epoch 2. T precedes T2 only through the
// epoch chain, and the cycle is L -> T (X) -> T2 (precedes) -> L (Y).
Source TwoEpochTrace() {
  auto type = std::make_unique<SystemType>();
  ObjectId x = type->AddObject(ObjectType::kReadWrite, "X", 0);
  ObjectId y = type->AddObject(ObjectType::kReadWrite, "Y", 0);
  TxName l = type->NewChild(kT0);
  TxName t = type->NewChild(kT0);
  TxName w = type->NewChild(kT0);
  TxName u = type->NewChild(kT0);
  TxName t2 = type->NewChild(kT0);
  TxName l_wx = type->NewAccess(l, AccessSpec{x, OpCode::kWrite, 5});
  TxName t_rx = type->NewAccess(t, AccessSpec{x, OpCode::kRead, 0});
  TxName t2_wy = type->NewAccess(t2, AccessSpec{y, OpCode::kWrite, 3});
  TxName l_ry = type->NewAccess(l, AccessSpec{y, OpCode::kRead, 0});
  TraceBuilder b;
  b.Open(l);
  b.Open(t);
  b.Open(w);
  b.Access(l_wx, Value::Ok());
  b.Access(t_rx, Value::Int(5));
  b.Close(t);
  b.Open(u);  // seals epoch 1
  b.Close(w);
  b.Open(t2);  // seals epoch 2
  b.Access(t2_wy, Value::Ok());
  b.Close(t2);
  b.Access(l_ry, Value::Int(3));
  b.Close(l);
  b.Close(u);
  return Adversarial("two_epoch_precedes", std::move(type),
                     std::move(b.beta));
}

// (c) Out-of-order deep reveal. B's read becomes visible before A's nested
// write because S commits late, so the write is revealed at an earlier
// position than an already visible operation: the frontier's out-of-order
// rescan must emit A -> B.
Source DeepRevealTrace() {
  auto type = std::make_unique<SystemType>();
  ObjectId x = type->AddObject(ObjectType::kReadWrite, "X");
  TxName a = type->NewChild(kT0);
  TxName s = type->NewChild(a);
  TxName a1 = type->NewAccess(s, AccessSpec{x, OpCode::kWrite, 7});
  TxName b = type->NewChild(kT0);
  TxName b1 = type->NewAccess(b, AccessSpec{x, OpCode::kRead, 0});
  TraceBuilder tb;
  tb.Open(a);
  tb.Open(b);
  tb.Open(s);
  tb.Access(a1, Value::Ok());
  tb.Access(b1, Value::Int(7));
  tb.Close(b);
  tb.Close(s);
  tb.Close(a);
  return Adversarial("deep_reveal", std::move(type), std::move(tb.beta));
}

// A hand-written transfer between X and Y with nested reads, run through
// three correct schedulers: whatever interleaving each admits, the
// exhaustive search must accept it.
Source TransferRun(Backend backend) {
  auto type = std::make_unique<SystemType>();
  ObjectId x = type->AddObject(ObjectType::kReadWrite, "X", 10);
  ObjectId y = type->AddObject(ObjectType::kReadWrite, "Y", 0);
  std::vector<std::unique_ptr<ProgramNode>> first;
  first.push_back(MakeAccess(x, OpCode::kRead, 0));
  first.push_back(MakeAccess(x, OpCode::kWrite, 3));
  first.push_back(MakeAccess(y, OpCode::kWrite, 7));
  std::vector<std::unique_ptr<ProgramNode>> inner;
  inner.push_back(MakeAccess(y, OpCode::kRead, 0));
  inner.push_back(MakeAccess(x, OpCode::kRead, 0));
  std::vector<std::unique_ptr<ProgramNode>> second;
  second.push_back(MakePar(std::move(inner)));
  second.push_back(MakeAccess(y, OpCode::kWrite, 1));
  std::vector<std::unique_ptr<ProgramNode>> tops;
  tops.push_back(MakeSeq(std::move(first)));
  tops.push_back(MakeSeq(std::move(second)));
  Simulation sim(type.get(), MakePar(std::move(tops), /*child_retries=*/1));
  SimConfig config;
  config.backend = backend;
  config.seed = 42;
  SimResult result = sim.Run(config);
  EXPECT_TRUE(result.stats.completed) << BackendName(backend);
  Source s = Adversarial(std::string("transfer/") + BackendName(backend),
                         std::move(type), std::move(result.trace));
  s.correct = true;
  return s;
}

std::vector<Source> AdversarialSources() {
  std::vector<Source> out;
  out.push_back(GcClosureTrace());
  out.push_back(TwoEpochTrace());
  out.push_back(DeepRevealTrace());
  for (Backend b : {Backend::kMoss, Backend::kUndo, Backend::kMvto}) {
    out.push_back(TransferRun(b));
  }
  return out;
}

// --- Configurations ---------------------------------------------------------

constexpr size_t kNumGcSlots = 4;
constexpr size_t kNumInputs = 4;
constexpr size_t kNumConfigs = kNumGcSlots * kNumInputs * 2;

const char* InputName(Input input) {
  constexpr const char* kNames[kNumInputs] = {"as-built", "text", "binary",
                                              "wal"};
  return kNames[static_cast<size_t>(input)];
}

/// One point of the online lattice. Even indices run without a crash plan.
struct OnlineConfig {
  size_t gc_slot;  // off, every action, small, 64
  Input input;
  bool crash;

  static OnlineConfig At(size_t i) {
    return {i / (kNumInputs * 2), static_cast<Input>(i / 2 % kNumInputs),
            i % 2 == 1};
  }
  size_t GcInterval(uint64_t seed) const {
    const size_t kIntervals[kNumGcSlots] = {0, 1, 2 + seed % 14, 64};
    return kIntervals[gc_slot];
  }
  std::string Name(uint64_t seed) const {
    return "online gc=" + std::to_string(GcInterval(seed)) +
           " input=" + InputName(input) + (crash ? " crash-plan" : "");
  }
};

/// The configurations case `j` of a family runs. The full product and the
/// adversarial family run all of them; otherwise one lockstep configuration
/// rotates through the 16 crash-free points, and a crash configuration
/// through the other 16 (on every third generated case, on every case of
/// the smaller families).
std::vector<size_t> SampleConfigs(Family family, size_t j) {
  std::vector<size_t> out;
  if (kFullProduct || family == Family::kAdversarial) {
    for (size_t i = 0; i < kNumConfigs; ++i) out.push_back(i);
    return out;
  }
  constexpr size_t kPoints = kNumConfigs / 2;  // per crash setting
  out.push_back(2 * (j % kPoints));
  if (family != Family::kGenerated) {
    out.push_back(2 * (j % kPoints) + 1);
  } else if (j % 3 == 0) {
    out.push_back(2 * (j / 3 % kPoints) + 1);
  }
  return out;
}

/// Writes the source out in `input`'s format and reads it back.
Status RoundTrip(const Source& src, Input input, Decoded* out) {
  out->type = std::make_unique<SystemType>();
  switch (input) {
    case Input::kAsBuilt:
      break;
    case Input::kText:
      return ParseSystemAndTrace(SerializeSystemAndTrace(*src.type, src.trace),
                                 out->type.get(), &out->trace);
    case Input::kBinary: {
      const std::string image = seg::SerializeBinaryTrace(
          *src.type, src.trace, {}, seg::Codec::kRle,
          /*actions_per_segment=*/64);
      return seg::DecodeBinaryTrace(
          reinterpret_cast<const uint8_t*>(image.data()), image.size(),
          out->type.get(), &out->trace);
    }
    case Input::kWal: {
      // Per process: ctest runs oracle_test and oracle_full_test at once.
      const std::string dir =
          ::testing::TempDir() + "oracle_wal." + std::to_string(::getpid());
      seg::TraceStore::Options opts;
      opts.actions_per_segment = 1024;
      std::unique_ptr<seg::TraceStore> store;
      Status st =
          seg::TraceStore::Create(dir, src.type.get(), {}, opts, &store);
      for (size_t i = 0; st.ok() && i < src.trace.size(); ++i) {
        st = store->Append(src.trace[i]);
      }
      if (st.ok()) st = store->SealActive();
      store.reset();
      if (st.ok()) {
        st = seg::TraceStore::Open(dir, out->type.get(), nullptr, &out->trace,
                                   opts, &store);
      }
      std::filesystem::remove_all(dir);
      return st;
    }
  }
  return Status::Ok();
}

// --- Checks -----------------------------------------------------------------

struct Volume {
  size_t cases = 0;
  size_t rejected_cases = 0;
  size_t naive_pairs = 0;
  size_t gc_prefix_combos = 0;
  size_t crash_pairs = 0;
  size_t crashes_planned = 0;
  size_t crashes_fired = 0;
  size_t items_replayed = 0;
  size_t parked_snapshots = 0;
  size_t retired_families = 0;
  size_t iso_traces = 0;
  size_t brute_checked = 0;
  size_t brute_rejected = 0;
  size_t runs_per_gc[kNumGcSlots] = {};
  size_t runs_per_input[kNumInputs] = {};
  std::set<size_t> configs_met;

  std::string ToString() const {
    std::ostringstream out;
    out << cases << " (trace, mode) cases, " << rejected_cases
        << " rejected; naive parity " << naive_pairs
        << "; GC combos at every prefix " << gc_prefix_combos
        << "; crash pairs " << crash_pairs << " (" << crashes_fired << "/"
        << crashes_planned << " planned crashes fired, " << items_replayed
        << " actions re-fed, " << parked_snapshots
        << " snapshots over parked work); families retired "
        << retired_families << "; isolation traces " << iso_traces
        << "; brute force " << brute_checked << " checked, " << brute_rejected
        << " rejected; runs per GC slot {off, 1, small, 64} =";
    for (size_t n : runs_per_gc) out << " " << n;
    out << "; per input {as-built, text, binary, wal} =";
    for (size_t n : runs_per_input) out << " " << n;
    out << "; configurations met " << configs_met.size() << "/"
        << kNumConfigs;
    return out.str();
  }
};

std::string Names(const SystemType& type, const std::vector<TxName>& nodes) {
  std::string out;
  for (TxName t : nodes) out += (out.empty() ? "" : " -> ") + type.NameOf(t);
  return out.empty() ? "(none)" : out;
}

/// True iff, after the first `n` actions of `beta`, some access has issued
/// its REQUEST_COMMIT but is neither visible to T0 nor dead, i.e. an online
/// certifier holds it parked.
bool HasParkedOp(const SystemType& type, const Trace& beta, size_t n) {
  std::unordered_set<TxName> committed, aborted;
  std::vector<TxName> requested;
  for (size_t i = 0; i < n; ++i) {
    const Action& a = beta[i];
    if (a.kind == ActionKind::kCommit) committed.insert(a.tx);
    if (a.kind == ActionKind::kAbort) aborted.insert(a.tx);
    if (a.kind == ActionKind::kRequestCommit && type.IsAccess(a.tx)) {
      requested.push_back(a.tx);
    }
  }
  for (TxName t : requested) {
    bool visible = true, dead = false;
    for (TxName u = t; u != kT0; u = type.parent(u)) {
      if (aborted.count(u) != 0) dead = true;
      if (committed.count(u) == 0) visible = false;
    }
    if (!visible && !dead) return true;
  }
  return false;
}

/// Everything the harness checks for one (source, mode) pair.
class CaseChecker {
 public:
  CaseChecker(Source& src, ConflictMode mode, size_t index, Volume* volume)
      : src_(src),
        type_(*src.type),
        beta_(src.trace),
        mode_(mode),
        index_(index),
        volume_(volume),
        configs_(SampleConfigs(src.family, index)) {}

  void Run() {
    ++volume_->cases;
    batch_ = CertifySeriallyCorrect(type_, beta_, mode_);
    if (!batch_.status.ok()) ++volume_->rejected_cases;
    if (!Lockstep() || !Crashes()) return;
    if (!End("batch vs naive reference",
             [&](const Trace& t) { return NaiveRelations(t); }) ||
        !End("timeline and exact witness",
             [&](const Trace& t) { return TimelineAndWitness(t); })) {
      return;
    }
    for (size_t slot = 1; slot < kNumGcSlots; ++slot) {
      if (!kFullProduct && slot != 1 + index_ % 3) continue;
      const size_t gc =
          OnlineConfig{slot, Input::kAsBuilt, false}.GcInterval(src_.seed);
      if (!End("batch gc_watermark=" + std::to_string(gc),
               [&](const Trace& t) { return GcWatermarkBatch(t, gc); })) {
        return;
      }
    }
    if (!End("explain", [&](const Trace& t) { return ExplainedCycles(t); }) ||
        !End("isolation", [&](const Trace& t) { return Isolation(t); })) {
      return;
    }
    ++volume_->naive_pairs;
    ++volume_->iso_traces;
    if (src_.small &&
        !End("brute force", [&](const Trace& t) { return BruteForce(t); })) {
      return;
    }
    CorpusRow();
  }

 private:
  /// Reports one failure: source, configuration and the shortest failing
  /// prefix, saved as a text trace for `ntsg certify` / `ntsg isolate`.
  bool Fail(const std::string& config, size_t k, const std::string& what) {
    std::string slug = src_.name;
    for (char& c : slug) {
      if (c == '/' || c == '#' || c == '.') c = '_';
    }
    const std::string path =
        ::testing::TempDir() + "oracle_failure_" + slug + ".trace";
    const Status saved =
        WriteTraceFile(path, type_, Trace(beta_.begin(), beta_.begin() + k));
    ADD_FAILURE() << src_.name << " ["
                  << (mode_ == ConflictMode::kReadWrite ? "read_write"
                                                        : "commutativity")
                  << "] " << config << ": " << what
                  << "\n  shortest failing prefix: " << k << " of "
                  << beta_.size() << " actions, saved to " << path << " ("
                  << saved.ToString() << ")\n  replay: ntsg certify " << path
                  << " [--online --gc=N], or ntsg isolate " << path
                  << " [--online]";
    return false;
  }

  /// Runs a whole-trace invariant; on failure, shrinks to the shortest
  /// prefix on which it fails.
  bool End(const std::string& config,
           const std::function<std::string(const Trace&)>& check) {
    std::string what = check(beta_);
    if (what.empty()) return true;
    for (size_t k = 1; k < beta_.size(); ++k) {
      std::string w = check(Trace(beta_.begin(), beta_.begin() + k));
      if (!w.empty()) return Fail(config, k, w);
    }
    return Fail(config, beta_.size(), what);
  }

  /// The source in `input`'s format (null for the as-built input, and on a
  /// reported round-trip failure).
  const Decoded* Decode(Input input) {
    if (input == Input::kAsBuilt) return nullptr;
    auto it = src_.decoded.find(input);
    if (it != src_.decoded.end()) return &it->second;
    Decoded d;
    Status st = RoundTrip(src_, input, &d);
    if (!st.ok() || !(d.trace == beta_)) {
      Fail(std::string("input=") + InputName(input), beta_.size(),
           "round trip did not reproduce the trace: " + st.ToString());
      return nullptr;
    }
    return &src_.decoded.emplace(input, std::move(d)).first->second;
  }

  /// Prefixes at which the graph-rebuilding checks run: on small traces
  /// every prefix whose last action can move SG(β) (CREATE and INFORM_*
  /// never do), otherwise a stride; always the whole trace.
  bool Checkpoint(size_t k) const {
    if (k == beta_.size()) return true;
    if (!src_.small) return k % (beta_.size() / 16 + 1) == 0;
    const ActionKind kind = beta_[k - 1].kind;
    return kind != ActionKind::kCreate && kind != ActionKind::kInformCommit &&
           kind != ActionKind::kInformAbort;
  }

  std::string SameVerdict(const IncrementalCertifier& got,
                          const IncrementalCertifier& want) const {
    if (got.verdict().appropriate != want.verdict().appropriate ||
        got.verdict().acyclic != want.verdict().acyclic) {
      return "verdict differs from the reference";
    }
    if (got.first_rejection_pos() != want.first_rejection_pos()) {
      return "first rejection position differs from the reference";
    }
    if (got.cycle_witness() != want.cycle_witness()) {
      return "witness " + Names(type_, got.cycle_witness()) + ", reference " +
             Names(type_, want.cycle_witness());
    }
    return "";
  }

  std::string SameGraph(const IncrementalCertifier& cert,
                        std::vector<SiblingEdge> conflict,
                        std::vector<SiblingEdge> precedes,
                        const char* what) const {
    if (cert.conflict_edge_count() != conflict.size() ||
        cert.precedes_edge_count() != precedes.size()) {
      return std::string("edge counts differ from the ") + what;
    }
    if (cert.graph_fingerprint() !=
        FingerprintSerializationGraph(std::move(conflict),
                                      std::move(precedes))) {
      return std::string("fingerprint differs from the ") + what;
    }
    return "";
  }

  /// The plain batch report and the online verdict and witness of `t`;
  /// cached for the whole trace, recomputed for a prefix being shrunk.
  CertifierReport Batch(const Trace& t) const {
    return &t == &beta_ ? batch_ : CertifySeriallyCorrect(type_, t, mode_);
  }
  std::pair<bool, std::vector<TxName>> Online(const Trace& t) const {
    if (&t == &beta_) return {ref_->verdict().ok(), ref_->cycle_witness()};
    IncrementalCertifier online(type_, mode_);
    online.IngestTrace(t);
    return {online.verdict().ok(), online.cycle_witness()};
  }

  /// Crash-free configurations, fed action by action beside the reference
  /// run (GC off, as built).
  bool Lockstep() {
    struct Run {
      std::string name;
      size_t gc;
      const Trace* input;
      IncrementalCertifier cert;
    };
    std::vector<Run> runs;
    for (size_t i : configs_) {
      const OnlineConfig c = OnlineConfig::At(i);
      if (c.crash) continue;
      const Decoded* d = Decode(c.input);
      if (c.input != Input::kAsBuilt && d == nullptr) return false;
      const size_t gc = c.GcInterval(src_.seed);
      runs.push_back({c.Name(src_.seed), gc, d ? &d->trace : &beta_,
                      IncrementalCertifier(d ? *d->type : type_, mode_,
                                           GcOptions{gc})});
      volume_->configs_met.insert(i);
      ++volume_->runs_per_gc[c.gc_slot];
      ++volume_->runs_per_input[static_cast<size_t>(c.input)];
    }
    const bool iso_every_prefix = src_.family == Family::kTemplate ||
                                  src_.family == Family::kAdversarial;
    IsoCheckOptions no_explain;
    no_explain.explain = false;
    std::optional<IncrementalIsoChecker> iso;
    if (iso_every_prefix) iso.emplace(type_, mode_);
    IncrementalCertifier ref(type_, mode_);
    const std::string ref_name = "online gc=0 input=as-built";
    Trace serial;  // the serial part of the prefix, grown as it is fed
    for (size_t k = 1; k <= beta_.size(); ++k) {
      ref.Ingest(beta_[k - 1]);
      if (beta_[k - 1].IsSerial()) serial.push_back(beta_[k - 1]);
      if (iso.has_value()) iso->Ingest(beta_[k - 1]);
      for (Run& r : runs) {
        r.cert.Ingest((*r.input)[k - 1]);
        std::string what = SameVerdict(r.cert, ref);
        if (what.empty() && r.cert.gc_stats().late_events != 0) {
          what = "late events on a well-formed stream";
        }
        if (!what.empty()) return Fail(r.name, k, what);
      }
      if (!Checkpoint(k)) continue;
      std::string what =
          SameGraph(ref, ConflictRelation(type_, serial, mode_),
                    PrecedesRelation(type_, serial), "batch build");
      if (what.empty() && src_.small) {
        what = SameGraph(ref, NaiveConflictRelation(type_, serial, mode_),
                         NaivePrecedesRelation(type_, serial),
                         "naive reference");
      }
      if (what.empty() && src_.small) {
        CertifierReport b = CertifySeriallyCorrect(type_, serial, mode_);
        if (b.appropriate_return_values != ref.verdict().appropriate ||
            b.graph_acyclic != ref.verdict().acyclic) {
          what = "batch verdict differs from the online verdict";
        }
      }
      if (!what.empty()) return Fail(ref_name, k, what);
      for (const Run& r : runs) {
        const uint64_t want =
            r.gc == 0 ? ref.graph_fingerprint()
                      : ref.FingerprintLiveScope(r.cert.retired_roots());
        if (r.cert.graph_fingerprint() != want) {
          return Fail(r.name, k, "fingerprint differs from the unpruned "
                                 "run's live scope");
        }
        if (r.gc == 0 &&
            (r.cert.conflict_edge_count() != ref.conflict_edge_count() ||
             r.cert.precedes_edge_count() != ref.precedes_edge_count())) {
          return Fail(r.name, k, "edge counts differ from the reference");
        }
        if (r.cert.retired_roots().size() !=
            r.cert.gc_stats().retired_families) {
          return Fail(r.name, k, "retired roots disagree with GcStats");
        }
      }
      if (iso.has_value()) {
        IsoVerdictVector online = iso->Verdict(no_explain);
        IsoVerdictVector batch =
            CheckIsolationLevels(type_, serial, mode_, no_explain);
        for (size_t lvl = 0; lvl < kNumIsoLevels; ++lvl) {
          if (online.levels[lvl].ok != batch.levels[lvl].ok) {
            return Fail("isolate --online", k,
                        std::string("incremental isolation verdict differs "
                                    "from batch at ") +
                            IsoLevelName(static_cast<IsoLevel>(lvl)));
          }
        }
      }
    }
    for (const Run& r : runs) {
      if (r.gc == 0) continue;
      ++volume_->gc_prefix_combos;
      volume_->retired_families += r.cert.gc_stats().retired_families;
    }
    ref_.emplace(std::move(ref));
    return true;
  }

  /// Crash configurations: CertifyWithCrashes over each checked prefix,
  /// against a clean twin with the same GC interval and input, and the
  /// unpruned reference.
  bool Crashes() {
    for (size_t i : configs_) {
      const OnlineConfig c = OnlineConfig::At(i);
      if (!c.crash) continue;
      const Decoded* d = Decode(c.input);
      if (c.input != Input::kAsBuilt && d == nullptr) return false;
      const Trace& input = d ? d->trace : beta_;
      const std::string name = c.Name(src_.seed);
      volume_->configs_met.insert(i);
      ++volume_->runs_per_gc[c.gc_slot];
      ++volume_->runs_per_input[static_cast<size_t>(c.input)];

      FaultPlanParams params;
      params.crashes = 3;
      params.snapshots = 2;
      const FaultPlan plan =
          FaultPlan::Generate(src_.seed * 1000 + index_ * 37 + i,
                              beta_.size(), params);
      // A snapshot leaves the running certifier as it was, so the state is
      // compared just after each crash's recovery and at the end.
      std::set<size_t> cuts = {beta_.size()};
      size_t planned = 0;
      for (const FaultEvent& e : plan.events) {
        if (e.kind == FaultKind::kCrashWorker) {
          cuts.insert(e.at + 1);
          ++planned;
        } else if (HasParkedOp(type_, beta_, e.at)) {
          ++volume_->parked_snapshots;
        }
      }
      const IncrementalCertifier fresh(d ? *d->type : type_, mode_,
                                       GcOptions{c.GcInterval(src_.seed)});
      IncrementalCertifier clean = fresh;
      IncrementalCertifier ref(type_, mode_);
      FaultStats stats;
      size_t fed = 0;
      for (size_t k : cuts) {
        for (; fed < k; ++fed) {
          clean.Ingest(input[fed]);
          ref.Ingest(beta_[fed]);
        }
        stats = FaultStats{};
        IncrementalCertifier chaotic = CertifyWithCrashes(
            fresh, Trace(input.begin(), input.begin() + k), plan, &stats);
        std::string what = SameVerdict(chaotic, ref);
        if (what.empty()) what = SameState(chaotic, clean);
        if (!what.empty()) return Fail(name, k, what);
      }
      if (stats.crashes != planned) {
        return Fail(name, beta_.size(),
                    std::to_string(stats.crashes) + " of " +
                        std::to_string(planned) + " planned crashes fired");
      }
      ++volume_->crash_pairs;
      volume_->crashes_planned += planned;
      volume_->crashes_fired += stats.crashes;
      volume_->items_replayed += stats.items_replayed;
    }
    return true;
  }

  /// What a crash-restored certifier must share with its clean twin: the
  /// graph, the retired roots and every GcStats field.
  static std::string SameState(const IncrementalCertifier& got,
                               const IncrementalCertifier& want) {
    auto state = [](const IncrementalCertifier& c) {
      const GcStats& g = c.gc_stats();
      return std::make_tuple(c.actions_ingested(), c.graph_fingerprint(),
                             c.conflict_edge_count(), c.precedes_edge_count(),
                             c.SortedRetiredRoots(), g.runs,
                             g.retired_families, g.retired_nodes,
                             g.pruned_ops, g.late_events, g.last_watermark);
    };
    return state(got) == state(want) ? "" : "state differs from the clean run";
  }

  std::string NaiveRelations(const Trace& t) const {
    const Trace serial = SerialPart(t);
    if (ConflictRelation(type_, serial, mode_) !=
        NaiveConflictRelation(type_, serial, mode_)) {
      return "ConflictRelation differs from NaiveConflictRelation";
    }
    if (PrecedesRelation(type_, serial) !=
        NaivePrecedesRelation(type_, serial)) {
      return "PrecedesRelation differs from NaivePrecedesRelation";
    }
    return "";
  }

  std::string TimelineAndWitness(const Trace& t) const {
    const CertifierReport batch = Batch(t);
    const FastSgReport fast = FastSgAcyclicity(type_, SerialPart(t), mode_);
    if (fast.acyclic != batch.graph_acyclic) {
      return "timeline acyclic=" + std::to_string(fast.acyclic) +
             ", batch acyclic=" + std::to_string(batch.graph_acyclic);
    }
    if (fast.conflict_edge_count != batch.conflict_edge_count) {
      return "timeline and batch conflict edge counts differ";
    }
    if (batch.status.ok()) {
      const WitnessResult w = CheckSeriallyCorrectForT0(type_, t, mode_);
      if (!w.status.ok()) {
        return "certified, but the exact witness fails: " +
               w.status.ToString();
      }
    }
    return "";
  }

  std::string GcWatermarkBatch(const Trace& t, size_t gc) const {
    const CertifierReport plain = Batch(t);
    CertifyOptions options;
    options.gc_watermark = gc;
    const CertifierReport streamed =
        CertifySeriallyCorrect(type_, t, mode_, options);
    if (streamed.status.ok() != plain.status.ok() ||
        streamed.appropriate_return_values !=
            plain.appropriate_return_values ||
        streamed.graph_acyclic != plain.graph_acyclic) {
      return "verdict differs from the plain batch: " +
             streamed.status.ToString() + " vs " + plain.status.ToString();
    }
    if (!plain.appropriate_return_values &&
        streamed.status.message() != plain.status.message()) {
      return "value message differs: '" + streamed.status.message() +
             "' vs '" + plain.status.message() + "'";
    }
    if (!streamed.graph_acyclic &&
        streamed.cycle != std::optional(Online(t).second)) {
      return "cycle is not the online first-rejection cycle";
    }
    return "";
  }

  std::string ExplainedCycles(const Trace& t) const {
    std::vector<std::vector<TxName>> cycles;
    const CertifierReport batch = Batch(t);
    if (batch.cycle.has_value()) cycles.push_back(*batch.cycle);
    std::vector<TxName> witness = Online(t).second;
    if (!witness.empty()) cycles.push_back(std::move(witness));
    for (const std::vector<TxName>& cycle : cycles) {
      const std::vector<ExplainedEdge> edges =
          ExplainCycle(type_, t, mode_, cycle);
      if (edges.size() != cycle.size()) {
        return "ExplainCycle lost edges of " + Names(type_, cycle);
      }
      for (const ExplainedEdge& e : edges) {
        if (!e.in_graph || !e.has_provenance) {
          return "cycle edge " + type_.NameOf(e.edge.from) + " -> " +
                 type_.NameOf(e.edge.to) +
                 " is not in SG(beta) with provenance";
        }
      }
    }
    return "";
  }

  /// Re-verifies an isolation witness against labeled relations rebuilt
  /// from scratch, independently of VerifyIsoWitness: every edge present,
  /// the nodes chained siblings, distinct for cycles; a walk opens with two
  /// pure anti-dependency edges.
  std::string IsoWitness(const Trace& t, const IsoViolation& v) const {
    if (v.witness.empty()) return "";  // a value-only violation
    const LabeledSg graph = LabeledSg::Build(type_, SerialPart(t), mode_);
    const size_t n = v.witness.size();
    if (n < 2) return "isolation witness has fewer than two nodes";
    std::set<TxName> seen;
    for (size_t i = 0; i < n; ++i) {
      const TxName from = v.witness[i];
      const TxName to = v.witness[(i + 1) % n];
      if (graph.FindEdge(from, to) == nullptr ||
          type_.parent(from) != type_.parent(to)) {
        return "isolation witness edge " + type_.NameOf(from) + " -> " +
               type_.NameOf(to) + " is not a sibling edge of SG(beta)";
      }
      if (!v.witness_is_walk && !seen.insert(from).second) {
        return "isolation witness repeats " + type_.NameOf(from);
      }
    }
    if (v.witness_is_walk) {
      const IsoEdge* first = graph.FindEdge(v.witness[0], v.witness[1]);
      const IsoEdge* second = graph.FindEdge(v.witness[1], v.witness[2 % n]);
      if (!first->anti_only() || !second->anti_only()) {
        return "isolation walk does not open with two anti-dependencies";
      }
    }
    return "";
  }

  std::string Isolation(const Trace& t) const {
    const IsoVerdictVector batch = CheckIsolationLevels(type_, t, mode_);
    if (!batch.Monotone()) return "isolation verdict vector not monotone";
    if (batch.SerializableOk() != Batch(t).status.ok()) {
      return "serializable level disagrees with the certifier";
    }
    IncrementalIsoChecker inc(type_, mode_);
    inc.IngestTrace(t);
    const IsoVerdictVector online = inc.Verdict();
    for (size_t lvl = 0; lvl < kNumIsoLevels; ++lvl) {
      const IsoLevelVerdict& b = batch.levels[lvl];
      const IsoLevelVerdict& o = online.levels[lvl];
      const std::string at = IsoLevelName(static_cast<IsoLevel>(lvl));
      // Anomaly names read the best-effort edge labels, which the two
      // checkers may split differently (DESIGN.md §11): verdicts only.
      if (b.ok != o.ok) {
        return "incremental isolation checker differs from batch at " + at;
      }
      if (b.ok) continue;
      if (!b.violation.witness_verified) return "unverified witness at " + at;
      std::string what = IsoWitness(t, b.violation);
      if (!what.empty()) return what + " at " + at;
    }
    return "";
  }

  std::string BruteForce(const Trace& t) {
    const WitnessResult truth = ExhaustiveSerialCheck(type_, t);
    if (truth.status.code() == Status::Code::kFailedPrecondition) return "";
    const bool full = t.size() == beta_.size();
    if (full) {
      ++volume_->brute_checked;
      if (!truth.status.ok()) ++volume_->brute_rejected;
    }
    const CertifierReport batch = Batch(t);
    if (batch.status.ok() && !truth.status.ok()) {
      return "certified, but brute force rejects: " + truth.status.ToString();
    }
    if (!truth.status.ok()) {
      if (Online(t).first ||
          CheckSeriallyCorrectForT0(type_, t, mode_).status.ok()) {
        return "brute force rejects, but a configuration accepts";
      }
    }
    if (src_.correct && !truth.status.ok()) {
      return "a correct scheduler's behavior fails brute force: " +
             truth.status.ToString();
    }
    return "";
  }

  void CorpusRow() {
    if (!src_.row.has_value()) return;
    const CorpusEntry& row = *src_.row;
    const IncrementalCertifier& online = *ref_;
    if (row.has_graph) {
      if (batch_.status.ok() != row.expect_ok ||
          online.verdict().ok() != row.expect_ok) {
        Fail("batch and online", beta_.size(), "verdict differs from MANIFEST");
      } else if (online.conflict_edge_count() != row.conflict_edges ||
                 online.precedes_edge_count() != row.precedes_edges ||
                 online.graph_fingerprint() != row.fingerprint) {
        Fail("online gc=0", beta_.size(), "graph differs from MANIFEST");
      }
    }
    if (row.has_iso) {
      // Isolation() already holds the incremental checker to this vector.
      const IsoVerdictVector vv = CheckIsolationLevels(type_, beta_, mode_);
      std::array<bool, kNumIsoLevels> ok;
      for (size_t lvl = 0; lvl < kNumIsoLevels; ++lvl) {
        ok[lvl] = vv.levels[lvl].ok;
      }
      const std::string anomaly =
          vv.AllOk() ? "none"
                     : AnomalyKindName(
                           vv.levels[vv.FirstFailing()].violation.anomaly);
      if (ok != row.iso_ok || anomaly != row.anomaly) {
        Fail("isolate", beta_.size(), "verdict differs from ISO_MANIFEST");
      }
    }
  }

  Source& src_;
  const SystemType& type_;
  const Trace& beta_;
  ConflictMode mode_;
  size_t index_;
  Volume* volume_;
  std::vector<size_t> configs_;
  CertifierReport batch_;
  std::optional<IncrementalCertifier> ref_;
};

Volume CheckFamily(std::vector<Source>& sources) {
  Volume volume;
  size_t index = 0;
  for (Source& src : sources) {
    for (ConflictMode mode : src.modes) {
      CaseChecker(src, mode, index++, &volume).Run();
    }
  }
  return volume;
}

void Print(const char* family, const Volume& volume) {
  std::cout << "[ oracle   ] " << family << ": " << volume.ToString() << "\n";
}

TEST(OracleTest, GoldenCorpus) {
  std::vector<Source> sources = CorpusSources();
  ASSERT_EQ(sources.size(), 33u);
  Volume volume = CheckFamily(sources);
  Print("corpus", volume);
  EXPECT_EQ(volume.configs_met.size(), kNumConfigs);
  EXPECT_GT(volume.retired_families, 0u);
  EXPECT_GT(volume.rejected_cases, 0u);
}

TEST(OracleTest, AnomalyTemplates) {
  std::vector<Source> sources = TemplateSources();
  Volume volume = CheckFamily(sources);
  Print("templates", volume);
  EXPECT_EQ(volume.configs_met.size(), kNumConfigs);
  EXPECT_GT(volume.rejected_cases, 0u);
}

TEST(OracleTest, GeneratedWorkloads) {
  std::vector<Source> sources = GeneratedSources();
  Volume volume = CheckFamily(sources);
  Print("generated", volume);
  EXPECT_EQ(volume.configs_met.size(), kNumConfigs);
  EXPECT_GE(volume.naive_pairs, 600u);
  EXPECT_GE(volume.gc_prefix_combos, 300u);
  EXPECT_GE(volume.crash_pairs, 200u);
  EXPECT_EQ(volume.crashes_fired, volume.crashes_planned);
  EXPECT_GT(volume.items_replayed, 0u);
  EXPECT_GT(volume.parked_snapshots, 0u);
  EXPECT_GE(volume.iso_traces, 300u);
  EXPECT_GT(volume.retired_families, 0u);
  // The broken schedulers must produce behaviors the exhaustive search
  // rejects, or the soundness direction is vacuous.
  EXPECT_GT(volume.brute_rejected, 3u);
  EXPECT_GT(volume.brute_checked, 60u);
}

TEST(OracleTest, AdversarialTraces) {
  std::vector<Source> sources = AdversarialSources();
  // Each hand-built trace is what it claims to be.
  for (size_t i : {0, 1}) {
    CertifierReport report = CertifySeriallyCorrect(
        *sources[i].type, sources[i].trace, ConflictMode::kReadWrite);
    EXPECT_TRUE(report.appropriate_return_values) << sources[i].name;
    EXPECT_FALSE(report.graph_acyclic) << sources[i].name;
  }
  const Source& reveal = sources[2];
  std::vector<SiblingEdge> conflict = ConflictRelation(
      *reveal.type, SerialPart(reveal.trace), ConflictMode::kReadWrite);
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0].parent, kT0);
  EXPECT_LT(conflict[0].from, conflict[0].to);  // A (nested write) -> B

  Volume volume = CheckFamily(sources);
  Print("adversarial", volume);
  EXPECT_EQ(volume.configs_met.size(), kNumConfigs);
}

}  // namespace
}  // namespace ntsg
