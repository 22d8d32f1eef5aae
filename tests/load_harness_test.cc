// Tests for the open-loop load harness (src/load): workload generators,
// cross-certifier verdict agreement, the deterministic timeline contract
// (byte-identical NDJSON across runs and batch sizes), GC progress
// surfacing, and the saturation sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "load/load_gen.h"
#include "load/workloads.h"
#include "obs/timeline.h"
#include "tx/access.h"

namespace ntsg::load {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "ntsg_load_" + name;
}

// Unpaced options: virtual-time bookkeeping is identical with pacing on or
// off, and unpaced runs keep the suite fast regardless of the offered rate.
LoadOptions FastOptions(CertMode mode) {
  LoadOptions opt;
  opt.rate = 100'000;
  opt.epochs = 5;
  opt.mode = mode;
  opt.pace = false;
  return opt;
}

TEST(LoadWorkloadsTest, BuildersProduceCompletedNestedTraces) {
  for (Workload w : {Workload::kBank, Workload::kTpcc, Workload::kCommute}) {
    WorkloadParams params;
    params.workload = w;
    params.scale = 8;
    params.toplevel = 24;
    params.seed = 3;
    WorkloadInstance wl = BuildWorkload(params);
    EXPECT_TRUE(wl.stats.completed) << WorkloadName(w);
    EXPECT_FALSE(wl.trace.empty()) << WorkloadName(w);
    EXPECT_GT(wl.stats.toplevel_committed, 0u) << WorkloadName(w);
    // Every generator nests: some action must run strictly below depth 1.
    bool nested = false;
    for (const Action& a : wl.trace) {
      if (a.tx != kT0 && wl.type->depth(a.tx) >= 2) nested = true;
    }
    EXPECT_TRUE(nested) << WorkloadName(w) << " generated a flat trace";
  }
}

TEST(LoadWorkloadsTest, BuildersAreSeedDeterministic) {
  for (Workload w : {Workload::kBank, Workload::kTpcc, Workload::kCommute}) {
    WorkloadParams params;
    params.workload = w;
    params.scale = 6;
    params.toplevel = 16;
    params.seed = 11;
    WorkloadInstance a = BuildWorkload(params);
    WorkloadInstance b = BuildWorkload(params);
    ASSERT_EQ(a.trace.size(), b.trace.size()) << WorkloadName(w);
    for (size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].tx, b.trace[i].tx);
      EXPECT_EQ(static_cast<int>(a.trace[i].kind),
                static_cast<int>(b.trace[i].kind));
    }
    EXPECT_EQ(a.stats.toplevel_committed, b.stats.toplevel_committed);
  }
}

TEST(LoadWorkloadsTest, ParseHelpersRejectUnknownNames) {
  Workload w;
  EXPECT_TRUE(ParseWorkload("bank", &w));
  EXPECT_EQ(w, Workload::kBank);
  EXPECT_TRUE(ParseWorkload("tpcc", &w));
  EXPECT_TRUE(ParseWorkload("commute", &w));
  EXPECT_FALSE(ParseWorkload("ycsb", &w));
  EXPECT_FALSE(ParseWorkload("", &w));

  CertMode m;
  EXPECT_TRUE(ParseCertMode("batch", &m));
  EXPECT_EQ(m, CertMode::kBatch);
  EXPECT_TRUE(ParseCertMode("incremental", &m));
  EXPECT_EQ(m, CertMode::kIncremental);
  EXPECT_FALSE(ParseCertMode("sharded", &m));
  EXPECT_FALSE(ParseCertMode("serial", &m));
}

// The acceptance bar: every generated workload certifies with the same
// verdict whichever certifier mode the harness drives.
TEST(LoadHarnessTest, AllCertifierModesAgreePerWorkload) {
  for (Workload w : {Workload::kBank, Workload::kTpcc, Workload::kCommute}) {
    for (uint64_t seed : {1u, 2u}) {
      WorkloadParams params;
      params.workload = w;
      params.scale = 8;
      params.toplevel = 32;
      params.seed = seed;
      WorkloadInstance wl = BuildWorkload(params);

      std::vector<LoadReport> reports;
      for (CertMode mode : {CertMode::kBatch, CertMode::kIncremental}) {
        LoadOptions opt = FastOptions(mode);
        LoadReport report;
        ASSERT_TRUE(RunLoad(wl, opt, &report).ok());
        EXPECT_EQ(report.actions, wl.trace.size());
        EXPECT_GT(report.ops, 0u);
        reports.push_back(report);
      }
      for (const LoadReport& r : reports) {
        EXPECT_EQ(r.certified, reports[0].certified)
            << WorkloadName(w) << " seed " << seed << " mode "
            << CertModeName(r.mode);
        EXPECT_EQ(r.appropriate, reports[0].appropriate);
        EXPECT_EQ(r.acyclic, reports[0].acyclic);
      }
      EXPECT_TRUE(reports[0].certified)
          << WorkloadName(w) << " seed " << seed
          << " did not certify serially correct";
    }
  }
}

// The determinism contract: with wall-clock fields off, the timeline is a
// pure function of (workload seed, arrival seed, mode) — byte-identical
// across runs, GC on.
TEST(LoadHarnessTest, TimelineBytesIdenticalAcrossRuns) {
  WorkloadParams params;
  params.workload = Workload::kTpcc;
  params.scale = 12;
  params.toplevel = 48;
  params.seed = 5;
  WorkloadInstance wl = BuildWorkload(params);

  auto run = [&](const std::string& path) {
    LoadOptions opt = FastOptions(CertMode::kIncremental);
    opt.gc_interval = 128;
    opt.timeline_path = path;
    LoadReport report;
    ASSERT_TRUE(RunLoad(wl, opt, &report).ok());
    EXPECT_TRUE(report.timeline_status.ok());
    EXPECT_EQ(report.epochs_emitted, opt.epochs);
  };

  const std::string a = TempPath("tl_a.ndjson");
  const std::string b = TempPath("tl_b.ndjson");
  run(a);
  run(b);  // repeat of the first run
  const std::string bytes_a = ReadFile(a);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, ReadFile(b)) << "repeat run moved the timeline";
  EXPECT_EQ(static_cast<size_t>(std::count(bytes_a.begin(), bytes_a.end(),
                                           '\n')),
            size_t{5});
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// Pins the NDJSON record shape Emit writes: fixed key order, deterministic
// core only by default, wall-clock fields appended on request.
TEST(LoadHarnessTest, TimelineRenderLinePinsFormat) {
  obs::TimelineEpoch e;
  e.epoch = 2;
  e.mode = "incremental";
  e.vtime_start_us = 100;
  e.vtime_end_us = 200;
  e.offered = 40;
  e.admitted_total = 120;
  e.ops_total = 30;
  e.verdict = "pending";
  e.gc_runs = 1;
  e.gc_retired_families = 6;
  e.gc_watermark = 96;

  EXPECT_EQ(obs::TimelineEmitter::RenderLine(e, /*include_wallclock=*/false),
            "{\"epoch\":2,\"mode\":\"incremental\",\"vtime_start_us\":100,"
            "\"vtime_end_us\":200,\"offered\":40,\"admitted_total\":120,"
            "\"ops_total\":30,\"verdict\":\"pending\",\"gc_runs\":1,"
            "\"gc_retired_families\":6,\"gc_watermark\":96}");

  e.p50_us = 1.5;
  e.p95_us = 2;
  e.p99_us = 3;
  e.p999_us = 4;
  e.wall_elapsed_s = 0.25;
  e.metrics_json = "{\"x\":1}";
  EXPECT_EQ(obs::TimelineEmitter::RenderLine(e, /*include_wallclock=*/true),
            "{\"epoch\":2,\"mode\":\"incremental\",\"vtime_start_us\":100,"
            "\"vtime_end_us\":200,\"offered\":40,\"admitted_total\":120,"
            "\"ops_total\":30,\"verdict\":\"pending\",\"gc_runs\":1,"
            "\"gc_retired_families\":6,\"gc_watermark\":96,"
            "\"p50_us\":1.500,\"p95_us\":2.000,\"p99_us\":3.000,"
            "\"p999_us\":4.000,\"wall_elapsed_s\":0.250,"
            "\"metrics\":{\"x\":1}}");
  // The deterministic render carries none of the wall-clock keys.
  std::string core = obs::TimelineEmitter::RenderLine(e, false);
  EXPECT_EQ(core.find("p50_us"), std::string::npos);
  EXPECT_EQ(core.find("metrics"), std::string::npos);
}

TEST(LoadHarnessTest, GcProgressSurfacesInReport) {
  WorkloadParams params;
  params.workload = Workload::kBank;
  params.scale = 8;
  params.toplevel = 48;
  params.seed = 9;
  WorkloadInstance wl = BuildWorkload(params);

  LoadOptions opt = FastOptions(CertMode::kIncremental);
  opt.gc_interval = 64;
  LoadReport report;
  ASSERT_TRUE(RunLoad(wl, opt, &report).ok());
  EXPECT_TRUE(report.certified);
  EXPECT_GT(report.gc.runs, 0u);
  EXPECT_GT(report.gc.retired_families, 0u);
  EXPECT_GT(report.gc.last_watermark, 0u);

  // GC off: the stats stay zero.
  LoadOptions off = FastOptions(CertMode::kIncremental);
  LoadReport off_report;
  ASSERT_TRUE(RunLoad(wl, off, &off_report).ok());
  EXPECT_EQ(off_report.gc.runs, 0u);
  EXPECT_EQ(off_report.gc.last_watermark, 0u);
}

TEST(LoadHarnessTest, ReportQuantilesAreOrderedAndPopulated) {
  WorkloadParams params;
  params.workload = Workload::kCommute;
  params.scale = 8;
  params.toplevel = 32;
  params.seed = 4;
  WorkloadInstance wl = BuildWorkload(params);

  LoadReport report;
  ASSERT_TRUE(RunLoad(wl, FastOptions(CertMode::kIncremental), &report).ok());
  EXPECT_GT(report.achieved_rate, 0.0);
  EXPECT_GT(report.vtime_end_us, 0u);
  // Unpaced service-time quantiles: monotone and finite.
  EXPECT_LE(report.p50_us, report.p95_us);
  EXPECT_LE(report.p95_us, report.p99_us);
  EXPECT_LE(report.p99_us, report.p999_us);
  EXPECT_EQ(report.late_arrivals, 0u);  // never counted unpaced
}

TEST(LoadHarnessTest, BadTimelinePathFailsBeforeRunning) {
  WorkloadParams params;
  params.scale = 4;
  params.toplevel = 4;
  WorkloadInstance wl = BuildWorkload(params);
  LoadOptions opt = FastOptions(CertMode::kBatch);
  opt.timeline_path = TempPath("no_such_dir") + "/tl.ndjson";
  LoadReport report;
  EXPECT_FALSE(RunLoad(wl, opt, &report).ok());
}

TEST(LoadHarnessTest, SaturationSweepReportsKneeOrLastStep) {
  WorkloadParams params;
  params.workload = Workload::kBank;
  params.scale = 8;
  params.toplevel = 16;
  params.seed = 6;
  WorkloadInstance wl = BuildWorkload(params);

  SweepOptions sweep;
  sweep.base = FastOptions(CertMode::kIncremental);
  sweep.base.rate = 200'000;  // high base rate keeps paced steps short
  sweep.base.epochs = 2;
  sweep.max_steps = 2;
  SweepReport report;
  ASSERT_TRUE(RunSaturationSweep(wl, sweep, &report).ok());
  ASSERT_FALSE(report.steps.empty());
  EXPECT_LE(report.steps.size(), sweep.max_steps);
  EXPECT_TRUE(report.certified);
  EXPECT_GT(report.saturation_rate, 0.0);
  for (size_t i = 1; i < report.steps.size(); ++i) {
    EXPECT_GT(report.steps[i].offered_rate, report.steps[i - 1].offered_rate);
  }
}

}  // namespace
}  // namespace ntsg::load
