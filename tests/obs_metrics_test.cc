// Unit tests for the observability layer (src/obs): instrument semantics,
// the enabled/disabled gate, exporter formats — and the determinism
// contract: enabling metrics must not move a verdict, an edge count, or a
// graph fingerprint anywhere in the stack, GC included.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/families.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sg/conflicts.h"
#include "sg/fingerprint.h"
#include "sg/graph.h"
#include "sg/incremental_certifier.h"
#include "sim/driver.h"

namespace ntsg {
namespace {

/// Restores the global metrics switch on scope exit so tests compose
/// regardless of NTSG_METRICS in the environment.
class ScopedMetricsEnabled {
 public:
  explicit ScopedMetricsEnabled(bool enabled) : was_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(enabled);
  }
  ~ScopedMetricsEnabled() { obs::SetMetricsEnabled(was_); }

 private:
  bool was_;
};

TEST(ObsMetricsTest, CountersAndGauges) {
  ScopedMetricsEnabled on(true);
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("t_total", "test counter");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Same (name, labels) resolves to the same instrument.
  EXPECT_EQ(reg.GetCounter("t_total", "test counter"), c);

  obs::Gauge* g = reg.GetGauge("t_depth", "test gauge");
  g->Set(7);
  g->Add(2);
  g->Sub(3);
  EXPECT_EQ(g->value(), 6);
}

TEST(ObsMetricsTest, HistogramBucketsAreCumulative) {
  ScopedMetricsEnabled on(true);
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("t_us", "test histogram", {10, 100});
  h->Observe(3);
  h->Observe(10);   // le="10" is inclusive
  h->Observe(50);
  h->Observe(5000);  // +Inf bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 3u + 10u + 50u + 5000u);
  EXPECT_EQ(h->bucket(0), 2u);  // <= 10
  EXPECT_EQ(h->bucket(1), 1u);  // (10, 100]
  EXPECT_EQ(h->bucket(2), 1u);  // +Inf

  std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("t_us_bucket{le=\"10\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find("t_us_bucket{le=\"100\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("t_us_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("t_us_count 4"), std::string::npos);
}

TEST(ObsMetricsTest, DisabledInstrumentsRecordNothing) {
  ScopedMetricsEnabled off(false);
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("t_total", "test");
  obs::Gauge* g = reg.GetGauge("t_gauge", "test");
  obs::Histogram* h = reg.GetHistogram("t_us", "test", {10});
  c->Inc(100);
  g->Set(9);
  h->Observe(5);
  {
    obs::SpanTimer span(h);  // constructed disabled: no clock read, no obs
  }
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(ObsMetricsTest, SpanTimerObservesWhenEnabled) {
  ScopedMetricsEnabled on(true);
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("t_span_us", "test",
                                       obs::DefaultLatencyBucketsUs());
  {
    obs::SpanTimer span(h);
  }
  EXPECT_EQ(h->count(), 1u);
}

TEST(ObsMetricsTest, LabeledInstancesAndJsonExport) {
  ScopedMetricsEnabled on(true);
  obs::MetricsRegistry reg;
  reg.GetGauge("t_depth", "queue depth", "shard=\"0\"")->Set(3);
  reg.GetGauge("t_depth", "queue depth", "shard=\"1\"")->Set(8);

  std::string prom = reg.PrometheusText();
  EXPECT_NE(prom.find("t_depth{shard=\"0\"} 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("t_depth{shard=\"1\"} 8"), std::string::npos);
  // One HELP/TYPE header per family, not per instance.
  EXPECT_EQ(prom.find("# HELP t_depth"), prom.rfind("# HELP t_depth"));

  std::string json = reg.JsonText();
  EXPECT_NE(json.find("\"t_depth\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard=\\\"1\\\"\""), std::string::npos) << json;

  reg.ResetAll();
  EXPECT_EQ(reg.GetGauge("t_depth", "queue depth", "shard=\"1\"")->value(), 0);
}

TEST(ObsMetricsTest, HostileNamesLabelsAndHelpAreEscapedInBothExporters) {
  // Quotes, backslashes, newlines, and control bytes in metric names, label
  // values, and help strings must never corrupt the JSON document or the
  // Prometheus exposition framing.
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd\te\x01"),
            "a\\\"b\\\\c\\nd\\te\\u0001");
  EXPECT_EQ(obs::LabelPair("path", "C:\\x\n\"quoted\""),
            "path=\"C:\\\\x\\n\\\"quoted\\\"\"");

  ScopedMetricsEnabled on(true);
  obs::MetricsRegistry reg;
  reg.GetCounter("bad name\"{}", "help with \\ and\nnewline",
                 obs::LabelPair("file", "a\\b\"c\nd"))
      ->Inc(3);

  std::string prom = reg.PrometheusText();
  // The family name is sanitized to the Prometheus charset; the label value
  // survives, escaped; no line of the exposition is torn by a raw newline.
  EXPECT_NE(prom.find("bad_name___"), std::string::npos) << prom;
  EXPECT_NE(prom.find("file=\"a\\\\b\\\"c\\nd\""), std::string::npos) << prom;
  EXPECT_EQ(prom.find("bad name"), std::string::npos);
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    EXPECT_TRUE(line[0] == '#' || line.find(' ') != std::string::npos) << line;
  }

  std::string json = reg.JsonText();
  // Every quote inside the document body is escaped or structural: strip
  // the escaped ones and require balanced structure markers to survive.
  EXPECT_NE(json.find("bad name\\\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\n') == std::string::npos ||
                json.rfind('\n') == json.size() - 1,
            true)
      << "raw newline inside the JSON document";
}

TEST(ObsMetricsTest, RegisterAllCoversEveryLayerFamily) {
  // The CLI registers eagerly so a snapshot names every family even when a
  // layer saw no traffic; these are the names the acceptance scrape greps.
  ScopedMetricsEnabled on(true);
  obs::RegisterAllMetricFamilies();
  std::string text = obs::MetricsRegistry::Default().PrometheusText();
  for (const char* family :
       {"ntsg_certifier_actions_total", "ntsg_certifier_cycle_rejections_total",
        "ntsg_certifier_edge_insert_us", "ntsg_sgt_admission_checks_total",
        "ntsg_driver_steps_total", "ntsg_gc_runs_total",
        "ntsg_fault_crashes_total", "ntsg_fault_items_replayed_total",
        "ntsg_sg_conflict_edges_emitted_total",
        "ntsg_sg_precedes_edges_emitted_total", "ntsg_sg_frontier_hits_total",
        "ntsg_sg_frontier_misses_total", "ntsg_sg_class_pair_evals_total",
        "ntsg_lca_level_build_us", "ntsg_sg_batch_build_us"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

// The determinism contract, end to end: the same seeded workload streamed
// through a GC'd certifier must produce identical verdicts, edge counts,
// retirement schedules, and graph fingerprints with metrics off and with
// metrics on. Instrumentation is write-only; this is the test that keeps it
// so.
TEST(ObsMetricsTest, MetricsDoNotMoveVerdictOrFingerprint) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    QuickRunParams params;
    params.config.backend = Backend::kMoss;
    params.config.seed = seed;
    params.num_objects = 3;
    params.num_toplevel = 4;
    QuickRunResult run = QuickRun(params);
    ASSERT_TRUE(run.sim.stats.completed);

    auto certify = [&](bool metrics) {
      ScopedMetricsEnabled scope(metrics);
      IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite,
                                GcOptions{8});
      cert.IngestTrace(run.sim.trace);
      return cert;
    };
    const IncrementalCertifier off = certify(false);
    const IncrementalCertifier on = certify(true);
    EXPECT_EQ(off.verdict().appropriate, on.verdict().appropriate) << seed;
    EXPECT_EQ(off.verdict().acyclic, on.verdict().acyclic) << seed;
    EXPECT_EQ(off.conflict_edge_count(), on.conflict_edge_count());
    EXPECT_EQ(off.precedes_edge_count(), on.precedes_edge_count());
    EXPECT_EQ(off.SortedRetiredRoots(), on.SortedRetiredRoots()) << seed;
    EXPECT_EQ(off.graph_fingerprint(), on.graph_fingerprint())
        << "metrics moved the graph fingerprint at seed " << seed;
  }
}

// The same contract for the batch fast path: the frontier-based
// ConflictRelation must return the identical edge vector — and the batch
// certifier the identical fingerprintable graph — with metrics off and
// metrics on. The enabled run must also actually advance the SG-build
// counters (edge emission, frontier hit/miss).
TEST(ObsMetricsTest, BatchFastPathMetricsDoNotMoveEdgesOrFingerprint) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    QuickRunParams params;
    params.config.backend = Backend::kMoss;
    params.config.seed = seed;
    params.num_objects = 3;
    params.num_toplevel = 4;
    QuickRunResult run = QuickRun(params);
    ASSERT_TRUE(run.sim.stats.completed);
    Trace serial = SerialPart(run.sim.trace);

    std::vector<SiblingEdge> off_edges, on_edges;
    {
      ScopedMetricsEnabled off(false);
      off_edges = ConflictRelation(*run.type, serial,
                                   ConflictMode::kReadWrite);
    }
    const obs::SgBuildMetrics& m = obs::GetSgBuildMetrics();
    uint64_t emitted0, hits0, misses0;
    {
      ScopedMetricsEnabled on(true);
      emitted0 = m.conflict_edges_emitted->value();
      hits0 = m.frontier_hits->value();
      misses0 = m.frontier_misses->value();
      on_edges = ConflictRelation(*run.type, serial, ConflictMode::kReadWrite);
      // Every final edge was emitted at least once; a first access to an
      // object is always a frontier miss, later conflicting ones are hits.
      EXPECT_GE(m.conflict_edges_emitted->value() - emitted0, on_edges.size());
      if (!on_edges.empty()) {
        // An edge implies a conflicting pair, which implies both a probe
        // that found summaries (hit) and an earlier first-of-class probe
        // that found none (miss).
        EXPECT_GT(m.frontier_hits->value(), hits0);
        EXPECT_GT(m.frontier_misses->value(), misses0);
      }
    }
    EXPECT_EQ(off_edges, on_edges) << "metrics moved the edge set, seed "
                                   << seed;

    uint64_t off_fp, on_fp;
    {
      ScopedMetricsEnabled off(false);
      SerializationGraph g = SerializationGraph::Build(
          *run.type, serial, ConflictMode::kReadWrite);
      off_fp = FingerprintSerializationGraph(g.conflict_edges(),
                                             g.precedes_edges());
    }
    {
      ScopedMetricsEnabled on(true);
      SerializationGraph g = SerializationGraph::Build(
          *run.type, serial, ConflictMode::kReadWrite);
      on_fp = FingerprintSerializationGraph(g.conflict_edges(),
                                            g.precedes_edges());
    }
    EXPECT_EQ(off_fp, on_fp) << "metrics moved the batch fingerprint, seed "
                             << seed;
  }
}

// Pins the quantile estimator on a known distribution: 100 samples uniform
// over (0, 100] in a histogram with bounds {10, 20, ..., 100} put exactly 10
// samples in each bucket, so every quantile interpolates to q * 100.
TEST(ObsMetricsTest, QuantileInterpolationOnUniformDistribution) {
  ScopedMetricsEnabled on(true);
  std::vector<uint64_t> bounds;
  for (uint64_t b = 10; b <= 100; b += 10) bounds.push_back(b);
  obs::Histogram h(bounds);
  for (uint64_t v = 1; v <= 100; ++v) h.Observe(v);

  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  // Rank 25 sits midway through the (20, 30] bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 25.0);

  // Degenerate cases: empty histogram reports 0; a rank landing in the +Inf
  // bucket saturates at the highest finite bound.
  obs::Histogram empty({10});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  obs::Histogram inf({10});
  inf.Observe(5000);
  EXPECT_DOUBLE_EQ(inf.Quantile(0.99), 10.0);
}

TEST(ObsMetricsTest, ObserveAlwaysBypassesTheGlobalGate) {
  ScopedMetricsEnabled off(false);
  obs::Histogram h({10, 100});
  h.Observe(5);  // gated: dropped
  h.ObserveAlways(5);
  h.ObserveAlways(50);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 55u);
}

TEST(ObsMetricsTest, LogBucketsAreStrictlyIncreasingAndCoverRange) {
  std::vector<uint64_t> b = obs::LogBuckets(1, 10'000'000, 8);
  ASSERT_GE(b.size(), 2u);
  EXPECT_EQ(b.front(), 1u);
  EXPECT_GE(b.back(), 10'000'000u);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]) << i;
  // The load-harness bounds are exactly these over 1us..10s.
  EXPECT_EQ(obs::LoadLatencyBucketsUs(), obs::LogBuckets(1, 10'000'000, 8));
}

// Exporter conformance: for every histogram family in the exposition, the
// `+Inf` bucket must be present, cumulative, and equal to `_count`, and a
// `_sum` line must exist — the invariants Prometheus scrapers assume.
TEST(ObsMetricsTest, PrometheusHistogramSeriesAreInternallyConsistent) {
  ScopedMetricsEnabled on(true);
  obs::MetricsRegistry reg;
  obs::Histogram* a = reg.GetHistogram("t_a_us", "a", {10, 100});
  a->Observe(1);
  a->Observe(99);
  a->Observe(12345);
  obs::Histogram* b =
      reg.GetHistogram("t_b_us", "b", obs::LoadLatencyBucketsUs());
  for (uint64_t v : {3u, 70u, 900u, 44'000u}) b->Observe(v);
  reg.GetHistogram("t_empty_us", "never observed", {10});

  std::istringstream lines(reg.PrometheusText());
  std::map<std::string, uint64_t> inf_bucket, count, last_bucket;
  std::set<std::string> has_sum, histogram_families;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0 &&
        line.find(" histogram") != std::string::npos) {
      std::string fam = line.substr(7, line.find(' ', 7) - 7);
      histogram_families.insert(fam);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    uint64_t value = std::stoull(line.substr(space + 1));
    std::string series = line.substr(0, space);
    size_t brace = series.find('{');
    std::string name = series.substr(0, brace);
    if (name.size() > 7 && name.rfind("_bucket") == name.size() - 7) {
      std::string fam = name.substr(0, name.size() - 7);
      if (series.find("le=\"+Inf\"") != std::string::npos) {
        inf_bucket[fam] = value;
      } else {
        // Exposition order is cumulative: each bucket >= the previous.
        EXPECT_GE(value, last_bucket[fam]) << line;
        last_bucket[fam] = value;
      }
    } else if (name.size() > 6 && name.rfind("_count") == name.size() - 6) {
      count[name.substr(0, name.size() - 6)] = value;
    } else if (name.size() > 4 && name.rfind("_sum") == name.size() - 4) {
      has_sum.insert(name.substr(0, name.size() - 4));
    }
  }
  ASSERT_GE(histogram_families.size(), 3u);
  for (const std::string& fam : histogram_families) {
    ASSERT_TRUE(inf_bucket.count(fam)) << fam << " missing +Inf bucket";
    ASSERT_TRUE(count.count(fam)) << fam << " missing _count";
    EXPECT_EQ(inf_bucket[fam], count[fam]) << fam;
    EXPECT_GE(inf_bucket[fam], last_bucket[fam]) << fam;
    EXPECT_TRUE(has_sum.count(fam)) << fam << " missing _sum";
  }
  EXPECT_EQ(inf_bucket["t_a_us"], 3u);
  EXPECT_EQ(inf_bucket["t_empty_us"], 0u);
}

TEST(ObsMetricsTest, JsonAndQuantileTextCarryQuantiles) {
  ScopedMetricsEnabled on(true);
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("t_q_us", "q", {10, 100, 1000});
  for (uint64_t v = 1; v <= 100; ++v) h->Observe(v);

  std::string json = reg.JsonText();
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Compact mode: a single line, machine-parseable in NDJSON contexts.
  std::string compact = reg.JsonText(/*compact=*/true);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_EQ(compact.find(' '), std::string::npos);

  std::string quant = reg.QuantileText();
  EXPECT_NE(quant.find("t_q_us"), std::string::npos) << quant;
  EXPECT_NE(quant.find("p99"), std::string::npos);
}

// Enabled instrumentation actually counts: a certifier run with metrics on
// must advance the certifier counters by exactly the work it reports.
TEST(ObsMetricsTest, CertifierCountersMatchRun) {
  ScopedMetricsEnabled on(true);
  QuickRunParams params;
  params.config.backend = Backend::kMoss;
  params.config.seed = 3;
  params.num_objects = 2;
  params.num_toplevel = 4;
  QuickRunResult run = QuickRun(params);

  const obs::CertifierMetrics& m = obs::GetCertifierMetrics();
  uint64_t actions0 = m.actions_ingested->value();
  uint64_t conflict0 = m.conflict_edges->value();
  uint64_t precedes0 = m.precedes_edges->value();

  IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
  cert.IngestTrace(run.sim.trace);

  EXPECT_GT(cert.conflict_edge_count(), 0u);
  EXPECT_EQ(m.actions_ingested->value() - actions0, run.sim.trace.size());
  EXPECT_EQ(m.conflict_edges->value() - conflict0, cert.conflict_edge_count());
  EXPECT_EQ(m.precedes_edges->value() - precedes0, cert.precedes_edge_count());
}

}  // namespace
}  // namespace ntsg
