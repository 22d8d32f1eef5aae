#include "obs/families.h"

#include <string>

namespace ntsg::obs {

namespace {

MetricsRegistry& Reg() { return MetricsRegistry::Default(); }

Histogram* LatencyHistogram(const std::string& name, const std::string& help) {
  return Reg().GetHistogram(name, help, DefaultLatencyBucketsUs());
}

}  // namespace

const CertifierMetrics& GetCertifierMetrics() {
  static const CertifierMetrics m = {
      Reg().GetCounter("ntsg_certifier_actions_total",
                       "Actions ingested by incremental certifiers"),
      Reg().GetCounter("ntsg_certifier_ops_activated_total",
                       "Operations that became visible and were applied"),
      Reg().GetCounter("ntsg_certifier_ops_parked_total",
                       "Operations parked on an uncommitted ancestor"),
      Reg().GetCounter("ntsg_certifier_ops_dropped_total",
                       "Parked operations dropped because an ancestor aborted"),
      Reg().GetCounter("ntsg_certifier_visibility_fired_total",
                       "Visibility-tracker items fired by a commit"),
      Reg().GetCounter("ntsg_certifier_conflict_edges_total",
                       "Distinct conflict edges inserted"),
      Reg().GetCounter("ntsg_certifier_precedes_edges_total",
                       "Distinct precedes edges inserted"),
      Reg().GetCounter("ntsg_certifier_cycle_rejections_total",
                       "Edge insertions rejected for closing a cycle"),
      LatencyHistogram("ntsg_certifier_edge_insert_us",
                       "Pearce-Kelly edge insertion latency"),
  };
  return m;
}

const SgtMetrics& GetSgtMetrics() {
  static const SgtMetrics m = {
      Reg().GetCounter("ntsg_sgt_admission_checks_total",
                       "Admission trials run by the SGT coordinator"),
      Reg().GetCounter("ntsg_sgt_admission_rejects_total",
                       "Admission trials that found a cycle"),
      Reg().GetCounter("ntsg_sgt_edges_added_total",
                       "Sibling edges admitted into the coordinator graph"),
      Reg().GetCounter("ntsg_sgt_edges_removed_total",
                       "Sibling edges expunged by aborts"),
      LatencyHistogram("ntsg_sgt_admission_check_us",
                       "Trial-insert admission check latency"),
  };
  return m;
}

const IngestMetrics& GetIngestMetrics() {
  static const IngestMetrics m = {
      LatencyHistogram("ntsg_ingest_stripe_lock_wait_us",
                       "Never recorded; kept for the benchmark"),
  };
  return m;
}

Gauge* IngestQueueDepthGauge(size_t shard) {
  return Reg().GetGauge("ntsg_ingest_queue_depth",
                        "Never recorded; kept for the benchmark",
                        "shard=\"" + std::to_string(shard) + "\"");
}

const DriverMetrics& GetDriverMetrics() {
  static const DriverMetrics m = {
      Reg().GetCounter("ntsg_driver_steps_total",
                       "Simulation steps executed"),
      Reg().GetCounter("ntsg_driver_stall_events_total",
                       "Quiescent states with blocked accesses (deadlock "
                       "resolution rounds)"),
      Reg().GetCounter("ntsg_driver_aborts_total",
                       "Driver-initiated aborts by cause", "cause=\"stall\""),
      Reg().GetCounter("ntsg_driver_aborts_total",
                       "Driver-initiated aborts by cause", "cause=\"random\""),
      Reg().GetCounter("ntsg_driver_aborts_total",
                       "Driver-initiated aborts by cause", "cause=\"plan\""),
      Reg().GetCounter("ntsg_driver_aborts_total",
                       "Driver-initiated aborts by cause",
                       "cause=\"spurious\""),
  };
  return m;
}

const SgBuildMetrics& GetSgBuildMetrics() {
  static const SgBuildMetrics m = {
      Reg().GetCounter("ntsg_sg_conflict_edges_emitted_total",
                       "Distinct conflict edges emitted by batch builds"),
      Reg().GetCounter("ntsg_sg_precedes_edges_emitted_total",
                       "Distinct precedes edges emitted by batch builds"),
      Reg().GetCounter("ntsg_sg_frontier_hits_total",
                       "Frontier stat entries that induced a conflict edge"),
      Reg().GetCounter("ntsg_sg_frontier_misses_total",
                       "Frontier class lists probed without finding a "
                       "conflicting entry"),
      Reg().GetCounter("ntsg_sg_class_pair_evals_total",
                       "Operation-class conflict verdicts computed (each "
                       "distinct pair once; skipped pairs never appear)"),
      LatencyHistogram("ntsg_lca_level_build_us",
                       "Backfill of one new binary-lifting ancestor level"),
      LatencyHistogram("ntsg_sg_batch_build_us",
                       "Full batch conflict-relation construction"),
  };
  return m;
}

const GcMetrics& GetGcMetrics() {
  static const GcMetrics m = {
      Reg().GetCounter("ntsg_gc_runs_total",
                       "Watermark GC retirement passes executed"),
      Reg().GetCounter("ntsg_gc_families_retired_total",
                       "Top-level transaction families retired"),
      Reg().GetCounter("ntsg_gc_nodes_retired_total",
                       "Serialization-graph nodes reclaimed"),
      Reg().GetCounter("ntsg_gc_ops_pruned_total",
                       "Visible operations folded into replay checkpoints"),
      Reg().GetCounter("ntsg_gc_late_events_total",
                       "Actions ignored for naming an already-retired family"),
      Reg().GetGauge("ntsg_gc_live_nodes",
                     "Live serialization-graph nodes after the last GC pass"),
      Reg().GetGauge("ntsg_gc_live_families",
                     "Unretired top-level families after the last GC pass"),
      LatencyHistogram("ntsg_gc_run_us",
                       "Duration of one retirement pass"),
  };
  return m;
}

const FaultMetrics& GetFaultMetrics() {
  static const FaultMetrics m = {
      Reg().GetCounter("ntsg_fault_crashes_total",
                       "Certifier crashes delivered"),
      Reg().GetCounter("ntsg_fault_snapshots_total",
                       "Certifier snapshots taken"),
      Reg().GetCounter("ntsg_fault_items_replayed_total",
                       "Actions re-fed to a restored certifier"),
      Reg().GetCounter("ntsg_fault_injected_aborts_total",
                       "Controller aborts injected by a fault plan"),
      Reg().GetCounter("ntsg_fault_spurious_rejects_total",
                       "SGT admission checks failed on purpose"),
  };
  return m;
}

const IsoMetrics& GetIsoMetrics() {
  static const IsoMetrics m = {
      Reg().GetCounter("ntsg_iso_checks_total",
                       "Isolation verdict vectors computed"),
      Reg().GetCounter("ntsg_iso_level_rejections_total",
                       "Traces rejected per isolation level",
                       "level=\"read_committed\""),
      Reg().GetCounter("ntsg_iso_level_rejections_total",
                       "Traces rejected per isolation level",
                       "level=\"read_atomic\""),
      Reg().GetCounter("ntsg_iso_level_rejections_total",
                       "Traces rejected per isolation level",
                       "level=\"snapshot_isolation\""),
      Reg().GetCounter("ntsg_iso_level_rejections_total",
                       "Traces rejected per isolation level",
                       "level=\"serializable\""),
      Reg().GetCounter("ntsg_iso_dirty_reads_total",
                       "Value-judged dirty reads detected"),
      Reg().GetCounter("ntsg_iso_witnesses_verified_total",
                       "Violation witnesses that re-verified edge-by-edge"),
      Reg().GetCounter("ntsg_iso_miner_runs_total",
                       "Workload/seed points explored by the anomaly miner"),
      Reg().GetCounter("ntsg_iso_miner_hits_total",
                       "Miner runs rejected at the serializable level"),
      LatencyHistogram("ntsg_iso_check_us",
                       "Full verdict-vector computation for one trace"),
  };
  return m;
}

const LoadMetrics& GetLoadMetrics() {
  static const LoadMetrics m = {
      Reg().GetCounter("ntsg_load_actions_offered_total",
                       "Actions scheduled by the open-loop arrival process"),
      Reg().GetCounter("ntsg_load_actions_admitted_total",
                       "Actions admitted into a certifier by the harness"),
      Reg().GetCounter("ntsg_load_epochs_total",
                       "Timeline epochs completed by load runs"),
      Reg().GetCounter("ntsg_load_sweep_steps_total",
                       "Offered-rate steps executed by saturation sweeps"),
      Reg().GetCounter("ntsg_load_late_arrivals_total",
                       "Arrivals admitted after their scheduled virtual time"),
      Reg().GetHistogram("ntsg_load_admission_us",
                         "Scheduled-arrival-to-admission-complete latency",
                         LoadLatencyBucketsUs()),
  };
  return m;
}

void RegisterAllMetricFamilies() {
  (void)GetCertifierMetrics();
  (void)GetSgtMetrics();
  (void)GetDriverMetrics();
  (void)GetSgBuildMetrics();
  (void)GetGcMetrics();
  (void)GetFaultMetrics();
  (void)GetIsoMetrics();
  (void)GetLoadMetrics();
}

}  // namespace ntsg::obs
