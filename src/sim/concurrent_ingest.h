#ifndef NTSG_SIM_CONCURRENT_INGEST_H_
#define NTSG_SIM_CONCURRENT_INGEST_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sg/front_end.h"
#include "sg/incremental_certifier.h"
#include "tx/segment/trace_store.h"
#include "tx/trace.h"

namespace ntsg {

struct ConcurrentIngestConfig {
  /// Worker threads; every object is pinned to one shard, so all of an
  /// object's operations are processed by a single thread (lock-free
  /// per-object state).
  size_t num_shards = 4;
  /// Mutex stripes guarding the shared serialization graph. Sibling edges
  /// stay inside one parent's component, and a parent maps to one stripe,
  /// so concurrent insertions into different stripes never touch the same
  /// component.
  size_t num_stripes = 16;
  /// Permutes the object -> shard assignment. The final verdict is
  /// independent of the seed and of thread scheduling (edge sets and
  /// per-object legality are order-independent); the seed varies the
  /// interleavings a stress run explores.
  uint64_t seed = 1;
  /// Bound on queued operations per shard (producer backpressure).
  size_t queue_capacity = 4096;
  /// >1 enables batched admission in the workers: a worker drains up to
  /// this many *consecutive* kOp items per queue pass and commits their
  /// discovered edges per stripe with one batched reorder
  /// (IncrementalTopoGraph::AddEdgesBatch) instead of one Pearce–Kelly pass
  /// per edge, replaying per-edge when a batch would close a cycle. Control
  /// items (crash, snapshot, GC sync/prune) always break a run, so a batch
  /// never spans a GC barrier or a fault boundary. 0 or 1 = per-event. The
  /// final verdict and fingerprint are batching-independent (edge sets are
  /// monotone and acyclicity of the final set is order-independent).
  size_t batch_max = 0;

  /// Fault injection. Null disables every hook at the cost of one branch
  /// per site (measured <2% end to end by bench_fault_overhead). Non-null
  /// enables the chaos machinery: worker crash/recovery, delivery
  /// delay/reorder/duplication, worker snapshots — all scheduled by the
  /// plan, all required to leave the verdict and the graph fingerprint
  /// byte-identical to the fault-free run.
  const FaultPlan* fault_plan = nullptr;
  /// Bound on restart attempts for a crashed worker before giving up.
  size_t max_restart_attempts = 8;
  /// Base of the exponential backoff between failed restart attempts, in
  /// microseconds (attempt k sleeps base << k).
  uint64_t restart_backoff_us = 1;

  /// Nonzero enables commit-watermark GC: every `gc_interval` actions the
  /// router retires sealed top-level families under the same watermark +
  /// predecessor-closure rule as IncrementalCertifier::RunGc (DESIGN.md
  /// §10), after a sync barrier that quiesces the shard queues. The
  /// fault-free retirement schedule — and therefore the live-scope
  /// fingerprint — is identical to a solo certifier's at the same interval;
  /// under faults, delivery holdbacks lower the watermark, never raise it.
  size_t gc_interval = 0;

  /// Non-empty enables the segment write-ahead log: the router appends every
  /// ingested action to a TraceStore under this directory *before* routing
  /// it, so a crash of the whole pipeline loses at most the unsealed tail
  /// (and even that is scanned best-effort on reopen). Appends are
  /// router-side only — worker crashes and delivery faults never cost
  /// logged actions. When GC is also on, sealed segments whose families
  /// have all been retired are unlinked at each retirement pass.
  std::string wal_dir;
  /// Actions per WAL segment before the router seals it and rolls.
  uint64_t wal_segment_actions = 4096;

  /// Optional admission-latency hook: non-null makes the router record each
  /// Ingest call's duration (microseconds) into this caller-owned histogram
  /// — router-side service time including the WAL append, fault polling,
  /// visibility work, and any backpressure wait on a full shard queue.
  /// Recording uses Histogram::ObserveAlways (the measurement is the
  /// caller's product, e.g. the load harness's admission quantiles, not
  /// background telemetry) and, like every instrument, never feeds back
  /// into the verdict.
  obs::Histogram* admission_latency = nullptr;
};

struct ConcurrentIngestReport {
  bool appropriate = true;
  bool acyclic = true;
  size_t conflict_edge_count = 0;
  size_t precedes_edge_count = 0;
  size_t actions_ingested = 0;
  size_t ops_routed = 0;
  /// Canonical fingerprint of the final conflict ∪ precedes edge sets (see
  /// sg/fingerprint.h); equal to IncrementalCertifier::graph_fingerprint()
  /// on the same behavior, faults or no faults.
  uint64_t graph_fingerprint = 0;
  /// Faults actually delivered (all zero when fault_plan is null).
  FaultStats faults;
  /// Watermark-GC activity (all zero when gc_interval is 0).
  GcStats gc;
  /// Families retired by GC over the run, sorted. Feeds
  /// IncrementalCertifier::FingerprintLiveScope when a test compares this
  /// pipeline's pruned fingerprint against an unpruned reference.
  std::vector<TxName> retired_roots;
  /// Write-ahead-log activity (all zero / Ok when wal_dir is empty). A
  /// non-Ok wal_status means the log on disk is not trustworthy even though
  /// the in-memory verdict is.
  uint64_t wal_appended = 0;
  uint64_t wal_segments_sealed = 0;
  uint64_t wal_segments_dropped = 0;
  Status wal_status;

  bool ok() const { return appropriate && acyclic; }
};

/// Sharded form of the online certifier: a sequential router (the Ingest
/// caller) runs the inherently ordered work through the same SgFrontEnd as
/// the solo certifier — commit/abort bookkeeping, visibility activation,
/// precedes scoping — and fans the expensive per-object work (conflict
/// discovery, serial-spec replay) out to sharded worker threads over
/// bounded queues. Discovered sibling edges are
/// inserted into per-stripe Pearce–Kelly graphs under a striped mutex
/// scheme.
///
/// The verdict over a full behavior equals CertifySeriallyCorrect's two
/// conditions on it, deterministically: per-object operation sequences are
/// keyed by trace position (so late, reordered, or duplicated deliveries
/// land in the same order), and acyclicity of the final edge set does not
/// depend on insertion interleaving.
///
/// Fault tolerance (active only with a FaultPlan): each shard retains a
/// delivery log since its last snapshot. A crashed worker loses its
/// volatile per-object state; the router restarts it with bounded
/// exponential-backoff retry, and recovery restores the snapshot and
/// replays the log — re-emitted edges are absorbed by the per-stripe dedup
/// sets, so recovery is idempotent and costs O(log suffix), not a full
/// re-ingest.
class ConcurrentIngestPipeline {
 public:
  ConcurrentIngestPipeline(const SystemType& type, ConflictMode mode,
                           const ConcurrentIngestConfig& config);

  /// Joins workers if Finish was never called.
  ~ConcurrentIngestPipeline();

  /// Feeds the next action, in trace order. Must not be called after
  /// Finish.
  void Ingest(const Action& a);

  /// Drains the queues, joins the workers (recovering any crashed shard),
  /// and aggregates the verdict.
  ConcurrentIngestReport Finish();

  /// Convenience: pipe `beta` through a fresh pipeline.
  static ConcurrentIngestReport Run(const SystemType& type, const Trace& beta,
                                    ConflictMode mode,
                                    const ConcurrentIngestConfig& config);

  /// Watermark-GC progress so far. Router-owned counters: read between
  /// Ingest calls on the ingesting thread (the load harness's per-epoch
  /// timeline), not concurrently with one.
  const GcStats& gc_stats() const { return front_.gc_stats(); }

  /// Work items currently queued across all shards, sampled under each
  /// queue's mutex in turn (a momentary reading, not a consistent cut).
  /// Observability only — never part of the verdict.
  size_t TotalQueueDepth();

 private:
  friend class SgFrontEnd;  // the sink calls below

  struct WorkItem {
    enum class Kind : uint8_t {
      kOp,        // a visible operation to insert
      kCrash,     // fault: drop volatile state and exit the worker
      kSnapshot,  // fault hook: checkpoint state, truncate the log
      kGcSync,    // GC barrier: ack the epoch in `pos`, nothing else
      kGcPrune,   // GC: adopt `gc_roots` and prune per-object state
    };
    Kind kind = Kind::kOp;
    uint64_t pos = 0;
    TxName tx = kInvalidTx;
    Value value;
    /// kGcPrune payload: the cumulative retired-root set, shared across the
    /// shards (read-only once published).
    std::shared_ptr<const std::unordered_set<TxName>> gc_roots = nullptr;
    /// Steady-clock stamp (us) taken at push when metrics are enabled; 0
    /// otherwise. Feeds the delivery-lag histogram only — never the verdict.
    uint64_t enqueue_us = 0;
  };

  /// Bounded MPSC queue feeding one shard worker.
  struct ShardQueue {
    std::mutex mu;
    std::condition_variable can_push;
    std::condition_variable can_pop;
    std::deque<WorkItem> items;
    bool closed = false;
    /// Set by the worker as it dies from an injected crash; cleared by the
    /// router once recovery succeeds.
    bool crashed = false;
    /// Highest kGcSync epoch the worker has drained past. The queue is
    /// durable across crashes, so an unacked sync item survives for the
    /// successor worker — the router's barrier wait only has to restart
    /// crashed shards, never re-push.
    uint64_t gc_acks = 0;
    std::condition_variable gc_ack;
  };

  /// One stripe of the shared graph: components whose parent hashes here.
  /// The flat dedup sets record insertion order; Finish's aggregation
  /// canonicalizes (FingerprintSerializationGraph sorts internally).
  struct Stripe {
    std::mutex mu;
    IncrementalTopoGraph graph;
    SiblingEdgeSet conflict_edges;
    SiblingEdgeSet precedes_edges;
  };

  /// An operation delivery the router is holding back (delay/reorder
  /// fault); released after `remaining` further deliveries to the shard.
  struct HeldItem {
    WorkItem item;
    uint64_t remaining;
  };

  struct Shard {
    std::unique_ptr<ShardQueue> queue;
    std::thread worker;
    /// Volatile worker state: owned by the worker thread; the router
    /// touches it only after joining (crash recovery, Finish).
    std::unordered_map<ObjectId, std::unique_ptr<ObjectIngestState>> objects;
    size_t ops_processed = 0;
    /// Durable recovery state (maintained only under a fault plan):
    /// checkpoint of `objects` plus the operations delivered since.
    std::unordered_map<ObjectId, std::unique_ptr<ObjectIngestState>> snapshot;
    std::vector<WorkItem> log;
    /// Worker-owned view of the retired-root set (installed by kGcPrune
    /// items, so it advances in delivery order); null before the first
    /// prune. Guards ApplyOp against chaos-duplicated deliveries of a
    /// family that has since been retired.
    std::shared_ptr<const std::unordered_set<TxName>> retired;
    /// The retired set as of the last snapshot; restored before log replay
    /// so recovery sees the same prune points the lost incarnation did.
    std::shared_ptr<const std::unordered_set<TxName>> snapshot_retired;
    /// The newest retired set ever installed on this shard — never rewound
    /// by recovery. Log replay must re-apply a since-retired family's ops
    /// to the object state (their effects belong in the replay checkpoint)
    /// but must NOT re-emit their sibling edges: those were erased from the
    /// stripes at retirement and the dedup-absorption argument no longer
    /// holds for them.
    std::shared_ptr<const std::unordered_set<TxName>> latest_retired;
    /// Router-side delivery-fault state.
    std::vector<HeldItem> held;
    uint64_t hold_next = 0;  // pending kDelay/kReorder: hold the next op
    std::optional<WorkItem> last_pushed;  // duplication source
    /// ntsg_ingest_queue_depth{shard="i"}; resolved at construction.
    obs::Gauge* queue_depth = nullptr;
  };

  size_t ShardOf(ObjectId x) const;
  size_t StripeOf(TxName parent) const;
  /// Routes one operation to its shard, applying any pending delivery
  /// faults (holdback, release of due held items, duplication source).
  void Deliver(size_t shard, WorkItem item);
  /// Blocking bounded push; restarts the shard's worker first if it
  /// crashed.
  void Push(size_t shard, WorkItem item);
  void WorkerLoop(size_t shard_index);
  /// Applies one op to the shard's volatile state and emits its conflict
  /// edges. Shared by the worker loop, recovery replay, and Finish drain.
  /// With `staged` non-null the discovered (retired-filtered) edges are
  /// appended there instead of inserted — the batched worker path.
  void ApplyOp(Shard& shard, const WorkItem& item, bool record_log,
               std::vector<SiblingEdge>* staged = nullptr);
  /// Batched worker path: applies `first` then `rest`, staging every
  /// discovered edge, then commits the staged edges per stripe with one
  /// AddEdgesBatch each (per-edge replay on a rejected stripe batch).
  void ApplyOpRun(Shard& shard, const WorkItem& first,
                  const std::vector<WorkItem>& rest);
  /// Commits a run's staged edges, grouped by stripe, one batch per stripe.
  void CommitEdgeBatch(const std::vector<SiblingEdge>& staged);
  /// Clones `objects` into `snapshot` and truncates the log. Non-static only
  /// so the trace event can name the shard.
  void TakeSnapshot(Shard& shard);
  /// Restores the snapshot and replays the retained log (idempotent edge
  /// re-emission); the cost of rejoining is the log suffix, not the trace.
  void Recover(Shard& shard);
  /// Joins a crashed worker and spawns its replacement, with bounded
  /// exponential-backoff retry against injected restart failures.
  void RestartShard(size_t shard_index);
  /// Fires router-site fault events scheduled at or before `tick`.
  void PollFaults(uint64_t tick);
  /// Inserts a sibling edge into its stripe; kind selects the dedup set.
  void InsertEdge(const SiblingEdge& e, bool is_conflict);
  /// Sink: routes the visible operation to its object's shard.
  void OnVisibleOp(uint64_t pos, TxName tx, const Value& v);
  /// Sink: inserts the precedes edge into its parent's stripe.
  void OnPrecedes(TxName parent, TxName from, TxName to) {
    InsertEdge(SiblingEdge{parent, from, to}, /*is_conflict=*/false);
  }
  /// One watermark-GC pass, the solo certifier's plus two pipeline steps:
  /// fault-held deliveries block like parked work, and the shards are
  /// quiesced before the graph is read.
  void RunGc();
  /// Pushes a kGcSync epoch to every shard and waits for all acks,
  /// restarting any shard that crashes mid-barrier. On return every
  /// operation routed before the barrier has been applied.
  void GcBarrier();
  void RetireFamilies(const std::vector<TxName>& roots);
  /// Installs the retired set on the shard and prunes its object states.
  /// Runs on the worker thread (delivery order) and during log replay.
  void ApplyGcPrune(Shard& shard, const WorkItem& item, bool record_log);

  const SystemType& type_;
  const ConflictMode mode_;
  const ConcurrentIngestConfig config_;

  // Router state (touched only by the Ingest caller). The front end also
  // holds the watermark-GC book; workers only see kGcPrune payloads.
  SgFrontEnd front_;
  size_t ops_routed_ = 0;
  bool finished_ = false;
  /// Chaos state: null when config_.fault_plan is null — every hook is a
  /// single branch in that case.
  std::unique_ptr<FaultInjector> faults_;
  std::vector<FaultEvent> fired_scratch_;
  uint64_t gc_epoch_ = 0;
  /// Latched once a cycle is observed at a GC barrier; the collector stands
  /// down for good, mirroring the solo certifier's rule (illegal objects do
  /// not stop collection, DESIGN.md §10).
  bool gc_rejected_ = false;
  /// Ops folded into replay checkpoints, summed across worker threads.
  std::atomic<uint64_t> gc_pruned_ops_{0};
  /// Segment write-ahead log (router-owned; null when wal_dir is empty).
  /// The first append/seal/drop failure latches wal_status_ and disables
  /// further writes — the certification verdict is never blocked on disk.
  std::unique_ptr<seg::TraceStore> wal_;
  Status wal_status_;
  uint64_t wal_appended_ = 0;
  uint64_t wal_segments_dropped_ = 0;

  // Shared state.
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<bool> acyclic_{true};
};

}  // namespace ntsg

#endif  // NTSG_SIM_CONCURRENT_INGEST_H_
