#include "sim/concurrent_ingest.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/families.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sg/fingerprint.h"

namespace ntsg {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64: cheap, well-mixed hash for the seeded object -> shard map.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Times one Ingest call into the caller's admission histogram (null = off).
// Covers every exit path of the router, including early returns for retired
// families; bypasses the global metrics switch by design (see the config
// field's contract).
class AdmissionTimer {
 public:
  explicit AdmissionTimer(obs::Histogram* h) : h_(h) {
    if (h_ != nullptr) start_us_ = NowUs();
  }
  ~AdmissionTimer() {
    if (h_ != nullptr) h_->ObserveAlways(NowUs() - start_us_);
  }

 private:
  obs::Histogram* h_;
  uint64_t start_us_ = 0;
};

}  // namespace

ConcurrentIngestPipeline::ConcurrentIngestPipeline(
    const SystemType& type, ConflictMode mode,
    const ConcurrentIngestConfig& config)
    : type_(type),
      mode_(mode),
      config_(config),
      front_(type, GcOptions{config.gc_interval}) {
  NTSG_CHECK(config_.num_shards > 0);
  NTSG_CHECK(config_.num_stripes > 0);
  NTSG_CHECK(config_.queue_capacity > 0);
  if (!config_.wal_dir.empty()) {
    seg::TraceStore::Options wal_opts;
    wal_opts.actions_per_segment = config_.wal_segment_actions;
    wal_status_ =
        seg::TraceStore::Create(config_.wal_dir, &type_, {}, wal_opts, &wal_);
  }
  if (config_.fault_plan != nullptr) {
    faults_.reset(new FaultInjector(
        *config_.fault_plan,
        {FaultKind::kCrashWorker, FaultKind::kRestartFail,
         FaultKind::kDelayDelivery, FaultKind::kDuplicateDelivery,
         FaultKind::kReorderDelivery, FaultKind::kSnapshotWorker}));
  }
  stripes_.reserve(config_.num_stripes);
  for (size_t i = 0; i < config_.num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  shards_.resize(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_[i].queue = std::make_unique<ShardQueue>();
    shards_[i].queue_depth = obs::IngestQueueDepthGauge(i);
  }
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_[i].worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

ConcurrentIngestPipeline::~ConcurrentIngestPipeline() {
  if (!finished_) Finish();
}

size_t ConcurrentIngestPipeline::ShardOf(ObjectId x) const {
  return Mix64(static_cast<uint64_t>(x) ^ config_.seed) % config_.num_shards;
}

size_t ConcurrentIngestPipeline::StripeOf(TxName parent) const {
  return static_cast<size_t>(parent) % config_.num_stripes;
}

void ConcurrentIngestPipeline::Push(size_t shard, WorkItem item) {
  Shard& sh = shards_[shard];
  ShardQueue& q = *sh.queue;
  if (obs::MetricsEnabled()) item.enqueue_us = NowUs();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(q.mu);
      if (q.items.size() >= config_.queue_capacity && !q.crashed) {
        obs::GetIngestMetrics().backpressure_waits->Inc();
      }
      q.can_push.wait(lock, [&] {
        return q.items.size() < config_.queue_capacity || q.crashed;
      });
      if (!q.crashed) {
        q.items.push_back(std::move(item));
        sh.queue_depth->Set(static_cast<int64_t>(q.items.size()));
        q.can_pop.notify_one();
        return;
      }
    }
    // The worker died under us (possibly while we were blocked on a full
    // queue). Bring it back, then deliver.
    RestartShard(shard);
  }
}

void ConcurrentIngestPipeline::Deliver(size_t shard, WorkItem item) {
  Shard& sh = shards_[shard];
  if (faults_ != nullptr && sh.hold_next > 0) {
    sh.held.push_back(HeldItem{std::move(item), sh.hold_next});
    sh.hold_next = 0;
    return;
  }
  if (faults_ == nullptr) {
    Push(shard, std::move(item));
    return;
  }
  sh.last_pushed = item;
  Push(shard, std::move(item));
  // Each delivery ages the held-back items; release the ones that are due.
  for (auto it = sh.held.begin(); it != sh.held.end();) {
    if (--it->remaining == 0) {
      sh.last_pushed = it->item;
      Push(shard, std::move(it->item));
      it = sh.held.erase(it);
    } else {
      ++it;
    }
  }
}

void ConcurrentIngestPipeline::ApplyOp(Shard& shard, const WorkItem& item,
                                       bool record_log,
                                       std::vector<SiblingEdge>* staged) {
  if (record_log && faults_ != nullptr) shard.log.push_back(item);
  // A chaos-duplicated delivery can land after its family was retired (the
  // first delivery was applied pre-barrier; the duplicate sits behind the
  // prune item). Applying it would resurrect reclaimed object state, so it
  // is dropped — logged first, so replay re-drops it at the same point.
  if (shard.retired != nullptr &&
      shard.retired->count(GcFamilyBook::RootOf(type_, item.tx)) != 0) {
    return;
  }
  const size_t shard_index = static_cast<size_t>(&shard - shards_.data());
  obs::GetIngestMetrics().ops_processed->Inc(shard_index);
  obs::TraceEmit(obs::TraceEventKind::kOpApplied, item.tx, item.tx,
                 static_cast<uint32_t>(shard_index), 0, item.pos);
  // Replayed items (record_log == false) carry their original enqueue stamp;
  // only first deliveries feed the lag histogram.
  if (record_log && item.enqueue_us != 0) {
    uint64_t now = NowUs();
    obs::GetIngestMetrics().delivery_lag_us->Observe(
        now > item.enqueue_us ? now - item.enqueue_us : 0);
  }
  ObjectId x = type_.ObjectOf(item.tx);
  std::unique_ptr<ObjectIngestState>& state = shard.objects[x];
  if (state == nullptr) {
    state = std::make_unique<ObjectIngestState>(type_, x, mode_);
  }
  // The object's frontier maps conflicts straight to sibling edges (lca /
  // child-toward resolved internally); the per-stripe sets dedup re-emission
  // across recovery replays.
  std::vector<SiblingEdge> edges;
  state->InsertVisibleOp(item.pos, item.tx, item.value, &edges);
  ++shard.ops_processed;

  for (const SiblingEdge& e : edges) {
    // Replay-only: a family retired since the snapshot re-applies its ops
    // (the logged prune re-folds them into the checkpoint) but its edges
    // were erased from the stripes at retirement and must stay erased.
    if (shard.latest_retired != nullptr &&
        RetiredScopeEdge(type_, *shard.latest_retired, e)) {
      continue;
    }
    if (staged != nullptr) {
      staged->push_back(e);
    } else {
      InsertEdge(e, /*is_conflict=*/true);
    }
  }
}

void ConcurrentIngestPipeline::ApplyOpRun(Shard& shard, const WorkItem& first,
                                          const std::vector<WorkItem>& rest) {
  std::vector<SiblingEdge> staged;
  ApplyOp(shard, first, /*record_log=*/true, &staged);
  for (const WorkItem& item : rest) {
    ApplyOp(shard, item, /*record_log=*/true, &staged);
  }
  obs::GetBatchMetrics().actions_batched->Inc(1 + rest.size());
  obs::GetBatchMetrics().batch_size->Observe(
      static_cast<double>(1 + rest.size()));
  if (!staged.empty()) CommitEdgeBatch(staged);
}

void ConcurrentIngestPipeline::CommitEdgeBatch(
    const std::vector<SiblingEdge>& staged) {
  obs::GetBatchMetrics().edges_staged->Inc(staged.size());
  // Group by stripe, preserving discovery order within each group; a run's
  // edges usually concentrate on a few stripes, so scan the small stripe
  // space rather than building a hash map per run.
  std::vector<std::vector<const SiblingEdge*>> by_stripe(stripes_.size());
  for (const SiblingEdge& e : staged) {
    by_stripe[StripeOf(e.parent)].push_back(&e);
  }
  for (size_t s = 0; s < by_stripe.size(); ++s) {
    if (by_stripe[s].empty()) continue;
    Stripe& stripe = *stripes_[s];
    std::unique_lock<std::mutex> lock(stripe.mu, std::defer_lock);
    {
      obs::SpanTimer span(obs::GetIngestMetrics().stripe_lock_wait_us);
      lock.lock();
    }
    obs::SpanTimer commit_span(obs::GetBatchMetrics().commit_us);
    // The per-stripe dedup set filters both live duplicates and recovery
    // re-emissions, exactly as the per-event InsertEdge does.
    std::vector<IncrementalTopoGraph::BatchEdge> fresh;
    std::vector<const SiblingEdge*> fresh_src;
    fresh.reserve(by_stripe[s].size());
    for (const SiblingEdge* e : by_stripe[s]) {
      if (!stripe.conflict_edges.Insert(*e)) continue;
      fresh.push_back(IncrementalTopoGraph::BatchEdge{e->from, e->to});
      fresh_src.push_back(e);
    }
    if (fresh.empty()) continue;
    IncrementalTopoGraph::BatchAddResult r = stripe.graph.AddEdgesBatch(fresh);
    if (r.ok) {
      obs::GetBatchMetrics().batches_committed->Inc();
      obs::GetBatchMetrics().edges_committed->Inc(r.fresh_edges);
      obs::TraceEmit(obs::TraceEventKind::kBatchCommit, kT0,
                     static_cast<uint32_t>(fresh.size()),
                     static_cast<uint32_t>(r.fresh_edges), 0, r.region_nodes);
      if (obs::TraceEnabled()) {
        for (const SiblingEdge* e : fresh_src) {
          obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, e->parent,
                         e->from, e->to, obs::kTraceFlagConflict);
        }
      }
    } else {
      // Some edge in this stripe batch closes a cycle. The failed commit
      // left the stripe graph untouched; per-edge replay reproduces exactly
      // what sequential InsertEdge calls would have done — inserts up to the
      // rejection, the rejection event, and the acyclic_ flip.
      obs::GetBatchMetrics().batches_bisected->Inc();
      obs::TraceEmit(obs::TraceEventKind::kBatchBisect, kT0,
                     static_cast<uint32_t>(fresh.size()), 0, 0, fresh.size());
      for (const SiblingEdge* e : fresh_src) {
        if (stripe.graph.AddEdge(e->from, e->to)) {
          obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, e->parent,
                         e->from, e->to, obs::kTraceFlagConflict);
        } else {
          obs::TraceEmit(
              obs::TraceEventKind::kEdgeRejected, e->parent, e->from, e->to,
              static_cast<uint8_t>(obs::kTraceFlagConflict |
                                   obs::kTraceFlagCycle));
          acyclic_.store(false, std::memory_order_relaxed);
        }
      }
    }
  }
}

void ConcurrentIngestPipeline::WorkerLoop(size_t shard_index) {
  Shard& shard = shards_[shard_index];
  ShardQueue& q = *shard.queue;
  std::vector<WorkItem> run;  // batched-mode kOp run after the first item
  for (;;) {
    WorkItem item;
    run.clear();
    {
      std::unique_lock<std::mutex> lock(q.mu);
      q.can_pop.wait(lock, [&] { return !q.items.empty() || q.closed; });
      if (q.items.empty()) return;  // closed and drained
      item = std::move(q.items.front());
      q.items.pop_front();
      if (config_.batch_max > 1 && item.kind == WorkItem::Kind::kOp) {
        // Drain the run of consecutive operations behind it, stopping at
        // the first control item (crash/snapshot/GC): a batch never crosses
        // a fault or GC boundary, and the control item keeps its slot at
        // the queue head for the next pass.
        while (run.size() + 1 < config_.batch_max && !q.items.empty() &&
               q.items.front().kind == WorkItem::Kind::kOp) {
          run.push_back(std::move(q.items.front()));
          q.items.pop_front();
        }
      }
      shard.queue_depth->Set(static_cast<int64_t>(q.items.size()));
      // A drained run can free many slots; wake all blocked pushers (in
      // practice one router thread, so this is one wakeup either way).
      q.can_push.notify_all();
    }

    switch (item.kind) {
      case WorkItem::Kind::kOp:
        if (run.empty()) {
          ApplyOp(shard, item, /*record_log=*/true);
        } else {
          ApplyOpRun(shard, item, run);
        }
        break;
      case WorkItem::Kind::kSnapshot:
        TakeSnapshot(shard);
        break;
      case WorkItem::Kind::kGcSync:
        {
          std::lock_guard<std::mutex> lock(q.mu);
          if (item.pos > q.gc_acks) q.gc_acks = item.pos;
        }
        q.gc_ack.notify_all();
        break;
      case WorkItem::Kind::kGcPrune:
        ApplyGcPrune(shard, item, /*record_log=*/true);
        break;
      case WorkItem::Kind::kCrash: {
        // Lose all volatile state and die. The queue itself is durable —
        // undelivered items survive for the successor; the delivery log
        // covers what this incarnation had already consumed.
        obs::TraceEmit(obs::TraceEventKind::kWorkerCrash, kT0,
                       static_cast<uint32_t>(shard_index), 0,
                       obs::kTraceFlagAbort, shard.log.size());
        shard.objects.clear();
        {
          std::lock_guard<std::mutex> lock(q.mu);
          q.crashed = true;
        }
        // A producer may be blocked on a full queue, and the router may be
        // parked at a GC barrier; both must observe the crash and run
        // recovery rather than wait forever.
        q.can_push.notify_all();
        q.gc_ack.notify_all();
        return;
      }
    }
  }
}

void ConcurrentIngestPipeline::ApplyGcPrune(Shard& shard, const WorkItem& item,
                                            bool record_log) {
  if (record_log && faults_ != nullptr) shard.log.push_back(item);
  shard.retired = item.gc_roots;
  // Retired sets grow monotonically along the prune chain, so the largest
  // one seen is the newest — replay installs older sets into `retired`
  // without disturbing the high-water view.
  if (shard.latest_retired == nullptr ||
      item.gc_roots->size() > shard.latest_retired->size()) {
    shard.latest_retired = item.gc_roots;
  }
  uint64_t pruned = 0;
  for (auto& [x, state] : shard.objects) {
    pruned += state->Retire(*item.gc_roots);
  }
  if (pruned > 0) {
    gc_pruned_ops_.fetch_add(pruned, std::memory_order_relaxed);
    obs::GetGcMetrics().ops_pruned->Inc(pruned);
  }
}

void ConcurrentIngestPipeline::TakeSnapshot(Shard& shard) {
  obs::SpanTimer span(obs::GetIngestMetrics().snapshot_us);
  obs::TraceEmit(obs::TraceEventKind::kSnapshot, kT0,
                 static_cast<uint32_t>(&shard - shards_.data()), 0, 0,
                 shard.log.size());
  shard.snapshot.clear();
  for (const auto& [x, state] : shard.objects) {
    shard.snapshot[x] = std::make_unique<ObjectIngestState>(*state);
  }
  shard.snapshot_retired = shard.retired;
  shard.log.clear();
}

void ConcurrentIngestPipeline::Recover(Shard& shard) {
  obs::SpanTimer span(obs::GetIngestMetrics().replay_us);
  obs::TraceEmit(obs::TraceEventKind::kReplay, kT0,
                 static_cast<uint32_t>(&shard - shards_.data()), 0, 0,
                 shard.log.size());
  shard.objects.clear();
  for (const auto& [x, state] : shard.snapshot) {
    shard.objects[x] = std::make_unique<ObjectIngestState>(*state);
  }
  // The retired set rewinds to its snapshot value so replayed ops see the
  // same prune points the lost incarnation did; logged kGcPrune items then
  // advance it again in order.
  shard.retired = shard.snapshot_retired;
  faults_->stats().items_replayed += shard.log.size();
  // Replay re-discovers conflict pairs whose edges are already in the
  // stripes; the dedup sets absorb them, which is exactly why recovery is
  // idempotent. (GC complicates this one step: edges of a family retired
  // *before* the snapshot cannot re-emit, because the restored object state
  // was already pruned of that family's ops.)
  for (const WorkItem& item : shard.log) {
    if (item.kind == WorkItem::Kind::kGcPrune) {
      ApplyGcPrune(shard, item, /*record_log=*/false);
    } else {
      ApplyOp(shard, item, /*record_log=*/false);
    }
  }
}

void ConcurrentIngestPipeline::RestartShard(size_t shard_index) {
  Shard& shard = shards_[shard_index];
  if (shard.worker.joinable()) shard.worker.join();
  FaultStats& stats = faults_->stats();
  for (size_t attempt = 0;; ++attempt) {
    NTSG_CHECK(attempt < config_.max_restart_attempts)
        << "shard " << shard_index << " failed to restart after "
        << config_.max_restart_attempts << " attempts";
    ++stats.restart_attempts;
    if (!faults_->TakeRestartFail(shard_index)) break;
    ++stats.restart_failures;
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.restart_backoff_us << attempt));
  }
  Recover(shard);
  {
    std::lock_guard<std::mutex> lock(shard.queue->mu);
    shard.queue->crashed = false;
  }
  shard.worker = std::thread([this, shard_index] { WorkerLoop(shard_index); });
  ++stats.restarts;
  obs::GetIngestMetrics().worker_restarts->Inc();
  obs::TraceEmit(obs::TraceEventKind::kWorkerRestart, kT0,
                 static_cast<uint32_t>(shard_index), 0, 0,
                 stats.restart_attempts);
}

void ConcurrentIngestPipeline::PollFaults(uint64_t tick) {
  fired_scratch_.clear();
  if (!faults_->Poll(tick, &fired_scratch_)) return;
  FaultStats& stats = faults_->stats();
  for (const FaultEvent& e : fired_scratch_) {
    size_t target = static_cast<size_t>(e.target) % config_.num_shards;
    Shard& sh = shards_[target];
    switch (e.kind) {
      case FaultKind::kCrashWorker:
        ++stats.crashes;
        Push(target, WorkItem{WorkItem::Kind::kCrash, 0, kInvalidTx, Value{}});
        break;
      case FaultKind::kSnapshotWorker:
        ++stats.snapshots;
        Push(target,
             WorkItem{WorkItem::Kind::kSnapshot, 0, kInvalidTx, Value{}});
        break;
      case FaultKind::kDelayDelivery:
        ++stats.delays;
        sh.hold_next = std::max<uint64_t>(1, e.param);
        break;
      case FaultKind::kReorderDelivery:
        ++stats.reorders;
        sh.hold_next = 1;  // swap with the delivery after it
        break;
      case FaultKind::kDuplicateDelivery:
        if (sh.last_pushed.has_value()) {
          ++stats.duplicates;
          Push(target, *sh.last_pushed);
        }
        break;
      default:
        break;  // not a pipeline fault; the injector filter excludes these
    }
  }
}

void ConcurrentIngestPipeline::Ingest(const Action& a) {
  NTSG_CHECK(!finished_) << "Ingest after Finish";
  AdmissionTimer admit_timer(config_.admission_latency);
  // Log before routing: an action the pipeline saw is an action the WAL
  // holds (modulo the unsealed tail). Disk failure latches wal_status_ and
  // stands the log down — it never blocks the verdict.
  if (wal_ != nullptr && wal_status_.ok()) {
    wal_status_ = wal_->Append(a);
    if (wal_status_.ok()) ++wal_appended_;
  }
  obs::GetIngestMetrics().actions_ingested->Inc();
  if (faults_ != nullptr) PollFaults(front_.position());
  if (!front_.Ingest(a, *this)) return;
  if (front_.GcDue()) RunGc();
}

void ConcurrentIngestPipeline::OnVisibleOp(uint64_t pos, TxName tx,
                                           const Value& v) {
  ++ops_routed_;
  obs::GetIngestMetrics().ops_routed->Inc();
  size_t shard = ShardOf(type_.ObjectOf(tx));
  obs::TraceEmit(obs::TraceEventKind::kOpRouted, tx, tx,
                 static_cast<uint32_t>(shard), 0, pos);
  Deliver(shard, WorkItem{WorkItem::Kind::kOp, pos, tx, v});
}

void ConcurrentIngestPipeline::InsertEdge(const SiblingEdge& e,
                                          bool is_conflict) {
  Stripe& stripe = *stripes_[StripeOf(e.parent)];
  std::unique_lock<std::mutex> lock(stripe.mu, std::defer_lock);
  {
    // Span covers only the wait for the stripe mutex, not the insert.
    obs::SpanTimer span(obs::GetIngestMetrics().stripe_lock_wait_us);
    lock.lock();
  }
  SiblingEdgeSet& dedup =
      is_conflict ? stripe.conflict_edges : stripe.precedes_edges;
  if (!dedup.Insert(e)) return;
  const uint8_t relation =
      is_conflict ? obs::kTraceFlagConflict : obs::kTraceFlagPrecedes;
  if (stripe.graph.AddEdge(e.from, e.to)) {
    obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, e.parent, e.from, e.to,
                   relation);
  } else {
    obs::TraceEmit(obs::TraceEventKind::kEdgeRejected, e.parent, e.from, e.to,
                   static_cast<uint8_t>(relation | obs::kTraceFlagCycle));
    acyclic_.store(false, std::memory_order_relaxed);
  }
}

void ConcurrentIngestPipeline::GcBarrier() {
  const uint64_t epoch = ++gc_epoch_;
  WorkItem sync;
  sync.kind = WorkItem::Kind::kGcSync;
  sync.pos = epoch;
  for (size_t i = 0; i < shards_.size(); ++i) Push(i, sync);
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardQueue& q = *shards_[i].queue;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(q.mu);
        q.gc_ack.wait(lock, [&] { return q.gc_acks >= epoch || q.crashed; });
        if (q.gc_acks >= epoch) break;
      }
      // The worker died before acking. The queue is durable, so the sync
      // item is still in it (or the crash item preceding it consumed the
      // incarnation first); the restarted worker drains through and acks.
      RestartShard(i);
    }
  }
}

void ConcurrentIngestPipeline::RunGc() {
  // A rejected verdict is final and Finish's aggregation must see the graph
  // that produced it.
  if (gc_rejected_ || !acyclic_.load(std::memory_order_relaxed)) return;
  obs::SpanTimer span(obs::GetGcMetrics().run_us);

  // An operation held back by a delivery fault is activated but not yet
  // applied, so it blocks like parked work. Fault-free this list is empty,
  // which is what keeps the retirement schedule identical to a solo
  // certifier's.
  std::vector<SgFrontEnd::HeldOp> held;
  for (const Shard& sh : shards_) {
    for (const HeldItem& h : sh.held) held.push_back({h.item.pos, h.item.tx});
  }
  std::vector<TxName> sealed = front_.BeginGcPass(held);
  // Nothing can retire: skip the (expensive) barrier.
  if (sealed.empty()) return;

  // Quiesce: after the barrier every routed operation has been applied, so
  // stripe 0 holds exactly the T0-level edges a solo certifier would have
  // at this position, and no worker emits edges until the prune is pushed.
  GcBarrier();

  // Cycles surface asynchronously (a worker flips acyclic_ mid-pass), so
  // the entry check alone lags a solo certifier. The barrier makes this
  // check exact: every op below the current position has been applied, so
  // graph state now equals a solo run's at the same prefix. A cycle is
  // final and its witness edges must survive, so the collector latches off
  // instead of retiring.
  if (!acyclic_.load(std::memory_order_relaxed)) {
    gc_rejected_ = true;
    return;
  }

  // The T0 component all lives in stripe 0 (StripeOf(kT0) == 0).
  std::vector<TxName> roots;
  {
    std::lock_guard<std::mutex> lock(stripes_[0]->mu);
    roots = front_.RetirableRoots(stripes_[0]->graph, sealed);
  }
  if (!roots.empty()) RetireFamilies(roots);
  size_t live_nodes = 0;
  for (const auto& stripe : stripes_) live_nodes += stripe->graph.node_count();
  obs::GetGcMetrics().live_nodes->Set(static_cast<int64_t>(live_nodes));
}

void ConcurrentIngestPipeline::RetireFamilies(const std::vector<TxName>& roots) {
  // The workers are idle between the barrier and the prune push, but the
  // locking discipline stays per-stripe anyway — it is the invariant the
  // rest of the pipeline is audited against.
  front_.RetireFamilies(roots, [this](TxName t) {
    Stripe& stripe = *stripes_[StripeOf(type_.parent(t))];
    std::lock_guard<std::mutex> lock(stripe.mu);
    size_t before = stripe.graph.node_count();
    stripe.graph.RemoveNode(t);
    return before - stripe.graph.node_count();
  });

  // Reclaim the memoized edges of the retired scope and re-anchor each
  // stripe's Pearce-Kelly key space at its live population.
  const std::unordered_set<TxName> rset(roots.begin(), roots.end());
  auto retired_edge = [&](const SiblingEdge& e) {
    return RetiredScopeEdge(type_, rset, e);
  };
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->conflict_edges.EraseIf(retired_edge);
    stripe->precedes_edges.EraseIf(retired_edge);
    stripe->graph.CompactOrders();
  }

  // Retired families make whole sealed WAL segments droppable: a segment
  // every one of whose actions belongs to a retired family can never be
  // needed by recovery again.
  if (wal_ != nullptr && wal_status_.ok()) {
    size_t dropped = 0;
    wal_status_ = wal_->DropRetiredSegments(
        [this](TxName root) { return front_.book().IsRetired(root); },
        &dropped);
    wal_segments_dropped_ += dropped;
  }

  // Fan the cumulative retired set out so each shard prunes its object
  // states before it applies anything the router routes after this pass.
  auto cumulative = std::make_shared<const std::unordered_set<TxName>>(
      front_.book().retired_roots());
  WorkItem prune;
  prune.kind = WorkItem::Kind::kGcPrune;
  prune.gc_roots = cumulative;
  for (size_t i = 0; i < shards_.size(); ++i) Push(i, prune);
}

size_t ConcurrentIngestPipeline::TotalQueueDepth() {
  size_t depth = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.queue->mu);
    depth += sh.queue->items.size();
  }
  return depth;
}

ConcurrentIngestReport ConcurrentIngestPipeline::Finish() {
  NTSG_CHECK(!finished_) << "Finish called twice";
  finished_ = true;

  // Release every delivery still held back by a delay/reorder fault — the
  // trace is over, so "later" is now.
  if (faults_ != nullptr) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = shards_[i];
      std::vector<HeldItem> held = std::move(shard.held);
      shard.held.clear();
      for (HeldItem& h : held) Push(i, std::move(h.item));
    }
  }

  for (Shard& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard.queue->mu);
      shard.queue->closed = true;
    }
    shard.queue->can_pop.notify_all();
  }
  for (Shard& shard : shards_) {
    if (shard.worker.joinable()) shard.worker.join();
  }

  // A shard whose worker died after the close sees no restart from Push;
  // finish its work here on the router thread: recover, then drain whatever
  // the dead worker left in the queue (which may itself contain further
  // crash/snapshot control items).
  for (Shard& shard : shards_) {
    if (shard.queue == nullptr || !shard.queue->crashed) continue;
    Recover(shard);
    std::deque<WorkItem> leftover = std::move(shard.queue->items);
    shard.queue->items.clear();
    shard.queue->crashed = false;
    for (const WorkItem& item : leftover) {
      switch (item.kind) {
        case WorkItem::Kind::kOp:
          ApplyOp(shard, item, /*record_log=*/true);
          break;
        case WorkItem::Kind::kSnapshot:
          TakeSnapshot(shard);
          break;
        case WorkItem::Kind::kGcSync:
          break;  // no waiter left; the barrier never outlives Ingest
        case WorkItem::Kind::kGcPrune:
          ApplyGcPrune(shard, item, /*record_log=*/true);
          break;
        case WorkItem::Kind::kCrash:
          Recover(shard);
          break;
      }
    }
  }

  ConcurrentIngestReport report;
  report.acyclic = acyclic_.load(std::memory_order_relaxed);
  report.actions_ingested = front_.position();
  report.ops_routed = ops_routed_;
  for (const Shard& shard : shards_) {
    for (const auto& [x, state] : shard.objects) {
      if (!state->legal()) report.appropriate = false;
    }
  }
  std::vector<SiblingEdge> conflict_edges;
  std::vector<SiblingEdge> precedes_edges;
  for (const auto& stripe : stripes_) {
    report.conflict_edge_count += stripe->conflict_edges.size();
    report.precedes_edge_count += stripe->precedes_edges.size();
    // The raw arenas may carry dead sentinels (parent == kInvalidTx) from
    // GC erasures that have not hit a compaction point; skip them.
    stripe->conflict_edges.ForEach(
        [&](const SiblingEdge& e) { conflict_edges.push_back(e); });
    stripe->precedes_edges.ForEach(
        [&](const SiblingEdge& e) { precedes_edges.push_back(e); });
  }
  report.graph_fingerprint = FingerprintSerializationGraph(
      std::move(conflict_edges), std::move(precedes_edges));
  if (faults_ != nullptr) {
    report.faults = faults_->stats();
    PublishFaultStats(report.faults);
  }
  if (front_.gc_enabled()) {
    // The shards count their prunes; Finish runs once, so this is the total.
    front_.AddPrunedOps(gc_pruned_ops_.load(std::memory_order_relaxed));
    report.gc = front_.gc_stats();
    report.retired_roots = front_.book().SortedRetiredRoots();
  }
  if (wal_ != nullptr) {
    // Seal the tail so the directory ends at a durable boundary; everything
    // before this line already survives as a scannable unsealed tail.
    if (wal_status_.ok()) wal_status_ = wal_->SealActive();
    report.wal_appended = wal_appended_;
    report.wal_segments_sealed = wal_->num_sealed_segments();
    report.wal_segments_dropped = wal_segments_dropped_;
    report.wal_status = wal_status_;
  }
  for (Shard& shard : shards_) shard.queue_depth->Set(0);
  return report;
}

ConcurrentIngestReport ConcurrentIngestPipeline::Run(
    const SystemType& type, const Trace& beta, ConflictMode mode,
    const ConcurrentIngestConfig& config) {
  ConcurrentIngestPipeline pipeline(type, mode, config);
  for (const Action& a : beta) pipeline.Ingest(a);
  return pipeline.Finish();
}

}  // namespace ntsg
