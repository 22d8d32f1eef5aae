#ifndef NTSG_SG_INCREMENTAL_CERTIFIER_H_
#define NTSG_SG_INCREMENTAL_CERTIFIER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "sg/conflict_frontier.h"
#include "sg/conflicts.h"
#include "sg/fast_graph.h"
#include "sg/front_end.h"
#include "spec/serial_spec.h"
#include "tx/trace.h"

namespace ntsg {

/// Per-object slice of the online certifier: the visible operation sequence
/// ordered by trace position, its legality under the object's serial
/// specification (= the appropriate-return-values condition of Theorem
/// 8/19), and conflict discovery against previously visible operations via
/// an ObjectConflictFrontier (class-summarized, so discovery cost is
/// independent of how many visible operations this object has seen).
///
/// Operations normally arrive in position order (appended as commits make
/// them visible), which extends the replay state in O(1); a commit deep in
/// the tree can retroactively reveal an *earlier* operation, in which case
/// the replay is redone from scratch for this object only (the frontier
/// handles the out-of-order insert natively).
///
/// Copyable (the serial-spec replay state clones; the frontier has value
/// semantics), which is what certifier snapshots are made of. Re-inserting
/// an already present (pos, tx, value) is an exact no-op, so replaying an
/// operation twice cannot shift the verdict.
class ObjectIngestState {
 public:
  ObjectIngestState(const SystemType& type, ObjectId x, ConflictMode mode);

  ObjectIngestState(const ObjectIngestState& other);
  ObjectIngestState& operator=(const ObjectIngestState& other);

  /// Inserts the newly visible operation (REQUEST_COMMIT of access `tx`
  /// returning `v` at trace position `pos`) and appends to `new_edges`
  /// every candidate sibling edge (lca, child-toward-earlier,
  /// child-toward-later) induced by a conflict between the new operation
  /// and an already visible one, repeats included: the certifier's graph
  /// deduplicates. Idempotent: a duplicate of an already inserted operation
  /// changes nothing and emits nothing; likewise an operation at a position
  /// the GC already folded into the replay checkpoint (a redelivery of a
  /// pruned op) is dropped unseen.
  void InsertVisibleOp(uint64_t pos, TxName tx, const Value& v,
                       std::vector<SiblingEdge>* new_edges);

  /// GC reclamation: drops this object's frontier summaries for retired
  /// families, then folds the longest position-prefix of the visible
  /// sequence consisting entirely of retired-family operations into a
  /// serial-spec checkpoint (`base_`). Prefix-only pruning is what keeps
  /// the replay exact: every retired operation sits below the caller's
  /// watermark while every future insertion sits at or above it, so a
  /// retired op that is interleaved *after* a live family's op stays in
  /// ops_ (still needed to replay the live op's suffix) until the live op's
  /// family retires too. Returns the number of operations pruned.
  size_t Retire(const std::unordered_set<TxName>& retired_roots);

  /// True iff the visible operation sequence replays against the serial
  /// spec (every recorded return value matches).
  bool legal() const { return legal_; }

  size_t op_count() const { return ops_.size(); }
  /// Positions below this bound were pruned into the checkpoint.
  uint64_t pruned_upto() const { return pruned_upto_; }

 private:
  /// Full replay after an out-of-order insertion (or to re-judge a sequence
  /// that was illegal before the insertion). Starts from the GC checkpoint
  /// when one exists.
  void Recompute();

  const SystemType* type_;
  ObjectId x_;
  std::map<uint64_t, Operation> ops_;
  ObjectConflictFrontier frontier_;
  std::unique_ptr<SerialSpec> replay_;
  bool legal_ = true;
  /// Serial-spec state after the pruned prefix (null until the first prune);
  /// Recompute clones it instead of replaying from the initial value.
  std::unique_ptr<SerialSpec> base_;
  /// Divergence already inside the pruned prefix pins the verdict illegal
  /// (defensive: the certifier stops GC'ing after the first rejection, so a
  /// divergent prefix is never actually pruned).
  bool base_illegal_ = false;
  uint64_t pruned_upto_ = 0;
};

/// The certifier's running answer for the prefix ingested so far.
struct IncrementalVerdict {
  bool appropriate = true;
  bool acyclic = true;

  bool ok() const { return appropriate && acyclic; }
};

/// Online form of Theorem 8/19: consumes a behavior action by action and
/// maintains the batch certifier's verdict for the current prefix —
/// prefix-consistent with CertifySeriallyCorrect by construction (and
/// property-tested in tests/incremental_certifier_test.cc):
///
///   * the SgFrontEnd decides visibility to T0 and the precedes(β) pairs;
///     the certifier is its sink;
///   * conflict(β) edges appear when both endpoints' operations are visible
///     to T0, discovered per object;
///   * one IncrementalTopoGraph owns edge identity: it deduplicates every
///     conflict and precedes candidate, tags each pair with its relations
///     (the edge counts and fingerprints read the tags), and maintains
///     acyclicity of the union by Pearce–Kelly insertion with early cycle
///     rejection — edges are monotone over prefixes, so a cyclic verdict is
///     final;
///   * appropriate return values are maintained per object by incremental
///     serial-spec replay.
///
/// INFORM actions are ignored (Theorem 17/25 strips them), so generic
/// behaviors can be fed verbatim.
///
/// The certifier has value semantics: copying it captures the complete
/// ingest state, so `IncrementalCertifier snap = cert;` is a snapshot and
/// `cert = snap;` is the restore — a restarted certifier resumes from the
/// checkpoint and re-ingests only the suffix, never the whole behavior.
class IncrementalCertifier {
 public:
  /// With `gc.enabled()` a commit-watermark retirement pass runs every
  /// `gc.interval` ingested actions, bounding memory by the live-transaction
  /// footprint instead of the stream length (DESIGN.md §10). The verdict,
  /// rejection witness, and live-scope fingerprint are unchanged by GC —
  /// the guarantee tests/gc_differential_test.cc enforces.
  IncrementalCertifier(const SystemType& type, ConflictMode mode,
                       GcOptions gc = GcOptions{});

  IncrementalCertifier(const IncrementalCertifier& other);
  IncrementalCertifier& operator=(const IncrementalCertifier& other);

  void Ingest(const Action& a);
  void IngestTrace(const Trace& beta);

  /// Runs one retirement pass now (normally driven by the ingest counter).
  /// No-op when GC is disabled or the verdict has already gone not-OK (a
  /// cyclic verdict is final and the witness must stay intact).
  void RunGc();

  IncrementalVerdict verdict() const {
    return IncrementalVerdict{illegal_objects_ == 0, acyclic_};
  }

  size_t conflict_edge_count() const {
    return graph_.tagged_count(IncrementalTopoGraph::kConflictTag);
  }
  size_t precedes_edge_count() const {
    return graph_.tagged_count(IncrementalTopoGraph::kPrecedesTag);
  }
  size_t actions_ingested() const { return front_.position(); }

  /// Canonical fingerprint of the current conflict ∪ precedes edge sets
  /// (see sg/fingerprint.h), refused edges included. Certifiers that agree
  /// on the edge sets agree here, byte for byte. Under GC the sets hold
  /// live edges only, so compare against an unpruned certifier via
  /// FingerprintLiveScope.
  uint64_t graph_fingerprint() const;

  /// Fingerprint restricted to edges touching no family in `retired_roots`
  /// (children of T0). On an unpruned certifier, passing a GC'd certifier's
  /// retired_roots() yields exactly the GC'd certifier's
  /// graph_fingerprint(): retirement drops edges inside retired families
  /// and suppresses the future retired→live edges this filter excludes.
  uint64_t FingerprintLiveScope(
      const std::unordered_set<TxName>& retired_roots) const;

  /// Families retired so far (children of T0); empty when GC is off.
  const std::unordered_set<TxName>& retired_roots() const {
    return front_.book().retired_roots();
  }
  /// Deterministic (sorted) retired roots, for reports and tests.
  std::vector<TxName> SortedRetiredRoots() const {
    return front_.book().SortedRetiredRoots();
  }
  const GcStats& gc_stats() const { return front_.gc_stats(); }
  /// Live serialization-graph nodes — the soak test's bounded-memory probe.
  size_t live_node_count() const { return graph_.node_count(); }

  /// Position of the first action whose ingestion turned the verdict
  /// not-OK; nullopt while the prefix is certified.
  std::optional<uint64_t> first_rejection_pos() const {
    return first_rejection_pos_;
  }

  /// Online cycle witness: the nodes of the cycle the first rejected edge
  /// would have closed, in cycle order (edges w[i] -> w[i+1], closing
  /// w.back() -> w.front()). Recovered by FindPath at rejection time, while
  /// the graph still holds exactly the acyclic prefix; empty while no edge
  /// has been rejected. Feed to ExplainCycle (sg/explain.h) for relation
  /// labels and action provenance.
  const std::vector<TxName>& cycle_witness() const { return cycle_witness_; }

 private:
  friend class SgFrontEnd;  // the sink calls below

  /// Sink: inserts the visible operation into its object and adds the
  /// conflict edges it induces.
  void OnVisibleOp(uint64_t pos, TxName tx, const Value& v);
  /// Sink: adds a precedes edge.
  void OnPrecedes(TxName parent, TxName from, TxName to);
  /// Offers from -> to under relation `tag`; a tag new to its pair counts,
  /// traces and (when refused) rejects, once.
  void AddGraphEdge(TxName parent, TxName from, TxName to, uint8_t tag);
  /// Fingerprint of the tagged pairs for which `keep` holds.
  template <typename Keep>
  uint64_t FingerprintTagged(Keep&& keep) const;
  void NoteVerdict();
  ObjectIngestState& ObjectState(ObjectId x);
  /// Executes the retirement of `roots` (already sealed and
  /// predecessor-closed): the front end's state, graph nodes (with the
  /// tags of every incident edge), and frontier summaries.
  void RetireFamilies(const std::vector<TxName>& roots);

  const SystemType* type_;
  ConflictMode mode_;
  SgFrontEnd front_;
  std::vector<std::unique_ptr<ObjectIngestState>> objects_;
  size_t illegal_objects_ = 0;
  IncrementalTopoGraph graph_;
  bool acyclic_ = true;
  std::optional<uint64_t> first_rejection_pos_;
  std::vector<TxName> cycle_witness_;
  /// Per-call scratch (cleared before each use) so the activation hot path
  /// does zero heap allocation at steady state; never holds state across
  /// calls and is deliberately not copied.
  std::vector<SiblingEdge> edge_scratch_;
};

}  // namespace ntsg

#endif  // NTSG_SG_INCREMENTAL_CERTIFIER_H_
