#ifndef NTSG_SG_CONFLICTS_H_
#define NTSG_SG_CONFLICTS_H_

#include <cstdint>
#include <vector>

#include "tx/trace.h"

namespace ntsg {

/// How operation conflicts are judged when building the serialization graph.
enum class ConflictMode : uint8_t {
  /// Section 4: objects must be read/write; two accesses to the same object
  /// conflict iff at least one is a write (value-independent).
  kReadWrite,
  /// Section 6.1: two operations conflict iff they fail to commute backward
  /// under the object's serial specification (value-dependent). Sound for
  /// every bundled data type, including read/write registers.
  kCommutativity,
};

/// A directed sibling edge (from, to): both are children of `parent`.
struct SiblingEdge {
  TxName parent;
  TxName from;
  TxName to;

  bool operator==(const SiblingEdge& other) const {
    return parent == other.parent && from == other.from && to == other.to;
  }
  bool operator<(const SiblingEdge& other) const {
    if (parent != other.parent) return parent < other.parent;
    if (from != other.from) return from < other.from;
    return to < other.to;
  }
};

/// The dependency kind of one inducing operation pair of a conflict edge
/// (T, T'): classified by whether each endpoint's operation is a pure
/// observer (IsModifyingOp is false) or a mutator. The isolation-level
/// checkers (src/iso) branch on exactly one distinction — whether an edge is
/// *purely* an anti-dependency (observer before mutator, the classic rw
/// edge) or carries any forward dependency — so the kinds are kept as a
/// small bitmask per edge.
enum class DepKind : uint8_t {
  kWriteWrite = 1,  // mutator -> mutator (ww)
  kWriteRead = 2,   // mutator -> observer (wr, a read-from dependency)
  kReadWrite = 4,   // observer -> mutator (rw, an anti-dependency)
};

/// Accumulated label of one conflict edge: the union of DepKind bits over
/// every inducing operation pair, plus one representative object.
///
/// Exactness contract: the `kReadWrite`-only test (`anti_only()`) is exact —
/// an edge reports anti-only iff *every* inducing pair is observer->mutator.
/// The ww-vs-wr split inside the dependency class is best-effort under the
/// frontier's in-order watermark suppression (a suppressed pair always has
/// the same anti/dependency class as the pair that consumed its entry, but
/// may differ in ww vs wr); src/iso uses that split only to *name*
/// anomalies, never to decide a verdict.
struct EdgeLabel {
  uint8_t kinds = 0;  // OR of DepKind bits
  ObjectId object = kInvalidObject;

  void Add(DepKind k, ObjectId obj) {
    kinds |= static_cast<uint8_t>(k);
    if (object == kInvalidObject || obj < object) object = obj;
  }
  bool Has(DepKind k) const {
    return (kinds & static_cast<uint8_t>(k)) != 0;
  }
  /// Every inducing pair was observer->mutator: a pure anti-dependency.
  bool anti_only() const {
    return kinds == static_cast<uint8_t>(DepKind::kReadWrite);
  }
  void Merge(const EdgeLabel& other) {
    kinds |= other.kinds;
    if (other.object < object) object = other.object;
  }
};

/// A conflict edge together with its accumulated dependency label.
struct LabeledSiblingEdge {
  SiblingEdge edge;
  EdgeLabel label;

  bool operator<(const LabeledSiblingEdge& other) const {
    return edge < other.edge;
  }
};

/// Decides whether two access operations conflict under `mode`: the
/// operation-level predicate behind ConflictRelation, exposed for the
/// incremental certifier, which discovers conflicting pairs one visible
/// operation at a time. `u`/`w` must be accesses; `vu`/`vw` their recorded
/// return values (inspected only in kCommutativity mode). Symmetric.
bool AccessOpsConflict(const SystemType& type, ConflictMode mode, TxName u,
                       const Value& vu, TxName w, const Value& vw);

/// conflict(β) (Section 4, generalized in Section 6.1): (T, T') with common
/// parent P such that accesses U (a descendant of T) and U' (of T') perform
/// conflicting operations, the REQUEST_COMMIT of U preceding that of U' in
/// visible(β, T0). `beta` must be a sequence of serial actions (apply
/// SerialPart first for generic behaviors).
///
/// Built per object by ObjectConflictFrontier (work proportional to edge
/// candidates, not operation pairs; see conflict_frontier.h); the
/// candidates of every object are then sorted and deduplicated once.
///
/// Ordering guarantee: the returned vector is deduplicated and sorted by
/// (parent, from, to). FingerprintSerializationGraph and the adjacency
/// construction in SerializationGraph rely on this canonical order; so do
/// the golden explain transcripts.
std::vector<SiblingEdge> ConflictRelation(const SystemType& type,
                                          const Trace& beta, ConflictMode mode);

/// conflict(β) with per-edge dependency labels: the same edge set as
/// ConflictRelation (same ordering guarantee, same dedup), with each edge
/// carrying the union of DepKind bits over its inducing operation pairs and
/// a representative object. Built by the same ObjectConflictFrontier with
/// label tracking enabled; when two objects induce the same sibling edge
/// their labels are OR-merged and the smallest object id kept.
std::vector<LabeledSiblingEdge> LabeledConflictRelation(const SystemType& type,
                                                        const Trace& beta,
                                                        ConflictMode mode);

/// precedes(β) (Section 4): (T, T') siblings whose common parent is visible
/// to T0 in β, with a report event for T preceding REQUEST_CREATE(T') in β.
/// Same ordering guarantee as ConflictRelation: deduplicated, sorted by
/// (parent, from, to).
std::vector<SiblingEdge> PrecedesRelation(const SystemType& type,
                                          const Trace& beta);

}  // namespace ntsg

#endif  // NTSG_SG_CONFLICTS_H_
