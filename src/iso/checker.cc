#include "iso/checker.h"

#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "obs/families.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sg/appropriate.h"

namespace ntsg {

namespace {

std::string KindString(const IsoEdge& e) {
  std::string out;
  if (e.conflict) {
    out += "conflict ";
    bool first = true;
    auto add = [&](DepKind k, const char* name) {
      if (!e.Has(k)) return;
      if (!first) out += "+";
      out += name;
      first = false;
    };
    add(DepKind::kWriteWrite, "ww");
    add(DepKind::kWriteRead, "wr");
    add(DepKind::kReadWrite, "rw");
    if (e.anti_only()) out += "(anti)";
  }
  if (e.precedes) {
    if (e.conflict) out += "+";
    out += "precedes";
  }
  return out;
}

std::string RenderWhy(const SystemType& type, const EdgeProvenance& why) {
  std::ostringstream out;
  out << ActionKindName(why.from_kind) << "(" << type.NameOf(why.from_actor)
      << ")@" << why.from_pos << " -> " << ActionKindName(why.to_kind) << "("
      << type.NameOf(why.to_actor) << ")@" << why.to_pos;
  return out.str();
}

/// Names the anomaly a witness exhibits from its edge labels and objects.
/// Pure labeling: verdicts were already decided by which finder produced
/// the witness, and the ww/wr split this reads is best-effort (see
/// sg/conflicts.h), so an unexpected shape degrades to a structural name.
AnomalyKind ClassifyWitness(const LabeledSg& g,
                            const std::vector<TxName>& nodes) {
  size_t n = nodes.size();
  if (n < 2) return AnomalyKind::kSerializationCycle;
  std::vector<const IsoEdge*> es(n);
  size_t antis = 0;
  for (size_t i = 0; i < n; ++i) {
    es[i] = g.FindEdge(nodes[i], nodes[(i + 1) % n]);
    if (es[i] == nullptr) return AnomalyKind::kSerializationCycle;
    if (es[i]->anti_only()) ++antis;
  }
  if (antis == 0) return AnomalyKind::kDependencyCycle;

  if (n == 2) {
    const IsoEdge* a = es[0];
    const IsoEdge* b = es[1];
    if (antis == 2) {
      // Two reads each before the other's write: on one object both
      // updates clobber the same stale read (lost update); across objects
      // it is the canonical write skew.
      return a->object == b->object && a->object != kInvalidObject
                 ? AnomalyKind::kLostUpdate
                 : AnomalyKind::kWriteSkew;
    }
    const IsoEdge* anti = a->anti_only() ? a : b;
    const IsoEdge* dep = a->anti_only() ? b : a;
    if (!dep->conflict) return AnomalyKind::kSerializationCycle;
    bool same_object =
        dep->object == anti->object && dep->object != kInvalidObject;
    if (dep->Has(DepKind::kWriteWrite) && same_object) {
      return AnomalyKind::kLostUpdate;
    }
    if (dep->Has(DepKind::kWriteRead)) {
      return same_object ? AnomalyKind::kNonRepeatableRead
                         : AnomalyKind::kReadSkew;
    }
    return same_object ? AnomalyKind::kLostUpdate : AnomalyKind::kWriteSkew;
  }

  // Long fork: two or more non-adjacent anti edges, every dependency edge a
  // read-from — independent writers observed in incompatible orders.
  if (antis >= 2 && n >= 4) {
    bool adjacent = false;
    bool wr_only = true;
    for (size_t i = 0; i < n; ++i) {
      bool a1 = es[i]->anti_only();
      bool a2 = es[(i + 1) % n]->anti_only();
      if (a1 && a2) adjacent = true;
      if (!a1 && !(es[i]->conflict && es[i]->Has(DepKind::kWriteRead))) {
        wr_only = false;
      }
    }
    if (!adjacent && wr_only) return AnomalyKind::kLongFork;
  }
  return AnomalyKind::kSerializationCycle;
}

/// Assembles a witness-backed violation: classification, per-edge rendered
/// lines, and (for simple cycles) explain-layer provenance.
IsoViolation MakeCycleViolation(const SystemType& type, const Trace& serial,
                                ConflictMode mode, const LabeledSg& graph,
                                std::vector<TxName> nodes, bool is_walk,
                                bool explain) {
  IsoViolation v;
  v.witness = std::move(nodes);
  v.witness_is_walk = is_walk;
  v.anomaly = ClassifyWitness(graph, v.witness);
  if (explain && !is_walk) {
    v.explained = ExplainCycle(type, serial, mode, v.witness);
  }
  size_t n = v.witness.size();
  for (size_t i = 0; i < n; ++i) {
    TxName from = v.witness[i];
    TxName to = v.witness[(i + 1) % n];
    const IsoEdge* e = graph.FindEdge(from, to);
    std::ostringstream line;
    line << type.NameOf(from) << " -> " << type.NameOf(to) << " [";
    if (e == nullptr) {
      line << "MISSING";
    } else {
      line << KindString(*e);
      if (e->object != kInvalidObject) {
        line << " on " << type.object_name(e->object);
      }
    }
    line << "]";
    if (i < v.explained.size() && v.explained[i].has_provenance) {
      line << " induced by " << RenderWhy(type, v.explained[i].why);
    }
    v.edge_lines.push_back(line.str());
  }
  return v;
}

}  // namespace

IsoViolation FindDirtyRead(const SystemType& type, const Trace& serial) {
  IsoViolation none;
  TraceIndex index(type, serial);
  struct Write {
    TxName tx;
    int64_t arg;
  };
  std::map<ObjectId, std::vector<Write>> writes;
  for (const Action& a : serial) {
    if (a.kind != ActionKind::kRequestCommit || !type.IsAccess(a.tx)) continue;
    ObjectId x = type.ObjectOf(a.tx);
    if (type.object_type(x) != ObjectType::kReadWrite) continue;
    const AccessSpec& spec = type.access(a.tx);
    if (spec.op == OpCode::kWrite) {
      // Every write counts, visible or not: non-visible writers are exactly
      // the dirty sources.
      writes[x].push_back(Write{a.tx, spec.arg});
      continue;
    }
    if (spec.op != OpCode::kRead) continue;
    // Only visible readers matter (an aborted reader's observation never
    // surfaces), and only their committed observation is judged.
    if (!index.IsVisible(a.tx, kT0)) continue;
    if (a.value.is_ok()) continue;
    int64_t v = a.value.AsInt();
    if (v == type.object_initial(x)) continue;
    const Write* culprit = nullptr;
    bool clean = false;
    for (const Write& w : writes[x]) {
      if (w.arg != v) continue;
      if (index.IsVisible(w.tx, a.tx)) {
        clean = true;
        break;
      }
      culprit = &w;
    }
    if (clean || culprit == nullptr) continue;
    IsoViolation out;
    out.anomaly = AnomalyKind::kDirtyRead;
    std::ostringstream detail;
    detail << type.NameOf(a.tx) << " read " << v << " from "
           << type.object_name(x) << ", a value written only by "
           << type.NameOf(culprit->tx) << ", which is not visible to the "
           << "reader";
    out.detail = detail.str();
    return out;
  }
  return none;
}

bool IsoVerdictVector::AllOk() const {
  for (const IsoLevelVerdict& lv : levels) {
    if (!lv.ok) return false;
  }
  return true;
}

bool IsoVerdictVector::Monotone() const {
  bool failed = false;
  for (const IsoLevelVerdict& lv : levels) {
    if (failed && lv.ok) return false;
    failed |= !lv.ok;
  }
  return true;
}

size_t IsoVerdictVector::FirstFailing() const {
  for (size_t i = 0; i < kNumIsoLevels; ++i) {
    if (!levels[i].ok) return i;
  }
  return kNumIsoLevels;
}

std::string IsoVerdictVector::ToString(const SystemType& type) const {
  std::ostringstream out;
  out << "isolation verdict vector (mode "
      << (mode == ConflictMode::kReadWrite ? "read_write" : "commutativity")
      << ", " << conflict_edges << " conflict edge(s), " << precedes_edges
      << " precedes edge(s), " << anti_edges << " anti-dependency edge(s))\n";
  for (const IsoLevelVerdict& lv : levels) {
    out << "  " << std::left << std::setw(18) << IsoLevelName(lv.level)
        << ": " << (lv.ok ? "PASS" : "FAIL");
    if (!lv.ok) out << "  [" << AnomalyKindName(lv.violation.anomaly) << "]";
    out << "\n";
  }
  out << "monotone: " << (Monotone() ? "yes" : "NO") << "\n";
  size_t first = FirstFailing();
  if (first < kNumIsoLevels) {
    const IsoLevelVerdict& lv = levels[first];
    const IsoViolation& v = lv.violation;
    out << "first violation at " << IsoLevelName(lv.level) << ": "
        << AnomalyKindName(v.anomaly) << "\n";
    if (!v.detail.empty()) out << "  detail: " << v.detail << "\n";
    if (!v.witness.empty()) {
      out << (v.witness_is_walk ? "  witness walk:" : "  witness cycle:");
      for (TxName t : v.witness) out << " " << type.NameOf(t);
      out << " -> " << type.NameOf(v.witness.front()) << "\n";
      for (const std::string& line : v.edge_lines) {
        out << "    " << line << "\n";
      }
      out << "  witness verified: " << (v.witness_verified ? "yes" : "NO")
          << "\n";
    }
  }
  return out.str();
}

IsoVerdictVector CheckFromLabeledGraph(const SystemType& type,
                                       const Trace& serial, ConflictMode mode,
                                       const LabeledSg& graph,
                                       const IsoCheckOptions& options) {
  const obs::IsoMetrics& metrics = obs::GetIsoMetrics();
  obs::SpanTimer span(metrics.check_us);

  IsoVerdictVector vv;
  vv.mode = mode;
  vv.conflict_edges = graph.conflict_edge_count();
  vv.precedes_edges = graph.precedes_edge_count();
  vv.anti_edges = graph.anti_edge_count();
  for (size_t i = 0; i < kNumIsoLevels; ++i) {
    vv.levels[i].level = static_cast<IsoLevel>(i);
  }

  auto fail = [&](IsoLevel level, IsoViolation violation) {
    IsoLevelVerdict& lv = vv.levels[static_cast<size_t>(level)];
    lv.ok = false;
    lv.violation = std::move(violation);
  };
  auto inherit = [&](IsoLevel weaker, IsoLevel stronger) {
    const IsoLevelVerdict& w = vv.at(weaker);
    if (!w.ok) fail(stronger, w.violation);
    return !w.ok;
  };

  // kReadCommitted: value-judged dirty reads, then dependency-only cycles.
  IsoViolation dirty = mode == ConflictMode::kReadWrite
                           ? FindDirtyRead(type, serial)
                           : IsoViolation{};
  if (dirty.anomaly == AnomalyKind::kDirtyRead) {
    metrics.dirty_reads->Inc();
    fail(IsoLevel::kReadCommitted, dirty);
  } else if (auto cycle = graph.FindDependencyCycle()) {
    fail(IsoLevel::kReadCommitted,
         MakeCycleViolation(type, serial, mode, graph, *cycle,
                            /*is_walk=*/false, options.explain));
  }

  // kReadAtomic: adds single-anti cycles (G-single).
  if (!inherit(IsoLevel::kReadCommitted, IsoLevel::kReadAtomic)) {
    if (auto cycle = graph.FindSingleAntiCycle()) {
      fail(IsoLevel::kReadAtomic,
           MakeCycleViolation(type, serial, mode, graph, *cycle,
                              /*is_walk=*/false, options.explain));
    }
  }

  // kSnapshotIsolation: adds the adjacent-anti anti-pattern.
  if (!inherit(IsoLevel::kReadAtomic, IsoLevel::kSnapshotIsolation)) {
    if (auto walk = graph.FindAdjacentAntiWalk()) {
      // A length-2 walk is a simple cycle; keep the stronger shape claim.
      bool is_walk = true;
      std::set<TxName> distinct(walk->begin(), walk->end());
      if (distinct.size() == walk->size()) is_walk = false;
      std::vector<TxName> nodes =
          is_walk ? *walk : CanonicalCycleRotation(*walk);
      fail(IsoLevel::kSnapshotIsolation,
           MakeCycleViolation(type, serial, mode, graph, nodes, is_walk,
                              options.explain));
    }
  }

  // kSerializable: Theorem 8/19 — appropriate return values + acyclicity.
  if (!inherit(IsoLevel::kSnapshotIsolation, IsoLevel::kSerializable)) {
    if (auto cycle = graph.FindAnyCycle()) {
      fail(IsoLevel::kSerializable,
           MakeCycleViolation(type, serial, mode, graph, *cycle,
                              /*is_walk=*/false, options.explain));
    } else {
      Status values = mode == ConflictMode::kReadWrite
                          ? CheckAppropriateReturnValuesRw(type, serial)
                          : CheckAppropriateReturnValuesGeneral(type, serial);
      if (!values.ok()) {
        IsoViolation v;
        v.anomaly = AnomalyKind::kInappropriateValues;
        v.detail = values.message();
        fail(IsoLevel::kSerializable, v);
      }
    }
  }

  metrics.checks->Inc();
  obs::Counter* rejections[kNumIsoLevels] = {metrics.rejections_rc,
                                             metrics.rejections_ra,
                                             metrics.rejections_si,
                                             metrics.rejections_ser};
  for (size_t i = 0; i < kNumIsoLevels; ++i) {
    IsoLevelVerdict& lv = vv.levels[i];
    if (lv.ok) continue;
    rejections[i]->Inc();
    obs::TraceEmit(obs::TraceEventKind::kIsoLevelRejected, 0,
                   static_cast<uint32_t>(i),
                   static_cast<uint32_t>(lv.violation.anomaly));
    if (options.explain) {
      lv.violation.witness_verified = VerifyIsoWitness(
          type, serial, mode, lv.level, lv.violation);
      if (lv.violation.witness_verified) metrics.witnesses_verified->Inc();
    }
  }
  return vv;
}

IsoVerdictVector CheckIsolationLevels(const SystemType& type,
                                      const Trace& beta, ConflictMode mode,
                                      const IsoCheckOptions& options) {
  Trace serial = SerialPart(beta);
  LabeledSg graph(LabeledConflictRelation(type, serial, mode),
                  PrecedesRelation(type, serial));
  return CheckFromLabeledGraph(type, serial, mode, graph, options);
}

bool VerifyIsoWitness(const SystemType& type, const Trace& beta,
                      ConflictMode mode, IsoLevel level,
                      const IsoViolation& violation) {
  Trace serial = SerialPart(beta);
  if (violation.anomaly == AnomalyKind::kDirtyRead) {
    return mode == ConflictMode::kReadWrite &&
           FindDirtyRead(type, serial).anomaly == AnomalyKind::kDirtyRead;
  }
  if (violation.anomaly == AnomalyKind::kInappropriateValues) {
    Status values = mode == ConflictMode::kReadWrite
                        ? CheckAppropriateReturnValuesRw(type, serial)
                        : CheckAppropriateReturnValuesGeneral(type, serial);
    return !values.ok();
  }

  const std::vector<TxName>& w = violation.witness;
  size_t n = w.size();
  if (n < 2) return false;
  // Independent rebuild: the labeled relations are recomputed from the
  // trace, not taken from the checker that produced the witness.
  LabeledSg graph = LabeledSg::Build(type, serial, mode);
  TxName parent = type.parent(w[0]);
  std::vector<bool> anti(n);
  size_t antis = 0;
  for (size_t i = 0; i < n; ++i) {
    if (type.parent(w[i]) != parent) return false;
    const IsoEdge* e = graph.FindEdge(w[i], w[(i + 1) % n]);
    if (e == nullptr) return false;
    anti[i] = e->anti_only();
    if (anti[i]) ++antis;
  }
  bool adjacent = false;
  for (size_t i = 0; i < n; ++i) {
    if (anti[i] && anti[(i + 1) % n]) adjacent = true;
  }
  if (!violation.witness_is_walk) {
    std::set<TxName> distinct(w.begin(), w.end());
    if (distinct.size() != n) return false;
  }
  switch (level) {
    case IsoLevel::kReadCommitted:
      return antis == 0 && !violation.witness_is_walk;
    case IsoLevel::kReadAtomic:
      return antis <= 1 && !violation.witness_is_walk;
    case IsoLevel::kSnapshotIsolation:
      // Inherited witnesses keep the weaker shape; fresh anti-pattern hits
      // must exhibit the adjacent pair.
      return violation.witness_is_walk ? adjacent : antis <= 1 || adjacent;
    case IsoLevel::kSerializable:
      return true;  // any closed edge sequence refutes acyclicity
  }
  return false;
}

}  // namespace ntsg
