#include "sg/conflicts.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "obs/families.h"
#include "obs/span.h"
#include "sg/conflict_frontier.h"
#include "sg/edge_set.h"
#include "spec/commutativity.h"

namespace ntsg {

bool AccessOpsConflict(const SystemType& type, ConflictMode mode, TxName u,
                       const Value& vu, TxName w, const Value& vw) {
  const AccessSpec& au = type.access(u);
  const AccessSpec& aw = type.access(w);
  if (au.object != aw.object) return false;
  ObjectType otype = type.object_type(au.object);
  switch (mode) {
    case ConflictMode::kReadWrite:
      NTSG_CHECK(otype == ObjectType::kReadWrite)
          << "kReadWrite conflict mode requires read/write objects";
      return RwAccessesConflict(au.op, aw.op);
    case ConflictMode::kCommutativity:
      return OperationsConflict(otype, OpRecord{au.op, au.arg, vu},
                                OpRecord{aw.op, aw.arg, vw});
  }
  return true;
}

namespace {

/// Operations of visible(β, T0), grouped by object (dense table), in order.
std::vector<std::vector<Operation>> VisibleOpsByObject(const SystemType& type,
                                                       const Trace& beta) {
  std::vector<std::vector<Operation>> per_object(type.num_objects());
  for (const Action& a : VisibleTo(type, beta, kT0)) {
    if (a.kind == ActionKind::kRequestCommit && type.IsAccess(a.tx)) {
      per_object[type.ObjectOf(a.tx)].push_back(Operation{a.tx, a.value});
    }
  }
  return per_object;
}

/// Runs one object's operations through `frontier` and folds its work
/// tallies into the build metrics.
void RunFrontier(ObjectConflictFrontier& frontier,
                 const std::vector<Operation>& ops,
                 std::vector<SiblingEdge>* out) {
  uint64_t pos = 0;
  for (const Operation& op : ops) frontier.AddOp(op.tx, op.value, pos++, out);
  const obs::SgBuildMetrics& metrics = obs::GetSgBuildMetrics();
  metrics.conflict_edges_emitted->Inc(frontier.stats().edges_emitted);
  metrics.frontier_hits->Inc(frontier.stats().hits);
  metrics.frontier_misses->Inc(frontier.stats().misses);
  metrics.class_pair_evals->Inc(frontier.stats().class_pair_evals);
}

}  // namespace

std::vector<SiblingEdge> ConflictRelation(const SystemType& type,
                                          const Trace& beta,
                                          ConflictMode mode) {
  obs::SpanTimer span(obs::GetSgBuildMetrics().batch_build_us);
  const std::vector<std::vector<Operation>> per_object =
      VisibleOpsByObject(type, beta);
  std::vector<SiblingEdge> edges;
  for (ObjectId x = 0; x < per_object.size(); ++x) {
    if (per_object[x].empty()) continue;
    ObjectConflictFrontier frontier(type, mode, x);
    RunFrontier(frontier, per_object[x], &edges);
  }

  // Canonical order; distinct objects can induce the same sibling edge, so
  // dedup across objects here (each frontier already dedups within one).
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<LabeledSiblingEdge> LabeledConflictRelation(const SystemType& type,
                                                        const Trace& beta,
                                                        ConflictMode mode) {
  obs::SpanTimer span(obs::GetSgBuildMetrics().batch_build_us);
  const std::vector<std::vector<Operation>> per_object =
      VisibleOpsByObject(type, beta);
  // Each object's edge bitmasks fold in: OR on the kinds, smallest object id
  // as representative.
  std::map<SiblingEdge, EdgeLabel> merged;
  std::vector<SiblingEdge> scratch;
  for (ObjectId x = 0; x < per_object.size(); ++x) {
    if (per_object[x].empty()) continue;
    ObjectConflictFrontier frontier(type, mode, x);
    frontier.EnableLabels();
    RunFrontier(frontier, per_object[x], &scratch);
    for (const auto& [edge, kinds] : frontier.edge_label_bits()) {
      EdgeLabel& label = merged[edge];
      label.kinds |= kinds;
      if (x < label.object) label.object = x;
    }
  }

  // The map is keyed by SiblingEdge's canonical (parent, from, to) order, so
  // the result carries ConflictRelation's ordering guarantee for free.
  std::vector<LabeledSiblingEdge> edges;
  edges.reserve(merged.size());
  for (const auto& [edge, label] : merged) {
    edges.push_back(LabeledSiblingEdge{edge, label});
  }
  return edges;
}

std::vector<SiblingEdge> PrecedesRelation(const SystemType& type,
                                          const Trace& beta) {
  TraceIndex index(type, beta);
  // reported_children[P] = children of P already reported at this point.
  std::unordered_map<TxName, std::vector<TxName>> reported_children;
  SiblingEdgeSet edges;
  for (const Action& a : beta) {
    if (a.kind == ActionKind::kReportCommit ||
        a.kind == ActionKind::kReportAbort) {
      reported_children[type.parent(a.tx)].push_back(a.tx);
    } else if (a.kind == ActionKind::kRequestCreate) {
      TxName p = type.parent(a.tx);
      if (!index.IsVisible(p, kT0)) continue;
      auto it = reported_children.find(p);
      if (it == reported_children.end()) continue;
      for (TxName earlier : it->second) {
        if (earlier != a.tx) edges.Insert(SiblingEdge{p, earlier, a.tx});
      }
    }
  }
  obs::GetSgBuildMetrics().precedes_edges_emitted->Inc(edges.size());
  return edges.SortedEdges();
}

}  // namespace ntsg
