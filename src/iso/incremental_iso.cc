#include "iso/incremental_iso.h"

#include <map>

#include "common/logging.h"

namespace ntsg {

IncrementalIsoChecker::IncrementalIsoChecker(const SystemType& type,
                                             ConflictMode mode)
    : type_(&type), mode_(mode), front_(type, GcOptions{}) {}

ObjectConflictFrontier& IncrementalIsoChecker::Frontier(ObjectId x) {
  if (frontiers_.size() <= x) frontiers_.resize(type_->num_objects());
  NTSG_CHECK(x < frontiers_.size());
  if (!frontiers_[x]) {
    frontiers_[x] = std::make_unique<ObjectConflictFrontier>(*type_, mode_, x);
    frontiers_[x]->EnableLabels();
  }
  return *frontiers_[x];
}

void IncrementalIsoChecker::OnVisibleOp(uint64_t pos, TxName tx,
                                        const Value& v) {
  Frontier(type_->ObjectOf(tx)).AddOp(tx, v, pos, &scratch_);
  scratch_.clear();  // edges are read back from the frontiers at Verdict()
}

void IncrementalIsoChecker::Ingest(const Action& a) {
  // Theorem 17/25 strips INFORMs, so generic behaviors feed verbatim.
  if (a.kind != ActionKind::kInformCommit &&
      a.kind != ActionKind::kInformAbort) {
    serial_.push_back(a);
  }
  front_.Ingest(a, *this);
}

void IncrementalIsoChecker::IngestTrace(const Trace& beta) {
  for (const Action& a : beta) Ingest(a);
}

IsoVerdictVector IncrementalIsoChecker::Verdict(
    const IsoCheckOptions& options) const {
  std::map<SiblingEdge, EdgeLabel> merged;
  for (size_t x = 0; x < frontiers_.size(); ++x) {
    if (!frontiers_[x]) continue;
    for (const auto& [edge, kinds] : frontiers_[x]->edge_label_bits()) {
      EdgeLabel& label = merged[edge];
      label.kinds |= kinds;
      if (static_cast<ObjectId>(x) < label.object) {
        label.object = static_cast<ObjectId>(x);
      }
    }
  }
  std::vector<LabeledSiblingEdge> conflict;
  conflict.reserve(merged.size());
  for (const auto& [edge, label] : merged) {
    conflict.push_back(LabeledSiblingEdge{edge, label});
  }
  LabeledSg graph(conflict, precedes_edges_.SortedEdges());
  return CheckFromLabeledGraph(*type_, serial_, mode_, graph, options);
}

}  // namespace ntsg
