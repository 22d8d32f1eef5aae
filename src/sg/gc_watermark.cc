#include "sg/gc_watermark.h"

#include <algorithm>

#include "common/logging.h"
#include "sg/fast_graph.h"

namespace ntsg {

std::vector<TxName> GcFamilyBook::SealedCandidates(
    size_t watermark, const std::unordered_set<TxName>& blocked) const {
  std::vector<TxName> out;
  for (const auto& [root, f] : families_) {
    if (!f.resolved) continue;
    if (f.max_pos_end > watermark) continue;
    if (blocked.count(root) != 0) continue;
    out.push_back(root);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void GcFamilyBook::MarkRetired(TxName root) {
  NTSG_CHECK_NE(root, kT0);
  auto it = families_.find(root);
  NTSG_CHECK(it != families_.end());
  if (it->second.aborted) retired_aborted_.insert(root);
  families_.erase(it);
  NTSG_CHECK(retired_.insert(root).second);
}

std::vector<TxName> GcFamilyBook::SortedRetiredRoots() const {
  std::vector<TxName> out(retired_.begin(), retired_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TxName> PredecessorClosure(const IncrementalTopoGraph& graph,
                                       const std::vector<TxName>& sealed) {
  // Greatest fixpoint, so the result does not depend on removal order.
  std::unordered_set<TxName> cand(sealed.begin(), sealed.end());
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = cand.begin(); it != cand.end();) {
      bool keep = true;
      for (TxName p : graph.InNeighbors(*it)) {
        if (cand.count(p) == 0) {
          keep = false;
          break;
        }
      }
      if (keep) {
        ++it;
      } else {
        it = cand.erase(it);
        changed = true;
      }
    }
  }
  std::vector<TxName> roots(cand.begin(), cand.end());
  std::sort(roots.begin(), roots.end());
  return roots;
}

bool RetiredScopeEdge(const SystemType& type,
                      const std::unordered_set<TxName>& retired,
                      const SiblingEdge& e) {
  if (e.parent == kT0) {
    return retired.count(e.from) != 0 || retired.count(e.to) != 0;
  }
  return retired.count(GcFamilyBook::RootOf(type, e.parent)) != 0;
}

}  // namespace ntsg
