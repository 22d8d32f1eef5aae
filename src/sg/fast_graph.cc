#include "sg/fast_graph.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"

namespace ntsg {

namespace {

/// Node ids: real transaction names in the low range; timeline (virtual)
/// nodes tagged in the high bits.
using NodeId = uint64_t;

// The tagging scheme (and EdgeKey in the header) packs a TxName into the low
// 32 bits of a uint64 and claims everything above for virtual-node tags. A
// wider TxName would silently classify real transactions as timeline nodes
// and alias edge keys; refuse to compile instead.
static_assert(sizeof(TxName) <= sizeof(uint32_t),
              "NodeId tagging and EdgeKey packing assume TxName fits in "
              "32 bits; widen the tag layout before widening TxName");

NodeId RealNode(TxName t) { return t; }
NodeId VirtualNode(size_t k) {
  NTSG_CHECK((k >> 32) == 0) << "virtual-node index overflows the tag layout";
  return (uint64_t{1} << 32) | k;
}
bool IsRealNode(NodeId n) { return (n >> 32) == 0; }

/// Builds the combined conflict + timeline graph (see header).
std::map<NodeId, std::vector<NodeId>> BuildFastGraph(const SystemType& type,
                                                     const Trace& beta,
                                                     ConflictMode mode,
                                                     FastSgReport* report) {
  std::map<NodeId, std::vector<NodeId>> adj;

  std::vector<SiblingEdge> conflicts = ConflictRelation(type, beta, mode);
  report->conflict_edge_count = conflicts.size();
  for (const SiblingEdge& e : conflicts) {
    adj[RealNode(e.from)].push_back(RealNode(e.to));
    adj.try_emplace(RealNode(e.to));
  }

  TraceIndex index(type, beta);
  struct ParentState {
    std::vector<TxName> pending_reported;
    NodeId last_virtual = 0;
    bool has_virtual = false;
  };
  std::map<TxName, ParentState> parents;
  size_t next_virtual = 0;

  for (const Action& a : beta) {
    if (a.kind == ActionKind::kReportCommit ||
        a.kind == ActionKind::kReportAbort) {
      TxName p = type.parent(a.tx);
      if (!index.IsVisible(p, kT0)) continue;
      parents[p].pending_reported.push_back(a.tx);
    } else if (a.kind == ActionKind::kRequestCreate) {
      TxName p = type.parent(a.tx);
      if (!index.IsVisible(p, kT0)) continue;
      ParentState& st = parents[p];
      if (!st.pending_reported.empty()) {
        // Seal an epoch: reported children funnel into a fresh node.
        NodeId v = VirtualNode(next_virtual++);
        ++report->timeline_node_count;
        for (TxName c : st.pending_reported) {
          adj[RealNode(c)].push_back(v);
          ++report->timeline_edge_count;
        }
        st.pending_reported.clear();
        if (st.has_virtual) {
          adj[st.last_virtual].push_back(v);
          ++report->timeline_edge_count;
        }
        adj.try_emplace(v);
        st.last_virtual = v;
        st.has_virtual = true;
      }
      if (st.has_virtual) {
        adj[st.last_virtual].push_back(RealNode(a.tx));
        adj.try_emplace(RealNode(a.tx));
        ++report->timeline_edge_count;
      }
    }
  }
  return adj;
}

/// Kahn's algorithm with a deterministic (ordered) frontier. Returns the
/// topological sequence, or an empty vector on a cycle.
std::vector<NodeId> TopoSort(const std::map<NodeId, std::vector<NodeId>>& adj) {
  std::map<NodeId, int> indegree;
  for (const auto& [n, succs] : adj) {
    indegree.try_emplace(n, 0);
    for (NodeId s : succs) indegree[s]++;
  }
  std::set<NodeId> frontier;
  for (const auto& [n, d] : indegree) {
    if (d == 0) frontier.insert(n);
  }
  std::vector<NodeId> order;
  while (!frontier.empty()) {
    NodeId n = *frontier.begin();
    frontier.erase(frontier.begin());
    order.push_back(n);
    auto it = adj.find(n);
    if (it == adj.end()) continue;
    for (NodeId s : it->second) {
      if (--indegree[s] == 0) frontier.insert(s);
    }
  }
  if (order.size() != indegree.size()) return {};  // Cycle.
  return order;
}

}  // namespace

FastSgReport FastSgAcyclicity(const SystemType& type, const Trace& beta,
                              ConflictMode mode) {
  FastSgReport report;
  auto adj = BuildFastGraph(type, beta, mode, &report);
  report.acyclic = !TopoSort(adj).empty() || adj.empty();
  return report;
}

std::optional<std::map<TxName, std::vector<TxName>>> FastTopologicalOrders(
    const SystemType& type, const Trace& beta, ConflictMode mode) {
  FastSgReport report;
  auto adj = BuildFastGraph(type, beta, mode, &report);
  std::vector<NodeId> order = TopoSort(adj);
  if (order.empty() && !adj.empty()) return std::nullopt;

  std::map<TxName, std::vector<TxName>> result;
  for (NodeId n : order) {
    if (!IsRealNode(n)) continue;
    TxName t = static_cast<TxName>(n);
    result[type.parent(t)].push_back(t);
  }
  return result;
}

uint32_t IncrementalTopoGraph::Slot(TxName t) {
  auto it = slot_.find(t);
  if (it != slot_.end()) return it->second;
  uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
    nodes_[s] = Node{{}, {}, next_ord_++, t};
  } else {
    s = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{{}, {}, next_ord_++, t});
  }
  slot_.emplace(t, s);
  return s;
}

bool IncrementalTopoGraph::HasEdge(TxName from, TxName to) const {
  return edges_.count(EdgeKey(from, to)) != 0;
}

std::optional<uint64_t> IncrementalTopoGraph::OrdOf(TxName t) const {
  auto it = slot_.find(t);
  if (it == slot_.end()) return std::nullopt;
  return nodes_[it->second].ord;
}

bool IncrementalTopoGraph::AddEdge(TxName from, TxName to) {
  if (from == to) return false;
  uint64_t key = EdgeKey(from, to);
  if (edges_.count(key) != 0) return true;
  uint32_t sx = Slot(from);
  uint32_t sy = Slot(to);

  if (nodes_[sy].ord < nodes_[sx].ord) {
    // The order is violated: discover the affected region
    // [ord(to), ord(from)]. In a valid topological order every path out of
    // `to` ascends in ord, so a to ->* from path — the only way the new edge
    // closes a cycle — lies entirely inside the region.
    const uint64_t lb = nodes_[sy].ord;
    const uint64_t ub = nodes_[sx].ord;
    std::vector<uint32_t> delta_f, delta_b, stack;
    std::unordered_set<uint32_t> seen_f, seen_b;

    stack.push_back(sy);
    seen_f.insert(sy);
    while (!stack.empty()) {
      uint32_t n = stack.back();
      stack.pop_back();
      delta_f.push_back(n);
      for (uint32_t s : nodes_[n].out) {
        if (s == sx) return false;  // Cycle; nothing was modified.
        if (nodes_[s].ord <= ub && seen_f.insert(s).second) {
          stack.push_back(s);
        }
      }
    }

    stack.push_back(sx);
    seen_b.insert(sx);
    while (!stack.empty()) {
      uint32_t n = stack.back();
      stack.pop_back();
      delta_b.push_back(n);
      for (uint32_t s : nodes_[n].in) {
        if (nodes_[s].ord >= lb && seen_b.insert(s).second) {
          stack.push_back(s);
        }
      }
    }

    // Acyclic: delta_b and delta_f are disjoint (a shared node would lie on
    // a to ->* from path). Reuse the combined ord pool, placing everything
    // that must precede the new edge before everything that must follow it,
    // preserving relative order inside each side.
    auto by_ord = [this](uint32_t a, uint32_t b) {
      return nodes_[a].ord < nodes_[b].ord;
    };
    std::sort(delta_b.begin(), delta_b.end(), by_ord);
    std::sort(delta_f.begin(), delta_f.end(), by_ord);
    std::vector<uint64_t> pool;
    pool.reserve(delta_b.size() + delta_f.size());
    for (uint32_t n : delta_b) pool.push_back(nodes_[n].ord);
    for (uint32_t n : delta_f) pool.push_back(nodes_[n].ord);
    std::sort(pool.begin(), pool.end());
    size_t k = 0;
    for (uint32_t n : delta_b) nodes_[n].ord = pool[k++];
    for (uint32_t n : delta_f) nodes_[n].ord = pool[k++];
    obs::TraceEmit(obs::TraceEventKind::kTopoReorder, 0, from, to, 0,
                   delta_b.size() + delta_f.size());
  }

  nodes_[sx].out.push_back(sy);
  nodes_[sy].in.push_back(sx);
  edges_.insert(key);
  return true;
}

std::vector<TxName> IncrementalTopoGraph::FindPath(TxName from,
                                                   TxName to) const {
  auto itf = slot_.find(from);
  auto itt = slot_.find(to);
  if (itf == slot_.end() || itt == slot_.end()) return {};
  const uint32_t sf = itf->second;
  const uint32_t st = itt->second;
  if (sf == st) return {from};

  // BFS with parent pointers: the witness is a shortest path, and the
  // first-discovered one is unique given the insertion-ordered adjacency.
  std::vector<uint32_t> parent(nodes_.size(), UINT32_MAX);
  std::vector<uint8_t> seen(nodes_.size(), 0);
  std::vector<uint32_t> queue;
  queue.push_back(sf);
  seen[sf] = 1;
  bool found = false;
  for (size_t qi = 0; qi < queue.size() && !found; ++qi) {
    uint32_t n = queue[qi];
    for (uint32_t s : nodes_[n].out) {
      if (seen[s] != 0) continue;
      seen[s] = 1;
      parent[s] = n;
      if (s == st) {
        found = true;
        break;
      }
      queue.push_back(s);
    }
  }
  if (!found) return {};

  std::vector<TxName> path;
  for (uint32_t n = st; n != UINT32_MAX; n = parent[n]) {
    path.push_back(nodes_[n].name);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void IncrementalTopoGraph::RemoveEdge(TxName from, TxName to) {
  // No kEdgeRemoved here: the SGT coordinator also calls RemoveEdge to roll
  // back trial insertions, which are not real expunges — the semantic
  // removal event is emitted by the caller that owns the edge's meaning.
  if (edges_.erase(EdgeKey(from, to)) == 0) return;
  uint32_t sx = slot_.at(from);
  uint32_t sy = slot_.at(to);
  // The key was in edges_, so both adjacency lists must hold the edge; if
  // they diverged (a partially restored snapshot, a future refactor bug),
  // dereferencing find()'s end() here would be UB — fail loudly instead.
  auto drop = [](std::vector<uint32_t>& v, uint32_t target) {
    auto it = std::find(v.begin(), v.end(), target);
    NTSG_CHECK(it != v.end())
        << "edge set and adjacency lists diverged on removal";
    *it = v.back();
    v.pop_back();
  };
  drop(nodes_[sx].out, sy);
  drop(nodes_[sy].in, sx);
}

void IncrementalTopoGraph::RemoveNode(TxName t) {
  auto it = slot_.find(t);
  if (it == slot_.end()) return;
  const uint32_t s = it->second;
  // Unlike RemoveEdge's swap-pop (safe there: the caller owns both ends),
  // neighbor lists are erased in place. Retired nodes may have live
  // successors, and a live node's `in` list feeds AddEdge's backward search
  // in whatever order entries sit — but its `out` list drives FindPath's
  // deterministic exploration, so a predecessor's out list must keep its
  // insertion order when this node leaves it.
  auto erase_stable = [](std::vector<uint32_t>& v, uint32_t target) {
    auto pos = std::find(v.begin(), v.end(), target);
    NTSG_CHECK(pos != v.end())
        << "edge set and adjacency lists diverged on node removal";
    v.erase(pos);
  };
  for (uint32_t succ : nodes_[s].out) {
    NTSG_CHECK_EQ(edges_.erase(EdgeKey(t, nodes_[succ].name)), 1u);
    erase_stable(nodes_[succ].in, s);
  }
  for (uint32_t pred : nodes_[s].in) {
    NTSG_CHECK_EQ(edges_.erase(EdgeKey(nodes_[pred].name, t)), 1u);
    erase_stable(nodes_[pred].out, s);
  }
  // Release the adjacency storage now (slab reuse only clears it), so a
  // retired high-degree node does not pin its peak allocation forever.
  nodes_[s].out = {};
  nodes_[s].in = {};
  slot_.erase(it);
  free_slots_.push_back(s);
}

std::vector<TxName> IncrementalTopoGraph::InNeighbors(TxName t) const {
  auto it = slot_.find(t);
  if (it == slot_.end()) return {};
  std::vector<TxName> preds;
  preds.reserve(nodes_[it->second].in.size());
  for (uint32_t p : nodes_[it->second].in) preds.push_back(nodes_[p].name);
  return preds;
}

void IncrementalTopoGraph::CompactOrders() {
  std::vector<uint32_t> live;
  live.reserve(slot_.size());
  for (const auto& [t, s] : slot_) live.push_back(s);
  std::sort(live.begin(), live.end(), [this](uint32_t a, uint32_t b) {
    return nodes_[a].ord < nodes_[b].ord;
  });
  uint64_t k = 0;
  for (uint32_t s : live) nodes_[s].ord = k++;
  next_ord_ = k;
}

}  // namespace ntsg
