#include "sg/graph.h"

#include <algorithm>

#include "common/logging.h"
#include "sg/edge_set.h"

namespace ntsg {

namespace {

/// Flattened adjacency of one component SG(β, parent): nodes sorted by
/// name; successor lists aligned with `nodes`, in first-emission order
/// (conflict edges before precedes edges, duplicates dropped first-come).
/// That is exactly the order the previous std::map-of-maps construction
/// produced, which keeps the cycle FindCycle reports — and hence the golden
/// explain transcripts — stable.
struct Component {
  TxName parent;
  std::vector<TxName> nodes;
  std::vector<std::vector<TxName>> succs;

  size_t IndexOf(TxName n) const {
    size_t i = static_cast<size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), n) - nodes.begin());
    NTSG_CHECK_LT(i, nodes.size());
    NTSG_CHECK_EQ(nodes[i], n);
    return i;
  }
};

std::vector<Component> BuildComponents(
    const std::vector<SiblingEdge>& conflict_edges,
    const std::vector<SiblingEdge>& precedes_edges) {
  // Pass 1: every (parent, endpoint) pair, sorted and deduplicated, yields
  // the component list with sorted node sets (isolated edge targets
  // included).
  std::vector<std::pair<TxName, TxName>> members;
  for (const auto* edges : {&conflict_edges, &precedes_edges}) {
    for (const SiblingEdge& e : *edges) {
      members.emplace_back(e.parent, e.from);
      members.emplace_back(e.parent, e.to);
    }
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  std::vector<Component> comps;
  for (const auto& [parent, node] : members) {
    if (comps.empty() || comps.back().parent != parent) {
      comps.push_back(Component{parent, {}, {}});
    }
    comps.back().nodes.push_back(node);
  }
  for (Component& c : comps) c.succs.resize(c.nodes.size());

  // Pass 2: fill successor lists, first occurrence wins across the conflict
  // edges (in input order) and then the precedes edges.
  SiblingEdgeSet seen;
  auto comp_of = [&comps](TxName parent) -> Component& {
    size_t lo = 0, hi = comps.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (comps[mid].parent < parent) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return comps[lo];
  };
  for (const auto* edges : {&conflict_edges, &precedes_edges}) {
    for (const SiblingEdge& e : *edges) {
      if (!seen.Insert(e)) continue;
      Component& c = comp_of(e.parent);
      c.succs[c.IndexOf(e.from)].push_back(e.to);
    }
  }
  return comps;
}

}  // namespace

SerializationGraph SerializationGraph::Build(const SystemType& type,
                                             const Trace& beta,
                                             ConflictMode mode) {
  return FromEdges(ConflictRelation(type, beta, mode),
                   PrecedesRelation(type, beta));
}

SerializationGraph SerializationGraph::FromEdges(
    std::vector<SiblingEdge> conflict_edges,
    std::vector<SiblingEdge> precedes_edges) {
  SerializationGraph g;
  g.conflict_edges_ = std::move(conflict_edges);
  g.precedes_edges_ = std::move(precedes_edges);
  return g;
}

std::vector<TxName> SerializationGraph::Parents() const {
  std::vector<TxName> parents;
  for (const auto* edges : {&conflict_edges_, &precedes_edges_}) {
    for (const SiblingEdge& e : *edges) parents.push_back(e.parent);
  }
  std::sort(parents.begin(), parents.end());
  parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
  return parents;
}

std::optional<std::vector<TxName>> SerializationGraph::FindCycle() const {
  for (const Component& comp : BuildComponents(conflict_edges_,
                                               precedes_edges_)) {
    // Iterative DFS with colors; records the stack to extract the cycle.
    std::vector<uint8_t> color(comp.nodes.size(), 0);  // 0 white, 1 gray,
                                                       // 2 black.
    for (size_t start = 0; start < comp.nodes.size(); ++start) {
      if (color[start] != 0) continue;
      std::vector<std::pair<size_t, size_t>> stack;  // (node, next succ idx).
      stack.push_back({start, 0});
      color[start] = 1;
      while (!stack.empty()) {
        auto& [node, idx] = stack.back();
        const std::vector<TxName>& succ = comp.succs[node];
        if (idx >= succ.size()) {
          color[node] = 2;
          stack.pop_back();
          continue;
        }
        size_t next = comp.IndexOf(succ[idx++]);
        if (color[next] == 1) {
          // Found a back edge; the cycle is the stack suffix from `next`.
          std::vector<TxName> cycle;
          bool in_cycle = false;
          for (const auto& frame : stack) {
            if (frame.first == next) in_cycle = true;
            if (in_cycle) cycle.push_back(comp.nodes[frame.first]);
          }
          return cycle;
        }
        if (color[next] == 0) {
          color[next] = 1;
          stack.push_back({next, 0});
        }
      }
    }
  }
  return std::nullopt;
}

std::string SerializationGraph::ToDot(const SystemType& type) const {
  std::string out = "digraph SG {\n";
  auto parents = Parents();
  int cluster = 0;
  for (TxName p : parents) {
    out += "  subgraph cluster_" + std::to_string(cluster++) + " {\n";
    out += "    label=\"SG(beta, " + type.NameOf(p) + ")\";\n";
    for (const SiblingEdge& e : conflict_edges_) {
      if (e.parent != p) continue;
      out += "    \"" + type.NameOf(e.from) + "\" -> \"" + type.NameOf(e.to) +
             "\" [color=black];\n";
    }
    for (const SiblingEdge& e : precedes_edges_) {
      if (e.parent != p) continue;
      out += "    \"" + type.NameOf(e.from) + "\" -> \"" + type.NameOf(e.to) +
             "\" [style=dashed, color=blue];\n";
    }
    out += "  }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace ntsg
