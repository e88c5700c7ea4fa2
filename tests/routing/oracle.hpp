// Test oracle for the routing kernel: a plain lazy-deletion binary-heap
// Dijkstra, and a bit-for-bit comparison of RoutingTables / shortest_paths
// against it. Pops (cost, id) pairs, skips stale entries and relaxes arcs in
// Graph::edges order — the reference behaviour the kernel must reproduce.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"

namespace drn::routing::testing {

inline PathTree oracle_shortest_paths(const Graph& graph, StationId source) {
  PathTree tree;
  tree.source = source;
  tree.cost.assign(graph.size(), std::numeric_limits<double>::infinity());
  tree.parent.assign(graph.size(), kNoStation);
  tree.cost[source] = 0.0;
  using Item = std::pair<double, StationId>;  // (cost, station)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [cost, at] = heap.top();
    heap.pop();
    if (cost > tree.cost[at]) continue;  // stale entry
    for (const Edge& e : graph.edges(at)) {
      const double candidate = cost + e.cost;
      if (candidate < tree.cost[e.to]) {
        tree.cost[e.to] = candidate;
        tree.parent[e.to] = at;
        heap.emplace(candidate, e.to);
      }
    }
  }
  return tree;
}

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Mismatching (at, dst) pairs between `tables` and one oracle tree per
/// destination, next hop and cost() compared bit for bit.
inline std::size_t table_mismatches(const Graph& graph,
                                    const RoutingTables& tables) {
  std::size_t mismatches = 0;
  for (StationId dst = 0; dst < graph.size(); ++dst) {
    const PathTree tree = oracle_shortest_paths(graph, dst);
    for (StationId at = 0; at < graph.size(); ++at) {
      if (tables.next_hop(at, dst) != tree.parent[at] ||
          !same_bits(tables.cost(at, dst), tree.cost[at]))
        ++mismatches;
    }
  }
  return mismatches;
}

/// Sources whose shortest_paths tree differs from the oracle's in any cost
/// bit or parent.
inline std::size_t tree_mismatches(const Graph& graph) {
  std::size_t mismatches = 0;
  for (StationId s = 0; s < graph.size(); ++s) {
    const PathTree got = shortest_paths(graph, s);
    const PathTree want = oracle_shortest_paths(graph, s);
    bool same = got.source == want.source && got.parent == want.parent;
    for (StationId v = 0; same && v < graph.size(); ++v)
      same = same_bits(got.cost[v], want.cost[v]);
    if (!same) ++mismatches;
  }
  return mismatches;
}

}  // namespace drn::routing::testing
