// Centralized min-cost paths (Dijkstra) and the all-pairs next-hop tables
// built from them. The distributed computation the paper actually proposes is
// in routing/bellman_ford.hpp; Dijkstra serves as the reference oracle the
// distributed algorithm must agree with (tested), and as the fast way to
// build routing tables for large simulations.
//
// Both entry points run one kernel: an indexed 4-ary-heap Dijkstra over a
// compressed copy of the graph that settles stations in (cost, id) order.
// The tie-break and the bit-identity argument for the tables' edge pruning
// are in DESIGN.md §14.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "routing/graph.hpp"

namespace drn::routing {

/// Single-source shortest-path tree.
struct PathTree {
  StationId source = kNoStation;
  std::vector<double> cost;       // infinity if unreachable
  std::vector<StationId> parent;  // kNoStation at source / unreachable
};

/// Dijkstra from `source` over non-negative edge costs.
[[nodiscard]] PathTree shortest_paths(const Graph& graph, StationId source);

/// The station sequence from `tree.source` to `destination` (inclusive);
/// empty if unreachable.
[[nodiscard]] std::vector<StationId> extract_path(const PathTree& tree,
                                                  StationId destination);

/// All-pairs next-hop tables: next_hop(at, dst) is the neighbour `at`
/// forwards to for destination `dst`. Built from one Dijkstra per
/// destination; costs must be symmetric (undirected graph).
///
/// The trees run over the graph minus every edge that a two-hop relay beats
/// by more than a rounding-safe margin (under 1/r² costs, Figure 3's relay
/// circle), which changes no cost and no next hop. Storage is one immutable,
/// destination-major M² array of next hops: row `dst` is the parent array
/// of the tree rooted at `dst`. Copies and router() closures share it.
/// Path costs are not stored; cost() re-derives them from the edges.
class RoutingTables {
 public:
  static RoutingTables build(const Graph& graph);

  /// kNoStation if dst is unreachable from `at` (or at == dst).
  [[nodiscard]] StationId next_hop(StationId at, StationId dst) const;

  /// Total path cost from `at` to `dst` (infinity if unreachable): the edge
  /// costs along the next-hop chain, summed from `dst` outward as Dijkstra
  /// accumulated them, so the value is bit-identical to the tree's.
  [[nodiscard]] double cost(StationId at, StationId dst) const;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Directed edges the trees were built over: the graph's, minus those a
  /// two-hop relay beats (Section 5's "routing neighbours").
  [[nodiscard]] std::size_t routing_edge_count() const;

  /// The paper's hop-by-hop consistency property (Section 6.2): "a
  /// minimum-energy route from A to C that goes through B will use the same
  /// route from B to C as any other route that goes through B to get to C."
  /// True iff following next_hop pointers from every (at, dst) pair reaches
  /// dst in at most `size` hops with monotonically decreasing cost.
  [[nodiscard]] bool prefix_consistent() const;

  /// A Simulator-compatible router closure over these tables.
  [[nodiscard]] std::function<StationId(StationId, StationId)> router() const;

  /// Compressed adjacency the kernel runs over (defined in dijkstra.cpp).
  struct Adjacency;

 private:
  RoutingTables(std::size_t size, std::shared_ptr<const StationId[]> next_hop,
                std::shared_ptr<const Adjacency> edges);

  std::size_t size_;
  std::shared_ptr<const StationId[]> next_hop_;  // [dst * size_ + at]
  std::shared_ptr<const Adjacency> edges_;
};

}  // namespace drn::routing
