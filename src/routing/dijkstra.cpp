#include "routing/dijkstra.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "common/expects.hpp"
#include "common/parallel.hpp"

namespace drn::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

// Station s's arcs are arcs[offset[s] .. offset[s + 1]): one allocation the
// kernel walks in order, instead of a vector per station.
struct RoutingTables::Adjacency {
  struct Arc {
    double cost;
    StationId to;
  };

  std::vector<std::size_t> offset;
  std::vector<Arc> arcs;

  [[nodiscard]] std::span<const Arc> of(StationId s) const {
    return {arcs.data() + offset[s], arcs.data() + offset[s + 1]};
  }

  /// Every edge of `graph`.
  static Adjacency all(const Graph& graph);

  /// The edges of `graph` no two-hop relay beats: u->v is dropped iff some x
  /// has w(u,x) + w(x,v) < w(u,v) - delta, with delta =
  /// 2·DBL_EPSILON·M²·max_edge_cost above the rounding of any path sum of at
  /// most M edges, so a dropped arc never carries a final cost or parent.
  static Adjacency relay_pruned(const Graph& graph);
};

namespace {

using Adjacency = RoutingTables::Adjacency;

// Dijkstra with an indexed 4-ary min-heap keyed on (cost, id) and
// decrease-key, its scratch reused across sources. Stations settle in
// (final cost, id) order, and parent[v] is the first settled station whose
// arc reaches v at its final cost — the same costs and parents as a lazy
// binary-heap Dijkstra relaxing arcs in the same order.
class Kernel {
 public:
  explicit Kernel(std::size_t size) : slot_(size) { heap_.reserve(size); }

  /// Fills cost[] from `source`; parent[] must arrive all kNoStation.
  void run(const Adjacency& adj, StationId source, std::span<double> cost,
           std::span<StationId> parent) {
    std::fill(cost.begin(), cost.end(), kInf);
    cost[source] = 0.0;
    push({0.0, source});
    while (!heap_.empty()) {
      const Entry top = pop();
      for (const Adjacency::Arc& arc : adj.of(top.id)) {
        const double candidate = top.cost + arc.cost;
        if (!(candidate < cost[arc.to])) continue;
        const bool queued = cost[arc.to] != kInf;
        cost[arc.to] = candidate;
        parent[arc.to] = top.id;
        if (queued)
          sift_up(slot_[arc.to], {candidate, arc.to});
        else
          push({candidate, arc.to});
      }
    }
  }

 private:
  struct Entry {
    double cost;
    StationId id;
  };
  static constexpr std::size_t kArity = 4;

  static bool before(const Entry& a, const Entry& b) {
    return a.cost < b.cost || (a.cost == b.cost && a.id < b.id);
  }

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slot_[e.id] = static_cast<std::uint32_t>(i);
  }

  void push(const Entry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1, e);
  }

  // Moves `e` (whose key is at most the one at slot i) up from slot i.
  void sift_up(std::size_t i, const Entry& e) {
    while (i > 0) {
      const std::size_t up = (i - 1) / kArity;
      if (!before(e, heap_[up])) break;
      place(i, heap_[up]);
      i = up;
    }
    place(i, e);
  }

  Entry pop() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], last)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, last);
    return top;
  }

  std::vector<Entry> heap_;
  std::vector<std::uint32_t> slot_;  // heap index of each queued station
};

}  // namespace

Adjacency Adjacency::all(const Graph& graph) {
  Adjacency adj;
  adj.offset.reserve(graph.size() + 1);
  adj.offset.push_back(0);
  for (StationId s = 0; s < graph.size(); ++s) {
    for (const Edge& e : graph.edges(s)) adj.arcs.push_back({e.cost, e.to});
    adj.offset.push_back(adj.arcs.size());
  }
  return adj;
}

Adjacency Adjacency::relay_pruned(const Graph& graph) {
  const std::size_t m = graph.size();
  double max_cost = 0.0;
  for (StationId s = 0; s < m; ++s)
    for (const Edge& e : graph.edges(s)) max_cost = std::max(max_cost, e.cost);
  const double md = static_cast<double>(m);
  const double delta =
      2.0 * std::numeric_limits<double>::epsilon() * md * md * max_cost;

  Adjacency adj;
  adj.offset.reserve(m + 1);
  adj.offset.push_back(0);
  std::vector<double> from_u(m, kInf);  // cheapest u->x, for x adjacent to u
  for (StationId u = 0; u < m; ++u) {
    const auto edges = graph.edges(u);
    for (const Edge& e : edges) from_u[e.to] = std::min(from_u[e.to], e.cost);
    for (const Edge& e : edges) {
      // Costs are symmetric, so v's arc to x costs what x->v does.
      const auto via = graph.edges(e.to);
      const bool dominated =
          std::any_of(via.begin(), via.end(), [&](const Edge& f) {
            return from_u[f.to] + f.cost < e.cost - delta;
          });
      if (!dominated) adj.arcs.push_back({e.cost, e.to});
    }
    for (const Edge& e : edges) from_u[e.to] = kInf;
    adj.offset.push_back(adj.arcs.size());
  }
  return adj;
}

PathTree shortest_paths(const Graph& graph, StationId source) {
  DRN_EXPECTS(source < graph.size());
  PathTree tree;
  tree.source = source;
  tree.cost.resize(graph.size());
  tree.parent.assign(graph.size(), kNoStation);
  Kernel(graph.size())
      .run(Adjacency::all(graph), source, tree.cost, tree.parent);
  return tree;
}

std::vector<StationId> extract_path(const PathTree& tree,
                                    StationId destination) {
  DRN_EXPECTS(destination < tree.cost.size());
  if (tree.cost[destination] == kInf) return {};
  std::vector<StationId> path;
  for (StationId at = destination; at != kNoStation; at = tree.parent[at])
    path.push_back(at);
  std::reverse(path.begin(), path.end());
  DRN_ENSURES(path.front() == tree.source);
  return path;
}

RoutingTables::RoutingTables(std::size_t size,
                             std::shared_ptr<const StationId[]> next_hop,
                             std::shared_ptr<const Adjacency> edges)
    : size_(size), next_hop_(std::move(next_hop)), edges_(std::move(edges)) {}

RoutingTables RoutingTables::build(const Graph& graph) {
  const std::size_t m = graph.size();
  auto edges =
      std::make_shared<const Adjacency>(Adjacency::relay_pruned(graph));
  auto next_hop = std::make_shared<StationId[]>(m * m, kNoStation);
  // One Dijkstra per DESTINATION: with symmetric costs, the parent of `at`
  // in the tree rooted at dst is exactly the next hop from `at` toward dst,
  // so each tree is written straight into row dst. Trees are independent:
  // blocks of destinations build in parallel, each with its own kernel
  // scratch, and only the block owning dst writes row dst.
  parallel_blocks(m, block_grain(m), 0, [&](std::size_t lo, std::size_t hi) {
    Kernel kernel(m);
    std::vector<double> cost(m);
    for (std::size_t dst = lo; dst < hi; ++dst)
      kernel.run(*edges, static_cast<StationId>(dst), cost,
                 {next_hop.get() + dst * m, m});
  });
  return RoutingTables(m, std::move(next_hop), std::move(edges));
}

StationId RoutingTables::next_hop(StationId at, StationId dst) const {
  DRN_EXPECTS(at < size_ && dst < size_);
  return next_hop_[static_cast<std::size_t>(dst) * size_ + at];
}

double RoutingTables::cost(StationId at, StationId dst) const {
  DRN_EXPECTS(at < size_ && dst < size_);
  if (at == dst) return 0.0;
  if (next_hop(at, dst) == kNoStation) return kInf;
  std::vector<StationId> chain{at};
  while (chain.back() != dst) {
    chain.push_back(next_hop(chain.back(), dst));
    DRN_ENSURES(chain.size() <= size_);  // Dijkstra trees have no loops
  }
  // Dijkstra from dst reached chain[i - 1] over one of chain[i]'s arcs; the
  // cheapest such arc gives the same rounded sum as the one it took.
  double total = 0.0;
  for (std::size_t i = chain.size() - 1; i > 0; --i) {
    double hop = kInf;
    for (const Adjacency::Arc& arc : edges_->of(chain[i]))
      if (arc.to == chain[i - 1]) hop = std::min(hop, arc.cost);
    total += hop;
  }
  return total;
}

std::size_t RoutingTables::routing_edge_count() const {
  return edges_->arcs.size();
}

bool RoutingTables::prefix_consistent() const {
  for (StationId at = 0; at < size_; ++at) {
    for (StationId dst = 0; dst < size_; ++dst) {
      if (at == dst || cost(at, dst) == kInf) continue;
      StationId hop = at;
      double last_cost = cost(at, dst);
      for (std::size_t steps = 0; hop != dst; ++steps) {
        if (steps > size_) return false;  // loop
        hop = next_hop(hop, dst);
        if (hop == kNoStation) return false;
        const double c = cost(hop, dst);
        if (hop != dst && c >= last_cost) return false;
        last_cost = c;
      }
    }
  }
  return true;
}

std::function<StationId(StationId, StationId)> RoutingTables::router() const {
  // The closure holds a copy of these tables, which shares the next-hop
  // array instead of copying it, so the router outlives this object for free.
  return [tables = *this](StationId at, StationId dst) {
    return tables.next_hop(at, dst);
  };
}

}  // namespace drn::routing
