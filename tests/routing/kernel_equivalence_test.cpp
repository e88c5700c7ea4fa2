// The routing kernel (indexed 4-ary heap over relay-pruned edges) against a
// plain lazy-heap Dijkstra: every next hop, every cost bit and every
// shortest_paths tree must agree, on graphs chosen for their ties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "geo/placement.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "routing/oracle.hpp"
#include "runner/scenario.hpp"

namespace drn::routing {
namespace {

using testing::table_mismatches;
using testing::tree_mismatches;

// The scenario pipeline's threshold: a hop is usable within the power budget.
double min_gain() {
  const auto net = runner::multihop_config();
  return net.target_received_w / net.max_power_w;
}

// Uniform disc at ~20 stations within reach of each (M = 1024 in 2828 m).
radio::PropagationMatrix random_gains(std::size_t stations,
                                      std::uint64_t seed) {
  Rng rng(seed);
  const double radius =
      2828.0 * std::sqrt(static_cast<double>(stations) / 1024.0);
  const auto placement = geo::uniform_disc(stations, radius, rng);
  return radio::PropagationMatrix::from_placement(
      placement, radio::FreeSpacePropagation{});
}

void expect_kernel_matches_oracle(const Graph& g) {
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(table_mismatches(g, tables), 0u);
  EXPECT_EQ(tree_mismatches(g), 0u);
}

TEST(KernelEquivalence, RandomMinEnergyPlacements) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const auto g = Graph::min_energy(random_gains(300, seed), min_gain());
    expect_kernel_matches_oracle(g);
  }
}

TEST(KernelEquivalence, MinEnergyAtBenchmarkScale) {
  const auto g = Graph::min_energy(random_gains(1024, 7), min_gain());
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(table_mismatches(g, tables), 0u);
  // Section 5: at most eight routing neighbours per station on average.
  EXPECT_LE(tables.routing_edge_count(), 8u * 1024u);
}

TEST(KernelEquivalence, MinHopUnitCostTiesBreakById) {
  // Unit costs: every station at hop distance h ties at cost h exactly, so
  // settle order and parents rest on the id tie-break; nothing is pruned.
  const auto g = Graph::min_hop(random_gains(300, 4), min_gain());
  expect_kernel_matches_oracle(g);
  EXPECT_EQ(RoutingTables::build(g).routing_edge_count(), 2 * g.edge_count());
}

TEST(KernelEquivalence, SquareLatticePlacement) {
  // Spacing 100 m, reach ~400 m: permutations of the same lattice steps are
  // equal-cost paths.
  Rng rng(5);
  const auto placement = geo::jittered_grid(16, 16, 100.0, 0.0, rng);
  const auto gains = radio::PropagationMatrix::from_placement(
      placement, radio::FreeSpacePropagation{});
  expect_kernel_matches_oracle(Graph::min_energy(gains, min_gain()));
}

TEST(KernelEquivalence, IntegerLatticeExactTies) {
  // Squared lattice distances as costs: a diagonal (2) ties two unit steps
  // exactly, and a straight 2-step (4) is beaten by two unit steps.
  constexpr int kSide = 12;
  Graph g(kSide * kSide);
  for (int a = 0; a < kSide * kSide; ++a) {
    for (int b = a + 1; b < kSide * kSide; ++b) {
      const int dx = a % kSide - b % kSide;
      const int dy = a / kSide - b / kSide;
      const int d2 = dx * dx + dy * dy;
      if (d2 > 4) continue;
      g.add_edge(static_cast<StationId>(a), static_cast<StationId>(b), d2,
                 1.0 / d2);
    }
  }
  expect_kernel_matches_oracle(g);
}

TEST(KernelEquivalence, ParallelEdgesAndUnreachableComponent) {
  // Stations 0..29 random with duplicated links (equal and unequal costs),
  // 30..39 a separate component, 40 isolated.
  Rng rng(6);
  Graph g(41);
  for (StationId i = 0; i < 30; ++i) {
    for (StationId j = static_cast<StationId>(i + 1); j < 30; ++j) {
      if (!rng.bernoulli(0.2)) continue;
      const double c = std::floor(rng.uniform(1.0, 6.0));
      g.add_edge(i, j, c, 1.0 / c);
      if (rng.bernoulli(0.3)) g.add_edge(i, j, c, 1.0 / c);
      if (rng.bernoulli(0.3)) g.add_edge(j, i, c + 0.5, 1.0 / (c + 0.5));
      if (rng.bernoulli(0.2)) g.add_edge(i, j, c * 0.5, 2.0 / c);
    }
  }
  for (StationId i = 30; i < 40; ++i)
    g.add_edge(i, i + 1 < 40 ? i + 1 : 30, 1.0, 1.0);
  expect_kernel_matches_oracle(g);
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.next_hop(0, 35), kNoStation);
  EXPECT_EQ(tables.cost(35, 40), std::numeric_limits<double>::infinity());
}

// --- Pruning soundness: the relay test against its margin. ---

// Triangle u=0, x=1, v=2 with w(0,2) = direct and w(0,1) + w(1,2) = via.
Graph triangle(double w01, double w12, double w02) {
  Graph g(3);
  g.add_edge(0, 1, w01, 1.0 / w01);
  g.add_edge(1, 2, w12, 1.0 / w12);
  g.add_edge(0, 2, w02, 1.0 / w02);
  return g;
}

// The build's margin for a 3-station graph whose largest cost is `max_cost`.
double delta3(double max_cost) {
  return 2.0 * std::numeric_limits<double>::epsilon() * 9.0 * max_cost;
}

TEST(RelayPruning, EdgeBeatenByLessThanMarginIsKept) {
  const double w = 2.0;
  const double shortfall = delta3(w) / 4.0;  // relay wins, but inside delta
  const auto g = triangle(1.0, 1.0 - shortfall, w);
  ASSERT_LT(1.0 + (1.0 - shortfall), w);
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.routing_edge_count(), 6u);
  EXPECT_EQ(table_mismatches(g, tables), 0u);
  EXPECT_EQ(tables.next_hop(0, 2), 1u);  // the relay still carries the route
}

TEST(RelayPruning, EdgeBeatenByMoreThanMarginIsDropped) {
  const double w = 2.0;
  const auto g = triangle(1.0, 1.0 - 4.0 * delta3(w), w);
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.routing_edge_count(), 4u);
  EXPECT_EQ(table_mismatches(g, tables), 0u);
}

TEST(RelayPruning, ExactTieKeepsDirectEdgeParent) {
  // 1 + 1 == 2 exactly: the direct edge is not beaten, so it stays, and the
  // tree from 0 keeps the parent its first relaxation gave station 2.
  const auto g = triangle(1.0, 1.0, 2.0);
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.routing_edge_count(), 6u);
  EXPECT_EQ(table_mismatches(g, tables), 0u);
  EXPECT_EQ(tables.next_hop(2, 0), 0u);
  EXPECT_EQ(tables.next_hop(0, 2), 2u);
  EXPECT_EQ(tables.cost(2, 0), 2.0);
}

TEST(RelayPruning, ChainOfDominatedEdgesWithDominatedRelays) {
  // Stations on a line at 0, 1, ..., 8 with squared-distance costs between
  // every pair: each long edge's best relay is reached over edges that are
  // themselves dominated, and only the unit links survive.
  constexpr StationId kN = 9;
  Graph g(kN);
  for (StationId a = 0; a < kN; ++a) {
    for (StationId b = a + 1; b < kN; ++b) {
      const double d = static_cast<double>(b - a);
      g.add_edge(a, b, d * d, 1.0 / (d * d));
    }
  }
  const auto tables = RoutingTables::build(g);
  EXPECT_EQ(tables.routing_edge_count(), 2u * (kN - 1));
  EXPECT_EQ(table_mismatches(g, tables), 0u);
  EXPECT_EQ(tables.next_hop(0, 8), 1u);
  EXPECT_EQ(tables.cost(0, 8), 8.0);
}

}  // namespace
}  // namespace drn::routing
