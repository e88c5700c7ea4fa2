// The routing kernel against the lazy-heap oracle at the dense guard
// (M = 4096, the metro_setup shape): all M² next hops and costs bit-equal,
// for two placements. Minutes long: `ctest -C soak` only, never tier-1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "routing/oracle.hpp"
#include "runner/scenario.hpp"

namespace drn::routing {
namespace {

TEST(KernelEquivalenceSoak, AllPairsAtDenseGuard) {
  constexpr std::size_t kStations = radio::kDenseMatrixGuardM;
  const auto net = runner::multihop_config();
  for (const std::uint64_t seed : {1u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto placement = geo::uniform_disc(
        kStations, 2828.0 * std::sqrt(static_cast<double>(kStations) / 1024.0), rng);
    const auto g = Graph::min_energy(
        radio::make_dense_gains(placement, radio::FreeSpacePropagation{}),
        net.target_received_w / net.max_power_w);
    const auto tables = RoutingTables::build(g);
    EXPECT_EQ(testing::table_mismatches(g, tables), 0u);
  }
}

}  // namespace
}  // namespace drn::routing
