// Ablation A3 — routing criterion (Section 6.2's trade-offs). Min-energy vs
// min-hop vs direct single-hop routes on the same network: interference
// energy deposited at distant observers, hop counts (store-and-forward
// delay), and delivered traffic.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "routing/min_energy.hpp"
#include "runner/scenario.hpp"

namespace {

using drn::StationId;
using drn::analysis::Table;
namespace routing = drn::routing;

struct RouteStudy {
  double mean_hops = 0.0;
  double mean_energy = 0.0;       // sum 1/gain along route
  double mean_interference = 0.0; // energy at a distant observer
  std::size_t unreachable = 0;
};

RouteStudy study(const drn::runner::Scenario& scenario,
                 const routing::RoutingTables& tables,
                 StationId observer) {
  RouteStudy out;
  std::size_t pairs = 0;
  const std::size_t n = scenario.gains.size();
  for (StationId src = 0; src < n; ++src) {
    for (StationId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      // Walk the next-hop tables.
      std::vector<StationId> path{src};
      StationId at = src;
      bool ok = true;
      while (at != dst) {
        at = tables.next_hop(at, dst);
        if (at == drn::kNoStation || path.size() > n) {
          ok = false;
          break;
        }
        path.push_back(at);
      }
      if (!ok) {
        ++out.unreachable;
        continue;
      }
      ++pairs;
      out.mean_hops += static_cast<double>(routing::hop_count(path));
      out.mean_energy += routing::path_energy_cost(scenario.gains, path);
      out.mean_interference +=
          routing::interference_energy_at(scenario.gains, path, observer,
                                          1.0e-9);
    }
  }
  if (pairs > 0) {
    out.mean_hops /= static_cast<double>(pairs);
    out.mean_energy /= static_cast<double>(pairs);
    out.mean_interference /= static_cast<double>(pairs);
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "Ablation A3 — routing criterion (Section 6.2)\n"
               "40 stations in a 1000 m disc; 'direct' uses a single max-power "
               "hop for every pair (reach permitting); observer D sits at the "
               "disc edge.\n\n";

  auto cfg = drn::runner::multihop_config();
  cfg.exact_clock_models = true;
  auto scenario = drn::runner::make_scenario(40, 1000.0, 808, cfg);
  const double min_gain = cfg.target_received_w / cfg.max_power_w;

  const auto energy_graph = routing::Graph::min_energy(scenario.gains, min_gain);
  const auto hop_graph = routing::Graph::min_hop(scenario.gains, min_gain);
  const auto energy_tables = routing::RoutingTables::build(energy_graph);
  const auto hop_tables = routing::RoutingTables::build(hop_graph);

  // Find an edge-of-disc observer: the station farthest from the origin.
  StationId observer = 0;
  double best = 0.0;
  for (StationId s = 0; s < scenario.placement.size(); ++s) {
    const double d = drn::geo::norm_sq(scenario.placement[s]);
    if (d > best) {
      best = d;
      observer = s;
    }
  }

  const auto energy = study(scenario, energy_tables, observer);
  const auto hops = study(scenario, hop_tables, observer);

  // "Direct": every pair is one max-power hop, so there are no tables to
  // walk; the study is computed inline.
  RouteStudy direct;
  {
    std::size_t pairs = 0;
    const std::size_t n = scenario.gains.size();
    for (StationId src = 0; src < n; ++src) {
      for (StationId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        ++pairs;
        const std::vector<StationId> path{src, dst};
        direct.mean_hops += 1.0;
        direct.mean_energy += routing::path_energy_cost(scenario.gains, path);
        direct.mean_interference += routing::interference_energy_at(
            scenario.gains, path, observer, 1.0e-9);
      }
    }
    direct.mean_hops /= static_cast<double>(pairs);
    direct.mean_energy /= static_cast<double>(pairs);
    direct.mean_interference /= static_cast<double>(pairs);
  }

  Table t({"criterion", "mean hops", "mean route energy (1/gain)",
           "interference energy at D (rel.)", "unreachable pairs"});
  const double ref = energy.mean_interference;
  t.add_row({"minimum-energy", Table::num(energy.mean_hops, 2),
             Table::num(energy.mean_energy, 0), "1.00",
             Table::num(std::uint64_t(energy.unreachable))});
  t.add_row({"minimum-hop", Table::num(hops.mean_hops, 2),
             Table::num(hops.mean_energy, 0),
             Table::num(hops.mean_interference / ref, 2),
             Table::num(std::uint64_t(hops.unreachable))});
  t.add_row({"direct single hop", Table::num(direct.mean_hops, 2),
             Table::num(direct.mean_energy, 0),
             Table::num(direct.mean_interference / ref, 2), "0"});
  t.print(std::cout);
  std::cout
      << "\nPaper check (Section 6.2): minimum-energy routes take more hops "
         "(latency trade-off the paper concedes) but radiate the least "
         "total energy, so they deposit the least interference at distant "
         "stations; direct high-power hops are dramatically worse — 'the "
         "criteria used to determine routes will need to prefer the short "
         "hops'.\n";
  return 0;
}
