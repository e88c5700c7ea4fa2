// Figure 3 / Section 6.2: minimum-energy routing. Reproduces
//  (a) the relay-circle criterion — sweep relay positions, compare the
//      geometric prediction to actual Dijkstra route choice;
//  (b) the centred-relay arithmetic — power /4 per hop, energy /2 total,
//      interference at a distant station D halved;
//  (c) the neighbour-count observation — "the number of routing neighbors
//      never exceeded eight" across random 100/1000-station placements.
#include <algorithm>
#include <iostream>

#include "analysis/table.hpp"
#include "geo/placement.hpp"
#include "radio/noise_growth.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "routing/min_energy.hpp"

namespace {

using drn::StationId;
using drn::analysis::Table;
namespace geo = drn::geo;
namespace radio = drn::radio;
namespace routing = drn::routing;

void relay_criterion_sweep() {
  std::cout << "Relay-circle criterion: relay B on the perpendicular bisector "
               "of A-C (|AC| = 100 m)\n\n";
  const geo::Vec2 a{0.0, 0.0};
  const geo::Vec2 c{100.0, 0.0};
  Table t({"B offset from axis (m)", "inside circle?", "Dijkstra relays?",
           "relayed/direct energy"});
  for (double y : {0.0, 20.0, 40.0, 49.0, 50.0, 51.0, 60.0, 80.0}) {
    const geo::Vec2 b{50.0, y};
    const geo::Placement placement = {a, b, c};
    const radio::FreeSpacePropagation model;
    const auto gains = radio::PropagationMatrix::from_placement(placement, model);
    const auto graph = routing::Graph::min_energy(gains, 1.0e-12);
    const auto tree = routing::shortest_paths(graph, 0);
    const auto path = routing::extract_path(tree, 2);
    const double direct = 1.0 / gains.gain(2, 0);
    const double relayed = 1.0 / gains.gain(1, 0) + 1.0 / gains.gain(2, 1);
    t.add_row({Table::num(y, 0),
               routing::relay_inside_criterion_circle(a, b, c) ? "yes" : "no",
               path.size() == 3 ? "yes" : "no",
               Table::num(relayed / direct, 3)});
  }
  t.print(std::cout);
  std::cout << "\nThe crossover sits exactly at the circle boundary (50 m "
               "offset, where the ratio is 1.0), matching Section 6.2.\n\n";
}

void centered_relay_energy() {
  std::cout << "Centred relay arithmetic (A-B-C collinear, B at the middle, "
               "observer D far away):\n\n";
  const geo::Placement placement = {
      {0.0, 0.0}, {50.0, 0.0}, {100.0, 0.0}, {50.0, 1.0e5}};
  const radio::FreeSpacePropagation model;
  const auto gains = radio::PropagationMatrix::from_placement(placement, model);
  const std::vector<StationId> direct = {0, 2};
  const std::vector<StationId> relayed = {0, 1, 2};
  Table t({"route", "tx power per hop (rel.)", "hops",
           "interference energy at D (rel.)"});
  const double e_direct = routing::interference_energy_at(gains, direct, 3);
  const double e_relay = routing::interference_energy_at(gains, relayed, 3);
  t.add_row({"direct A->C", "1.00", "1", "1.00"});
  t.add_row({"A->B->C", "0.25", "2", Table::num(e_relay / e_direct, 3)});
  t.print(std::cout);
  std::cout << "\nPaper: power down 4x per hop, duration doubled -> total "
               "interference energy halved.\n\n";
}

void neighbor_counts() {
  std::cout << "Routing-neighbour counts over random placements (reach 2*R0, "
               "Section 6's design point):\n\n";
  Table t({"stations", "trial", "mean degree", "max degree"});
  drn::Rng rng(606);
  for (std::size_t n : {std::size_t{100}, std::size_t{1000}}) {
    for (int trial = 1; trial <= 3; ++trial) {
      const double region = 1000.0;
      const auto placement = geo::uniform_disc(n, region, rng);
      const radio::FreeSpacePropagation model;
      const auto gains =
          radio::PropagationMatrix::from_placement(placement, model);
      const double r0 =
          radio::characteristic_length(
              radio::disc_density(n, radio::Meters{region}))
              .value();
      const auto graph =
          routing::Graph::min_energy(gains, 1.0 / (4.0 * r0 * r0));
      const auto degrees = graph.degrees();
      double mean = 0.0;
      std::size_t max = 0;
      for (std::size_t d : degrees) {
        mean += static_cast<double>(d);
        max = std::max(max, d);
      }
      mean /= static_cast<double>(n);
      t.add_row({Table::num(std::uint64_t(n)),
                 Table::num(std::uint64_t(trial)), Table::num(mean, 2),
                 Table::num(std::uint64_t(max))});
    }
  }
  t.print(std::cout);
  std::cout << "\nPaper check: expected ~4 neighbours at reach 2*R0; the "
               "paper reports the per-station count never exceeded eight "
               "(maxima here sit in the same single-digit band; extreme "
               "Poisson clumps can nudge past 8).\n";
}

}  // namespace

int main() {
  std::cout << "Figure 3 / Section 6.2 — minimum-energy routing\n\n";
  relay_criterion_sweep();
  centered_relay_energy();
  neighbor_counts();
  return 0;
}
