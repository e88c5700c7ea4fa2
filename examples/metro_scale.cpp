// Scaling study driver: how does the scheme hold up as station count grows
// within a fixed metro disc (density grows with M, as in Section 4)? Prints
// the delivered ratio, collision losses, background SNR prediction, and the
// analytic metro projection alongside each simulated size.
//
//   $ ./metro_scale
#include <iostream>

#include "analysis/capacity.hpp"
#include "analysis/table.hpp"
#include "radio/noise_growth.hpp"
#include "runner/scenario.hpp"

namespace {

using namespace drn;

struct Row {
  std::size_t stations = 0;
  double delivery = 0.0;
  std::uint64_t collisions = 0;
  double hops = 0.0;
  double snr_db_model = 0.0;
};

Row run(std::size_t stations, std::uint64_t seed) {
  const double region = 1500.0;
  // Reach scales with density: 2.5x the characteristic length. The power
  // budget target * reach^2 puts the routing floor at a gain of 1/reach^2.
  const double r0 = radio::characteristic_length(
      radio::disc_density(stations, radio::Meters{region})).value();
  const double reach = 2.5 * r0;

  runner::ScenarioSpec spec;
  spec.stations = stations;
  spec.region_m = region;
  spec.net.max_power_w = spec.net.target_received_w * reach * reach;
  spec.rate_pps = static_cast<double>(stations) * 4.0;
  spec.duration_s = 1.0;
  spec.drain_s = 119.0;
  runner::Trial trial(spec, seed);
  (void)trial.run();
  const sim::Metrics& m = trial.simulator().metrics();

  Row r;
  r.stations = stations;
  r.delivery = m.delivery_ratio();
  r.collisions = m.total_hop_losses();
  r.hops = m.delivered() > 0 ? m.hops().mean() : 0.0;
  r.snr_db_model = radio::nearest_neighbor_snr_db(stations, 0.3 * 0.7).value();
  return r;
}

}  // namespace

int main() {
  std::cout << "Metro scaling study — fixed 1.5 km disc, growing station "
               "count (density grows, reach shrinks, hop counts rise; "
               "collision-freedom persists)\n\n";
  analysis::Table t({"stations", "delivery", "collision losses", "mean hops",
                     "Eq.15 SNR dB (at sim duty)"});
  for (std::size_t n : {std::size_t{50}, std::size_t{100}, std::size_t{200}}) {
    const Row r = run(n, 1000 + n);
    t.add_row({analysis::Table::num(std::uint64_t(r.stations)),
               analysis::Table::num(r.delivery, 4),
               analysis::Table::num(r.collisions),
               analysis::Table::num(r.hops, 2),
               analysis::Table::num(r.snr_db_model, 1)});
  }
  t.print(std::cout);

  std::cout << "\nAnalytic continuation to true metro scale (simulation is "
               "laptop-bound; the analysis is not):\n\n";
  analysis::Table p({"stations", "proc gain dB", "raw Mb/s @2.5GHz",
                     "per-neighbour Mb/s"});
  for (std::size_t n : {std::size_t{1000000}, std::size_t{100000000}}) {
    const auto proj = analysis::metro_projection(n, 0.25, radio::Hertz{2.5e9});
    p.add_row({analysis::Table::num(std::uint64_t(n)),
               analysis::Table::num(proj.required_gain.value(), 1),
               analysis::Table::num(proj.raw_rate.value() / 1e6, 1),
               analysis::Table::num(proj.per_neighbor_rate.value() / 1e6, 2)});
  }
  p.print(std::cout);
  return 0;
}
