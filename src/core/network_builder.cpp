#include "core/network_builder.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "common/parallel.hpp"
#include "core/clock_model.hpp"

namespace drn::core {

ScheduledNetwork build_scheduled_network(
    const radio::PropagationMatrix& gains,
    const radio::ReceptionCriterion& criterion,
    const ScheduledNetworkConfig& config, Rng& rng) {
  DRN_EXPECTS(config.slot_s > 0.0);
  DRN_EXPECTS(config.receive_fraction > 0.0 && config.receive_fraction < 1.0);
  DRN_EXPECTS(config.packet_fraction > 0.0);
  DRN_EXPECTS(config.guard_fraction >= 0.0);
  DRN_EXPECTS(config.packet_fraction + 2.0 * config.guard_fraction <= 1.0);
  DRN_EXPECTS(config.target_received_w > 0.0);
  DRN_EXPECTS(config.max_power_w > 0.0);
  DRN_EXPECTS(config.rendezvous_count >= 1);

  const std::size_t m = gains.size();
  ScheduledNetwork net{
      Schedule(config.schedule_seed, config.slot_s, config.receive_fraction),
      {},
      std::vector<std::vector<StationId>>(m),
      {},
      config.packet_fraction * config.slot_s,
      0.0,
      (units::Watts{config.target_received_w} / criterion.required_snr())
          .value()};
  net.packet_bits = criterion.data_rate_bps() * net.packet_airtime_s;

  // Clocks: independent random offsets (Section 7.1) and quartz drift.
  net.clocks.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    net.clocks.push_back(
        StationClock::random(rng, Seconds{config.max_clock_offset_s},
                             config.max_drift_ppm));

  const PowerControl power(config.target_received_w, config.max_power_w);

  // Neighbour selection: the addressee must be reachable within the power
  // limit (and above any explicit gain floor).
  auto is_neighbor = [&](StationId a, StationId b) {
    const double g = gains.gain(a, b);
    return power.reachable(g) && g >= config.min_neighbor_gain;
  };

  // Worst-case power each station may radiate: enough to reach its weakest
  // neighbour. Used for the Section-7.3 significance test. Rows are
  // independent and draw nothing from `rng`, so they scan in parallel, each
  // station's neighbour list and worst power written by one block.
  std::vector<double> worst_power(m, 0.0);
  parallel_blocks(m, block_grain(m), 0, [&](std::size_t lo, std::size_t hi) {
    for (auto i = static_cast<StationId>(lo); i < hi; ++i) {
      for (StationId j = 0; j < m; ++j) {
        if (i == j || !is_neighbor(i, j)) continue;
        net.neighbors[i].push_back(j);
        worst_power[i] =
            std::max(worst_power[i], power.transmit_power_w(gains.gain(i, j)));
      }
    }
  });

  // Rendezvous schedule shared by every pair (relative global times < 0, i.e.
  // before the simulation starts).
  std::vector<double> rendezvous_times;
  rendezvous_times.reserve(static_cast<std::size_t>(config.rendezvous_count));
  for (int k = 0; k < config.rendezvous_count; ++k) {
    const double frac = config.rendezvous_count == 1
                            ? 1.0
                            : static_cast<double>(k) /
                                  static_cast<double>(config.rendezvous_count - 1);
    rendezvous_times.push_back(-config.rendezvous_span_s * (1.0 - frac) -
                               config.slot_s);
  }

  net.macs.reserve(m);
  for (StationId i = 0; i < m; ++i) {
    NeighborTable table;
    for (StationId j : net.neighbors[i]) {
      Neighbor nb;
      nb.id = j;
      nb.gain = gains.gain(i, j);
      if (config.exact_clock_models) {
        nb.clock = ClockModel::exact(net.clocks[i], net.clocks[j]);
      } else {
        const auto samples =
            rendezvous(net.clocks[i], net.clocks[j], rendezvous_times,
                       config.rendezvous_noise_s, rng);
        nb.clock = ClockModel::fit(samples);
      }
      nb.respect_receive_windows =
          config.respect_third_party_windows &&
          interferes_significantly(nb.gain, worst_power[i],
                                   net.interference_budget_w,
                                   config.significance_fraction);
      table.add(nb);
    }

    ScheduledStationConfig sc{net.schedule,
                              net.clocks[i],
                              net.packet_airtime_s,
                              config.guard_fraction * config.slot_s,
                              power,
                              /*horizon_slots=*/20000.0,
                              config.max_queue,
                              /*interference_budget_w=*/net.interference_budget_w,
                              config.significance_fraction};
    if (config.beacon_interval_s > 0.0) {
      sc.data_rate_bps = criterion.data_rate_bps();
      sc.beacon_interval_s = config.beacon_interval_s;
      sc.beacon_bits = config.beacon_bits;
      sc.neighbor_timeout_s = config.neighbor_timeout_s;
      sc.readopt_neighbors = config.readopt_neighbors;
    }
    net.macs.push_back(std::make_unique<ScheduledStation>(sc, std::move(table)));
  }
  return net;
}

}  // namespace drn::core
