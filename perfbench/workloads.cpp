#include "workloads.hpp"

#include <cmath>
#include <numbers>

#include "radio/interference_engine.hpp"

namespace perfbench {
namespace {

using drn::runner::MacKind;
using drn::runner::ScenarioSpec;

// Stations per square metre shared by every workload: M = 1024 in a 2828 m
// disc. At the multihop power budget (reach ~400 m) a station has ~20
// stations in range, so placements are connected and routes run ~25 hops.
constexpr double kDensityPerM2 = 1024.0 / (std::numbers::pi * 2828.0 * 2828.0);

double radius_for(std::size_t stations) {
  return std::sqrt(static_cast<double>(stations) / (std::numbers::pi * kDensityPerM2));
}

// Every field of ScenarioSpec (and of its network config) is assigned, so a
// workload never inherits a library default.
ScenarioSpec base_spec(std::size_t stations, double region_m, MacKind mac) {
  ScenarioSpec s;
  s.stations = stations;
  s.region_m = region_m;
  s.mac = mac;

  s.net = drn::runner::multihop_config();
  s.net.schedule_seed = 0x5ced5ced;
  s.net.slot_s = 0.01;
  s.net.receive_fraction = 0.3;
  s.net.packet_fraction = 0.25;
  s.net.guard_fraction = 0.02;
  s.net.max_clock_offset_s = 1.0e6;
  s.net.max_drift_ppm = 20.0;
  s.net.exact_clock_models = false;
  s.net.rendezvous_count = 4;
  s.net.rendezvous_span_s = 120.0;
  s.net.rendezvous_noise_s = 1.0e-6;
  s.net.target_received_w = 1.0e-9;
  s.net.max_power_w = 1.6e-4;
  s.net.min_neighbor_gain = 0.0;
  s.net.respect_third_party_windows = true;
  s.net.significance_fraction = 0.25;
  s.net.max_queue = 4096;
  s.net.beacon_interval_s = 0.0;
  s.net.beacon_bits = 500.0;
  s.net.neighbor_timeout_s = 0.0;
  s.net.readopt_neighbors = false;

  s.bandwidth_hz = 200.0e6;
  s.data_rate_bps = 1.0e6;
  s.margin_db = 5.0;
  s.baseline_power_w = 1.0e-4;
  s.baseline_max_retries = 6;
  s.baseline_backoff_mean_s = 0.01;
  s.csma_sense_threshold_w = 2.5e-9;
  s.audit = false;
  s.engine = drn::radio::InterferenceEngineKind::kCompensated;
  s.engine_cutoff_m = 0.0;
  s.engine_cell_m = 0.0;
  s.dynamics = drn::dynamics::DynamicsConfig{};
  return s;
}

// Offered load is given per station so the smoke shapes keep it.
void set_traffic(ScenarioSpec& s, double pps_per_station, double duration_s,
                 double drain_s) {
  s.rate_pps = pps_per_station * static_cast<double>(s.stations);
  s.duration_s = duration_s;
  s.drain_s = drain_s;
}

Workload scheme_mesh() {
  Workload w{"scheme_mesh", base_spec(1024, 2828.0, MacKind::kScheme)};
  set_traffic(w.spec, 0.5, 20.0, 20.0);
  return w;
}

Workload aloha_contention() {
  Workload w{"aloha_contention", base_spec(1024, 2828.0, MacKind::kAloha)};
  set_traffic(w.spec, 1.0, 12.0, 20.0);
  return w;
}

Workload metro_setup() {
  Workload w{"metro_setup", base_spec(4096, 5657.0, MacKind::kScheme)};
  set_traffic(w.spec, 0.5, 0.5, 10.0);
  w.spec.engine = drn::radio::InterferenceEngineKind::kNearFar;
  // 2x the power-budget reach (sqrt(max_power / target) = 400 m), and the
  // engine's own cell default written out.
  w.spec.engine_cutoff_m = 800.0;
  w.spec.engine_cell_m = 200.0;
  return w;
}

}  // namespace

std::vector<std::string_view> workload_names() {
  return {"scheme_mesh", "aloha_contention", "metro_setup"};
}

std::optional<Workload> find_workload(std::string_view name) {
  if (name == "scheme_mesh") return scheme_mesh();
  if (name == "aloha_contention") return aloha_contention();
  if (name == "metro_setup") return metro_setup();
  return std::nullopt;
}

Workload smoke_workload(const Workload& full) {
  Workload w = full;
  const double per_station =
      full.spec.rate_pps / static_cast<double>(full.spec.stations);
  w.spec.stations = full.spec.stations / 8;
  w.spec.region_m = radius_for(w.spec.stations);
  set_traffic(w.spec, per_station, 4.0, 10.0);
  return w;
}

}  // namespace perfbench
