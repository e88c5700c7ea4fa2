#include "runner/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "common/expects.hpp"
#include "baselines/aloha.hpp"
#include "baselines/csma.hpp"
#include "baselines/maca.hpp"
#include "baselines/slotted_aloha.hpp"
#include "radio/propagation.hpp"
#include "sim/traffic.hpp"

namespace drn::runner {

std::optional<MacKind> parse_mac(std::string_view name) {
  if (name == "scheme") return MacKind::kScheme;
  if (name == "aloha") return MacKind::kAloha;
  if (name == "slotted") return MacKind::kSlottedAloha;
  if (name == "csma") return MacKind::kCsma;
  if (name == "maca") return MacKind::kMaca;
  return std::nullopt;
}

std::string_view mac_name(MacKind mac) {
  switch (mac) {
    case MacKind::kScheme: return "scheme";
    case MacKind::kAloha: return "aloha";
    case MacKind::kSlottedAloha: return "slotted";
    case MacKind::kCsma: return "csma";
    case MacKind::kMaca: return "maca";
  }
  return "?";
}

radio::ReceptionCriterion scheme_criterion() {
  return radio::ReceptionCriterion(radio::Hertz{200.0e6},
                                   radio::BitsPerSecond{1.0e6},
                                   radio::Decibels{5.0});
}

core::ScheduledNetworkConfig multihop_config() {
  core::ScheduledNetworkConfig cfg;
  cfg.target_received_w = 1.0e-9;
  cfg.max_power_w = 1.6e-4;
  cfg.exact_clock_models = false;
  cfg.max_drift_ppm = 20.0;
  cfg.rendezvous_noise_s = 1.0e-6;
  return cfg;
}

double ScenarioSpec::nearfar_cutoff_m() const {
  if (engine_cutoff_m > 0.0) return engine_cutoff_m;
  // Twice the free-space reach of the power budget, so only interferers well
  // beyond any usable link are aggregated.
  return 2.0 / std::sqrt(net.target_received_w / net.max_power_w);
}

namespace {

std::shared_ptr<const radio::PropagationModel> propagation_model(
    const ScenarioSpec& spec, std::uint64_t seed) {
  std::shared_ptr<const radio::PropagationModel> model;
  if (spec.dual_slope) {
    model = std::make_shared<radio::DualSlopePropagation>(
        radio::Meters{spec.breakpoint_m});
  } else {
    model = std::make_shared<radio::FreeSpacePropagation>();
  }
  if (spec.shadowing_db > 0.0) {
    model = std::make_shared<radio::LogNormalShadowing>(
        model, radio::Decibels{spec.shadowing_db}, seed ^ 0x5AD0ull);
  }
  return model;
}

/// The trial's simulator over `placement` (the scenario's stations plus any
/// jammers appended after them).
std::unique_ptr<sim::Simulator> make_simulator(
    const ScenarioSpec& spec, std::uint64_t seed, const Scenario& scenario,
    const geo::Placement& placement,
    std::shared_ptr<const radio::PropagationModel> model) {
  sim::SimulatorConfig sim_cfg{spec.criterion()};
  sim_cfg.seed = seed;
  sim_cfg.engine = spec.engine;
  if (spec.engine == radio::InterferenceEngineKind::kNearFar) {
    radio::NearFarConfig nf;
    nf.cutoff = radio::Meters{spec.nearfar_cutoff_m()};
    nf.cell = radio::Meters{spec.engine_cell_m};
    return std::make_unique<sim::Simulator>(
        radio::make_nearfar_engine(placement, std::move(model), nf), sim_cfg);
  }
  if (placement.size() > scenario.gains.size())
    return std::make_unique<sim::Simulator>(
        radio::make_dense_gains(scenario.gains, placement, *model), sim_cfg);
  return std::make_unique<sim::Simulator>(scenario.gains, sim_cfg);
}

/// Poisson uniform-pair traffic over the scenario's stations.
void inject_poisson(sim::Simulator& sim, const Scenario& scenario,
                    double packets_per_s, double duration_s, Rng rng) {
  for (const auto& inj : sim::poisson_traffic(
           packets_per_s, duration_s, scenario.net.packet_bits,
           sim::uniform_pairs(scenario.gains.size()), rng))
    sim.inject(inj.time_s, inj.packet);
}

}  // namespace

Scenario make_scenario(std::size_t stations, double region_m,
                       std::uint64_t seed,
                       core::ScheduledNetworkConfig net_cfg,
                       const radio::PropagationModel& model) {
  Rng rng(seed);
  auto placement = geo::uniform_disc(stations, region_m, rng);
  auto gains = radio::make_dense_gains(placement, model);
  Rng build_rng = rng.split(1);
  auto net =
      core::build_scheduled_network(gains, scheme_criterion(), net_cfg, build_rng);
  const auto graph = routing::Graph::min_energy(
      gains, net_cfg.target_received_w / net_cfg.max_power_w);
  auto tables = routing::RoutingTables::build(graph);
  return Scenario{std::move(placement), std::move(gains), std::move(net),
                  std::move(tables)};
}

TrialResult summarize(const sim::Metrics& m, double total_duration_s) {
  TrialResult r;
  r.offered = m.offered();
  r.delivered = m.delivered();
  r.hop_attempts = m.hop_attempts();
  r.hop_successes = m.hop_successes();
  r.type1_losses = m.losses(sim::LossType::kType1);
  r.type2_losses = m.losses(sim::LossType::kType2);
  r.type3_losses = m.losses(sim::LossType::kType3);
  r.mac_drops = m.mac_drops();
  r.delivery_ratio = m.delivery_ratio();
  r.mean_delay_s = m.delivered() > 0 ? m.delay().mean() : 0.0;
  r.mean_hops = m.delivered() > 0 ? m.hops().mean() : 0.0;
  r.tx_per_hop = m.hop_successes() > 0
                     ? static_cast<double>(m.hop_attempts()) /
                           static_cast<double>(m.hop_successes())
                     : 0.0;
  r.mean_duty = m.mean_duty_cycle(total_duration_s);
  r.aborted_losses = m.losses(sim::LossType::kAborted);
  r.station_leaves = m.station_leaves();
  r.station_joins = m.station_joins();
  r.churn_drops = m.churn_drops();
  r.noise_bursts = m.noise_bursts();
  r.recoveries = m.recovery_s().count();
  r.mean_recovery_s = m.recovery_s().count() > 0 ? m.recovery_s().mean() : 0.0;
  return r;
}

std::unique_ptr<sim::MacProtocol> make_baseline_mac(const ScenarioSpec& spec) {
  switch (spec.mac) {
    case MacKind::kScheme:
      break;  // scheme MACs come from the network builder, not here
    case MacKind::kAloha:
    case MacKind::kSlottedAloha:
    case MacKind::kCsma: {
      baselines::ContentionConfig cc;
      cc.power_w = spec.baseline_power_w;
      cc.max_retries = spec.baseline_max_retries;
      cc.backoff_mean_s = spec.baseline_backoff_mean_s;
      if (spec.mac == MacKind::kAloha)
        return std::make_unique<baselines::PureAloha>(cc);
      if (spec.mac == MacKind::kSlottedAloha)
        return std::make_unique<baselines::SlottedAloha>(
            cc, spec.net.slot_s / 4.0);
      return std::make_unique<baselines::CsmaMac>(
          cc, spec.csma_sense_threshold_w);
    }
    case MacKind::kMaca: {
      baselines::MacaConfig mc;
      mc.power_w = spec.baseline_power_w;
      mc.max_retries = spec.baseline_max_retries;
      mc.backoff_mean_s = spec.baseline_backoff_mean_s;
      mc.data_rate_bps = spec.data_rate_bps;
      return std::make_unique<baselines::MacaMac>(mc);
    }
  }
  DRN_EXPECTS(false);  // make_baseline_mac(kScheme)
  return nullptr;
}

void install_macs(sim::Simulator& sim, Scenario& scenario,
                  const ScenarioSpec& spec) {
  const auto stations = scenario.gains.size();
  if (spec.mac == MacKind::kScheme) {
    for (StationId s = 0; s < stations; ++s)
      sim.set_mac(s, std::move(scenario.net.macs[s]));
    return;
  }
  for (StationId s = 0; s < stations; ++s)
    sim.set_mac(s, make_baseline_mac(spec));
}

Trial::Trial(const ScenarioSpec& spec, std::uint64_t seed)
    : spec_(spec),
      model_(propagation_model(spec, seed)),
      scenario_(make_scenario(spec.stations, spec.region_m, seed, spec.net,
                              *model_)) {
  const dynamics::DynamicsConfig& dyn = spec.dynamics;
  // Jammer stations are appended after the real network: they get gains and
  // despreading channels like everyone else, but no traffic, no routes, and
  // the dynamics engine leaves them alone.
  geo::Placement placement = scenario_.placement;
  if (dyn.jammer.count > 0) {
    Rng jammer_rng = Rng(seed).split(4);
    placement = dynamics::with_jammers(placement, dyn.jammer.count,
                                       spec.region_m, jammer_rng);
  }
  sim_ = make_simulator(spec, seed, scenario_, placement, model_);
  sim::Simulator& sim = *sim_;
  if (dyn.mobility_enabled()) sim.enable_mobility(placement, model_);
  if (spec.audit) {
    auditor_ = std::make_unique<audit::InvariantAuditor>(sim);
    sim.add_observer(auditor_.get());
  }
  // Churn rejoin factory, built from a pre-run snapshot: a scheme station
  // warm-reboots with its flash-stored config and neighbour table (clock
  // models go stale while it is down; beacons re-fit them), a baseline
  // station reboots stateless.
  dynamics::MacFactory rejoin;
  if (dyn.churn_enabled()) {
    if (spec.mac == MacKind::kScheme) {
      std::vector<core::ScheduledStationConfig> cfgs;
      std::vector<core::NeighborTable> tables;
      cfgs.reserve(scenario_.net.macs.size());
      tables.reserve(scenario_.net.macs.size());
      for (const auto& mac : scenario_.net.macs) {
        cfgs.push_back(mac->config());
        tables.push_back(mac->neighbors());
      }
      rejoin = [cfgs = std::move(cfgs),
                tables = std::move(tables)](StationId s) {
        return std::make_unique<core::ScheduledStation>(cfgs[s], tables[s]);
      };
    } else {
      rejoin = [spec](StationId) { return make_baseline_mac(spec); };
    }
  }
  install_macs(sim, scenario_, spec);
  if (dyn.jammer.count > 0)
    dynamics::install_jammers(sim, spec.stations, dyn.jammer);
  sim.set_router(scenario_.tables.router());
  inject_poisson(sim, scenario_, spec.rate_pps, spec.duration_s,
                 Rng(seed).split(2));
  if (dyn.enabled()) {
    dynamics::DynamicsConfig dc = dyn;
    if (dc.mobility_enabled() && dc.mobility_region_m <= 0.0)
      dc.mobility_region_m = spec.region_m;
    dynamics_.emplace(dc, sim, std::move(placement), spec.stations,
                      std::move(rejoin), Rng(seed).split(3));
  }
}

Trial::~Trial() = default;

TrialResult Trial::run() {
  const double total = spec_.duration_s + spec_.drain_s;
  if (dynamics_) {
    dynamics_->run(total);
  } else {
    sim_->run_until(total);
  }
  TrialResult result = summarize(sim_->metrics(), total);
  const auto qs = sim_->queue_stats();
  result.events_processed = qs.events_processed;
  result.peak_queue_bytes = qs.peak_bytes;
  if (dynamics_) {
    std::vector<double> samples = dynamics_->recovery_samples();
    std::sort(samples.begin(), samples.end());
    result.median_recovery_s =
        samples.empty() ? 0.0 : samples[samples.size() / 2];
  }
  if (auditor_) {
    auditor_->finalize(total);
    auditor_->cross_check(sim_->metrics());
    result.audit_checks = auditor_->checks_run();
    result.audit_violations = auditor_->violation_count();
  }
  return result;
}

TrialResult run_trial(const ScenarioSpec& spec, std::uint64_t seed) {
  return Trial(spec, seed).run();
}

}  // namespace drn::runner
