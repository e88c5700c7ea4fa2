// Declarative scenario assembly + single-trial execution: Trial(spec, seed)
// is the one scenario pipeline behind drn_sim, drn_sweep, the bench binaries
// and the end-to-end tests. Its building blocks (make_scenario, install_macs,
// make_baseline_mac, summarize) stay public for the few callers that need
// what a spec cannot express — rewritten MACs, SimulatorConfig knobs, timed
// set-up phases — and wire a simulator by hand.
//
// A trial is a pure function of (ScenarioSpec, seed): it builds a fresh
// placement, propagation matrix, network and simulator, runs Poisson traffic
// and returns plain-scalar results. No state is shared between trials, which
// is what lets the sweep runner execute them on any thread in any order and
// still produce bit-identical output.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "core/network_builder.hpp"
#include "dynamics/dynamics.hpp"
#include "geo/placement.hpp"
#include "radio/interference_engine.hpp"
#include "radio/propagation.hpp"
#include "radio/propagation_matrix.hpp"
#include "radio/reception.hpp"
#include "routing/dijkstra.hpp"
#include "routing/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace drn::audit {
class InvariantAuditor;
}  // namespace drn::audit

namespace drn::runner {

/// The channel-access schemes a trial can install: the paper's scheduled
/// scheme or one of the Section 2 prior-work baselines.
enum class MacKind : std::uint8_t {
  kScheme,
  kAloha,
  kSlottedAloha,
  kCsma,
  kMaca,
};

/// CLI name <-> enum. parse_mac returns nullopt for unknown names.
[[nodiscard]] std::optional<MacKind> parse_mac(std::string_view name);
[[nodiscard]] std::string_view mac_name(MacKind mac);

/// 1 Mb/s design rate over 200 MHz spread (23 dB processing gain), 5 dB
/// detection margin — the Section 6 design point.
[[nodiscard]] radio::ReceptionCriterion scheme_criterion();

/// Multihop-flavoured network defaults: reach ~400 m from a 1 nW delivered
/// power target.
[[nodiscard]] core::ScheduledNetworkConfig multihop_config();

/// A fully assembled network: placement, physics, scheduled-network state
/// and min-energy routing tables.
struct Scenario {
  geo::Placement placement;
  radio::PropagationMatrix gains;
  core::ScheduledNetwork net;
  routing::RoutingTables tables;
};

/// Uniform-disc placement, gains under `model`, the scheduled network and
/// its min-energy routes; deterministic in `seed`.
[[nodiscard]] Scenario make_scenario(
    std::size_t stations, double region_m, std::uint64_t seed,
    core::ScheduledNetworkConfig net_cfg,
    const radio::PropagationModel& model = radio::FreeSpacePropagation{});

/// Everything that defines one experiment point, MAC and workload included.
struct ScenarioSpec {
  std::size_t stations = 40;
  double region_m = 1000.0;
  MacKind mac = MacKind::kScheme;
  /// Aggregate Poisson offer and window.
  double rate_pps = 200.0;
  double duration_s = 2.0;
  double drain_s = 60.0;
  core::ScheduledNetworkConfig net = multihop_config();
  /// Radio design point (criterion() assembles these).
  double bandwidth_hz = 200.0e6;
  double data_rate_bps = 1.0e6;
  double margin_db = 5.0;
  /// Baseline-MAC knobs (the Section 8 comparison defaults).
  double baseline_power_w = 1.0e-4;
  int baseline_max_retries = 6;
  double baseline_backoff_mean_s = 0.01;
  double csma_sense_threshold_w = 2.5e-9;
  /// Ride an audit::InvariantAuditor along on the trial's simulator and
  /// report its verdict in the result (audit_checks / audit_violations).
  bool audit = false;
  /// Interference accounting engine for the trial's simulator.
  radio::InterferenceEngineKind engine =
      radio::InterferenceEngineKind::kCompensated;
  /// Near/far engine knobs (engine == kNearFar only): cutoff radius inside
  /// which interferers are summed exactly (<= 0 = twice the free-space reach
  /// of the power budget, 2 * sqrt(net.max_power_w / net.target_received_w))
  /// and grid cell side (<= 0 = cutoff / 4).
  double engine_cutoff_m = 0.0;
  double engine_cell_m = 0.0;
  /// Propagation: free space unless dual_slope (two-ray, steepening past
  /// breakpoint_m); shadowing_db > 0 adds log-normal shadowing of that sigma,
  /// seeded from the trial seed. Gains, engine, jammers and mobility all use
  /// this one model.
  bool dual_slope = false;
  double breakpoint_m = 100.0;
  double shadowing_db = 0.0;
  /// Network dynamics & fault injection (src/dynamics/). All off by default:
  /// a spec with dynamics disabled takes exactly the static trial code path,
  /// draw for draw. When churn or drift is on and the MAC is the scheme, set
  /// net.beacon_interval_s (+ neighbor_timeout_s / readopt_neighbors) so the
  /// stations can actually re-converge; jammer stations are appended after
  /// the real network and excluded from traffic, routing and churn. When
  /// mobility is on and mobility_region_m is 0, the trial fills it from
  /// region_m.
  dynamics::DynamicsConfig dynamics;

  [[nodiscard]] radio::ReceptionCriterion criterion() const {
    return radio::ReceptionCriterion(radio::Hertz{bandwidth_hz},
                                     radio::BitsPerSecond{data_rate_bps},
                                     radio::Decibels{margin_db});
  }

  /// The near/far engine's cutoff radius: engine_cutoff_m, or its default
  /// when that is <= 0.
  [[nodiscard]] double nearfar_cutoff_m() const;
};

/// Plain-scalar summary of one simulation run — everything the paper's
/// Section 8 table reports, cheap to copy across threads.
struct TrialResult {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hop_attempts = 0;
  std::uint64_t hop_successes = 0;
  std::uint64_t type1_losses = 0;
  std::uint64_t type2_losses = 0;
  std::uint64_t type3_losses = 0;
  std::uint64_t mac_drops = 0;
  double delivery_ratio = 0.0;
  double mean_delay_s = 0.0;  // 0 when nothing delivered
  double mean_hops = 0.0;     // 0 when nothing delivered
  double tx_per_hop = 0.0;    // attempts / successes; 1.0 = no waste
  double mean_duty = 0.0;     // mean transmit duty cycle
  /// Invariant-audit verdict; both stay 0 unless ScenarioSpec::audit is set.
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  /// Dynamics outcome; all zero unless ScenarioSpec::dynamics is enabled.
  std::uint64_t aborted_losses = 0;
  std::uint64_t station_leaves = 0;
  std::uint64_t station_joins = 0;
  std::uint64_t churn_drops = 0;
  std::uint64_t noise_bursts = 0;
  /// Re-convergence after rejoins (seconds to the first delivered unicast
  /// hop involving the returnee); 0 when none was measured.
  std::uint64_t recoveries = 0;
  double mean_recovery_s = 0.0;
  double median_recovery_s = 0.0;
  /// Event-core cost of the trial (Simulator::queue_stats). Perf telemetry
  /// for the bench binaries; deliberately NOT serialized into drn-sweep-v3
  /// documents, whose bytes must not depend on queue internals.
  std::uint64_t events_processed = 0;
  std::uint64_t peak_queue_bytes = 0;
};

/// Extracts a TrialResult from a finished simulator's metrics.
[[nodiscard]] TrialResult summarize(const sim::Metrics& m,
                                    double total_duration_s);

/// Installs the spec's MAC at every station of `scenario` into `sim`.
/// Consumes scenario.net.macs for MacKind::kScheme.
void install_macs(sim::Simulator& sim, Scenario& scenario,
                  const ScenarioSpec& spec);

/// A fresh instance of the spec's baseline MAC (spec.mac != kScheme) — what
/// install_macs gives every station, and what a churned baseline station
/// reboots with.
[[nodiscard]] std::unique_ptr<sim::MacProtocol> make_baseline_mac(
    const ScenarioSpec& spec);

/// One trial, assembled and ready to run. The constructor builds everything
/// from (spec, seed): placement, gains, scheduled network, routing tables,
/// simulator, MACs, router, jammers, Poisson traffic and, when the spec
/// enables any, the dynamics engine. Callers attach observers (traces,
/// auditors) through simulator() before run(); observers are passive, so
/// attaching them leaves the result unchanged.
class Trial {
 public:
  Trial(const ScenarioSpec& spec, std::uint64_t seed);
  ~Trial();  // out of line: audit::InvariantAuditor is incomplete here

  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

  /// Runs for duration + drain and summarises (audit and recovery fields
  /// included). Call once.
  [[nodiscard]] TrialResult run();

 private:
  ScenarioSpec spec_;
  std::shared_ptr<const radio::PropagationModel> model_;
  Scenario scenario_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<audit::InvariantAuditor> auditor_;
  std::optional<dynamics::DynamicsEngine> dynamics_;
};

/// Trial(spec, seed).run(): the whole trial is deterministic in its two
/// arguments.
[[nodiscard]] TrialResult run_trial(const ScenarioSpec& spec,
                                    std::uint64_t seed);

}  // namespace drn::runner
