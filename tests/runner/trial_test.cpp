#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "dynamics/jammer.hpp"
#include "radio/interference_engine.hpp"
#include "runner/scenario.hpp"

namespace drn::runner {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.stations = 20;
  spec.region_m = 600.0;
  spec.rate_pps = 50.0;
  spec.duration_s = 1.0;
  spec.drain_s = 5.0;
  return spec;
}

void expect_same_outcome(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.hop_attempts, b.hop_attempts);
  EXPECT_EQ(a.type1_losses, b.type1_losses);
  EXPECT_EQ(a.type2_losses, b.type2_losses);
  EXPECT_EQ(a.type3_losses, b.type3_losses);
  EXPECT_EQ(a.mac_drops, b.mac_drops);
  EXPECT_EQ(a.mean_delay_s, b.mean_delay_s);
}

TEST(Trial, ObserversLeaveTheResultUnchanged) {
  ScenarioSpec spec = small_spec();
  spec.mac = MacKind::kAloha;
  Trial trial(spec, 5);
  EXPECT_EQ(trial.auditor(), nullptr);  // spec.audit is off
  audit::InvariantAuditor auditor(trial.simulator());
  trial.simulator().add_observer(&auditor);
  const TrialResult observed = trial.run();
  auditor.finalize(spec.duration_s + spec.drain_s);
  auditor.cross_check(trial.simulator().metrics());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(observed.offered, 0u);
  expect_same_outcome(observed, run_trial(spec, 5));
}

TEST(Trial, MeanDutyIsTakenOverTheOfferWindowNotTheDrain) {
  ScenarioSpec spec = small_spec();
  spec.drain_s = 10.0;
  const TrialResult short_drain = run_trial(spec, 7);
  spec.drain_s = 60.0;
  const TrialResult long_drain = run_trial(spec, 7);
  EXPECT_GT(short_drain.delivered, 0u);
  expect_same_outcome(short_drain, long_drain);
  EXPECT_GT(short_drain.mean_duty, 0.0);
  EXPECT_EQ(short_drain.mean_duty, long_drain.mean_duty);
}

TEST(Trial, NearFarMobilityMovesStationsAndStaysAuditClean) {
  ScenarioSpec spec = small_spec();
  spec.engine = radio::InterferenceEngineKind::kNearFar;
  spec.audit = true;
  spec.dynamics.mobility_speed_mps = 20.0;
  spec.dynamics.mobility_step_s = 0.25;
  Trial trial(spec, 9);
  const radio::InterferenceEngine& engine = trial.simulator().engine();
  const double before = engine.gain(0, 1);
  const TrialResult r = trial.run();
  EXPECT_NE(engine.gain(0, 1), before);  // both stations roamed
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.audit_checks, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  ASSERT_NE(trial.auditor(), nullptr);
  EXPECT_EQ(trial.auditor()->checks_run(), r.audit_checks);
  EXPECT_TRUE(trial.auditor()->ok()) << trial.auditor()->report();
}

TEST(Trial, RadioDesignPointReachesTheScheduledNetwork) {
  // Packets are a quarter slot at the design rate C, so doubling C doubles
  // the packet the scheduled network is built for.
  ScenarioSpec spec = small_spec();
  const double default_bits = Trial(spec, 2).scenario().net.packet_bits;
  spec.data_rate_bps *= 2.0;
  EXPECT_DOUBLE_EQ(Trial(spec, 2).scenario().net.packet_bits,
                   2.0 * default_bits);
}

TEST(Trial, NearFarDefaultCutoffIsTwiceTheFreeSpaceReach) {
  ScenarioSpec spec = small_spec();
  spec.stations = 60;
  spec.region_m = 1500.0;
  spec.mac = MacKind::kAloha;
  spec.rate_pps = 200.0;
  spec.engine = radio::InterferenceEngineKind::kNearFar;
  ScenarioSpec explicit_cutoff = spec;
  // 2 * sqrt(max_power / target) = 2 * sqrt(1.6e-4 / 1e-9) = 800 m.
  explicit_cutoff.engine_cutoff_m = 800.0;
  EXPECT_DOUBLE_EQ(spec.nearfar_cutoff_m(), 800.0);
  EXPECT_EQ(explicit_cutoff.nearfar_cutoff_m(), 800.0);
  expect_same_outcome(run_trial(spec, 3), run_trial(explicit_cutoff, 3));
}

/// Total gain from every other station into station 0.
double gain_into_station0(const ScenarioSpec& spec, std::uint64_t seed) {
  Trial trial(spec, seed);
  const radio::InterferenceEngine& engine = trial.simulator().engine();
  double sum = 0.0;
  for (StationId s = 1; s < spec.stations; ++s) sum += engine.gain(0, s);
  return sum;
}

TEST(Trial, PropagationModelReachesTheGains) {
  ScenarioSpec spec = small_spec();
  const double free_space = gain_into_station0(spec, 4);
  spec.dual_slope = true;
  const double dual_slope = gain_into_station0(spec, 4);
  EXPECT_LT(dual_slope, free_space);  // steeper past the 100 m breakpoint
  spec.shadowing_db = 6.0;
  const double shadowed = gain_into_station0(spec, 4);
  EXPECT_NE(shadowed, dual_slope);
  EXPECT_EQ(gain_into_station0(spec, 4), shadowed);  // seeded by the trial
}

TEST(Trial, JammerRunExtendsTheScenarioMatrixBitForBit) {
  ScenarioSpec spec = small_spec();
  spec.dual_slope = true;
  spec.dynamics.jammer.count = 3;
  const std::uint64_t seed = 6;
  Trial trial(spec, seed);
  // The stations plus the jammers the trial appends (from its jammer stream),
  // built afresh under the trial's propagation model.
  Rng jammer_rng = Rng(seed).split(4);
  const geo::Placement placement = dynamics::with_jammers(
      trial.scenario().placement, spec.dynamics.jammer.count, spec.region_m,
      jammer_rng);
  const radio::PropagationMatrix fresh = radio::make_dense_gains(
      placement, radio::DualSlopePropagation(radio::Meters{spec.breakpoint_m}));
  const radio::InterferenceEngine& engine = trial.simulator().engine();
  const std::size_t n = placement.size();
  ASSERT_EQ(n, spec.stations + spec.dynamics.jammer.count);
  std::vector<double> used(n * n);
  for (StationId rx = 0; rx < n; ++rx)
    for (StationId tx = 0; tx < n; ++tx)
      used[rx * n + tx] = engine.gain(rx, tx);
  EXPECT_EQ(
      std::memcmp(used.data(), fresh.row(0), used.size() * sizeof(double)), 0);
}

}  // namespace
}  // namespace drn::runner
