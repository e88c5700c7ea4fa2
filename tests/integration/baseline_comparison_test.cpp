// The comparison the paper's Section 2 sets up: prior-work random-access
// MACs under the SAME physical model, topology and workload as the scheduled
// scheme. The qualitative shape to reproduce: the scheme loses nothing to
// collisions while ALOHA/CSMA shed packets (Type 1/2/3) as load grows —
// despite the baselines enjoying free genie acknowledgements.
#include <gtest/gtest.h>

#include "helpers/scenario.hpp"

namespace drn::testing {
namespace {

/// 30 stations in a 900 m disc under an aggressive 400 pkt/s for 2 s, running
/// `mac`. One seed gives every MAC the same placement, routes and traffic.
ScenarioSpec comparison_spec(MacKind mac) {
  auto spec = audited_spec(30, 900.0, 400.0, 2.0);
  spec.net.exact_clock_models = true;
  spec.mac = mac;
  spec.baseline_power_w = 1.0e-4;  // comparable radiated power
  return spec;
}

TEST(BaselineComparison, SchemeBeatsRandomAccessUnderLoad) {
  const std::uint64_t seed = 101;
  Trial scheme_trial(comparison_spec(MacKind::kScheme), seed);
  const auto& scheme = run_audited(scheme_trial);

  auto aloha_spec = comparison_spec(MacKind::kAloha);
  aloha_spec.baseline_max_retries = 6;
  aloha_spec.baseline_backoff_mean_s = 0.01;
  Trial aloha_trial(aloha_spec, seed);
  const auto& aloha = run_audited(aloha_trial);

  // The scheme: zero collision losses. ALOHA: real collision losses.
  EXPECT_EQ(scheme.total_hop_losses(), 0u);
  EXPECT_GT(aloha.total_hop_losses(), 0u);
  EXPECT_GE(scheme.delivery_ratio(), aloha.delivery_ratio());
  // The scheme spends exactly one transmission per hop; ALOHA burns extra
  // attempts on retries of collided packets.
  EXPECT_EQ(scheme.hop_attempts(), scheme.hop_successes());
  EXPECT_GT(aloha.hop_attempts(), scheme.hop_attempts());
}

TEST(BaselineComparison, CsmaSuffersHiddenTerminalsTheSchemeDoesNot) {
  const std::uint64_t seed = 103;
  Trial scheme_trial(comparison_spec(MacKind::kScheme), seed);
  const auto& scheme = run_audited(scheme_trial);

  auto csma_spec = comparison_spec(MacKind::kCsma);
  csma_spec.baseline_max_retries = 6;
  csma_spec.baseline_backoff_mean_s = 0.005;
  // Sense threshold ~ the power a 200 m neighbour delivers.
  csma_spec.csma_sense_threshold_w = 2.5e-9;
  Trial csma_trial(csma_spec, seed);
  const auto& csma = run_audited(csma_trial);

  EXPECT_EQ(scheme.total_hop_losses(), 0u);
  EXPECT_GT(csma.total_hop_losses(), 0u);
  EXPECT_GE(scheme.delivery_ratio(), csma.delivery_ratio());
}

TEST(BaselineComparison, SlottedAlohaStillCollides) {
  auto spec = comparison_spec(MacKind::kSlottedAloha);  // slot_s / 4 = 2.5 ms
  spec.baseline_max_retries = 4;
  spec.baseline_backoff_mean_s = 0.02;
  Trial trial(spec, 105);
  const auto& slotted = run_audited(trial);
  EXPECT_GT(slotted.total_hop_losses(), 0u);
  EXPECT_LT(slotted.delivery_ratio(), 1.0);
}

}  // namespace
}  // namespace drn::testing
