// End-to-end scenarios for the integration tests: the runner's Trial
// (placement -> propagation matrix -> scheduled network -> min-energy
// routing -> MACs -> Poisson traffic), audited through ScenarioSpec::audit,
// plus a scoped auditor for the tests that wire a simulator by hand.
#pragma once

#include <gtest/gtest.h>

#include "audit/invariant_auditor.hpp"
#include "radio/propagation.hpp"  // transitive deps the tests rely on
#include "runner/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace drn::testing {

using runner::MacKind;
using runner::Scenario;
using runner::ScenarioSpec;
using runner::Trial;
using runner::make_scenario;
using runner::multihop_config;
using runner::scheme_criterion;

/// An audited scheme trial's spec: `stations` in a `region_m` disc offered
/// `rate_pps` of Poisson traffic for `duration_s`, then the default drain.
inline ScenarioSpec audited_spec(std::size_t stations, double region_m,
                                 double rate_pps, double duration_s) {
  ScenarioSpec spec;
  spec.stations = stations;
  spec.region_m = region_m;
  spec.rate_pps = rate_pps;
  spec.duration_s = duration_s;
  spec.audit = true;
  return spec;
}

/// Runs `trial`, asserts that its auditor (ScenarioSpec::audit) checked
/// something and found nothing, and returns the simulator's metrics.
inline const sim::Metrics& run_audited(Trial& trial) {
  const runner::TrialResult r = trial.run();
  EXPECT_GT(r.audit_checks, 0u);
  EXPECT_EQ(r.audit_violations, 0u);
  return trial.simulator().metrics();
}

/// Rides an InvariantAuditor along on `sim` for the scope's lifetime and
/// asserts a clean verdict (including the metrics cross-check) on
/// destruction. Declare one right after constructing a Simulator by hand;
/// every integration test runs fully audited, this way or through
/// ScenarioSpec::audit.
class ScopedAudit {
 public:
  explicit ScopedAudit(sim::Simulator& sim) : auditor_(sim), sim_(&sim) {
    sim.add_observer(&auditor_);
  }
  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;
  ~ScopedAudit() {
    auditor_.finalize(sim_->now());
    auditor_.cross_check(sim_->metrics());
    EXPECT_TRUE(auditor_.ok()) << auditor_.report();
    EXPECT_GT(auditor_.checks_run(), 0u);
  }

  [[nodiscard]] audit::InvariantAuditor& auditor() { return auditor_; }

 private:
  audit::InvariantAuditor auditor_;
  sim::Simulator* sim_;
};

}  // namespace drn::testing
