// End-to-end scenario assembly for the integration tests: the runner's
// (placement -> propagation matrix -> scheduled network -> min-energy
// routing, then Poisson traffic over the scheme), plus a scoped auditor.
#pragma once

#include <gtest/gtest.h>

#include "audit/invariant_auditor.hpp"
#include "radio/propagation.hpp"  // transitive deps the tests rely on
#include "runner/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace drn::testing {

using runner::Scenario;
using runner::make_scenario;
using runner::multihop_config;
using runner::run_scheme;
using runner::scheme_criterion;

/// Rides an InvariantAuditor along on `sim` for the scope's lifetime and
/// asserts a clean verdict (including the metrics cross-check) on
/// destruction. Declare one right after constructing a Simulator; every
/// integration test runs fully audited this way.
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
