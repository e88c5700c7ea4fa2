// One benchmark trial: a workload composed from the library's public calls,
// mirroring runner::run_trial for a spec without dynamics. The timed trial
// measures what a sweep user waits for; the traced trial calls each setup
// stage on its own and runs the event loop through the trace decorators.
#pragma once

#include <cstdint>
#include <string>

#include "runner/scenario.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// FNV-1a over the simulated statistics: offered, delivered, hop attempts
/// and successes, Type 1/2/3 losses, MAC drops, mean delay and mean hops.
/// Event-core counters are left out so the event core may change freely.
[[nodiscard]] std::uint64_t fingerprint(const drn::runner::TrialResult& r);

/// The simulated statistics the fingerprint covers, as one line of text.
[[nodiscard]] std::string describe(const drn::runner::TrialResult& r);

/// Empty when `r` satisfies the workload's output checks, else the reason:
/// the packet ledger leaves a non-negative in-flight remainder, and a
/// scheme workload sees no Type 1/2/3 loss (the collision-free claim).
[[nodiscard]] std::string check_outputs(const Workload& w,
                                        const drn::runner::TrialResult& r);

struct TimedTrial {
  drn::runner::TrialResult result;
  /// runner::make_scenario up to the last Simulator::inject.
  double setup_s = 0.0;
  /// Simulator::run_until.
  double loop_s = 0.0;
  /// Setup, loop, summary and teardown: everything but traffic generation.
  double trial_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t peak_queue_bytes = 0;
  std::uint64_t compactions = 0;
  /// Share of stations that are the destination of some generated packet.
  double dst_share = 0.0;
  /// Invariant-audit outcome (only when run with audit = true).
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
};

struct TracedTrial {
  drn::runner::TrialResult result;
  double setup_s = 0.0;
  double loop_s = 0.0;
  double trial_s = 0.0;
  // Setup stages, each timed on its own.
  double placement_s = 0.0;
  double gains_s = 0.0;
  double build_s = 0.0;
  double graph_s = 0.0;
  double tables_s = 0.0;
  double engine_build_s = 0.0;
  double router_copy_s = 0.0;
  std::uint64_t graph_edges = 0;
  double neighbors_per_station = 0.0;
  std::uint64_t events = 0;
  std::uint64_t compactions = 0;
  Tracer tracer;
};

/// Runs `w` at `seed` with tracing off. With `audit`, an
/// audit::InvariantAuditor rides along through Simulator::add_observer.
[[nodiscard]] TimedTrial run_timed(const Workload& w, std::uint64_t seed,
                                   bool audit = false);

/// Runs `w` at `seed` with every layer seam wrapped in a trace decorator.
void run_traced(const Workload& w, std::uint64_t seed, TracedTrial& out);

}  // namespace perfbench
