// Equivalence self-tests for the benchmark, at the smoke size of each
// workload shape:
//   * the benchmark's composition of public calls reproduces
//     runner::run_trial(spec, seed) exactly (same fingerprint);
//   * the traced trial reproduces the untraced one, i.e. the decorators are
//     transparent;
//   * an audit::InvariantAuditor attached through add_observer reports no
//     violation, and the outputs pass the benchmark's own checks;
//   * nested spans split total time into self and child time.
// Exit status 0 when every check passes.
#include <cstdint>
#include <cstdio>
#include <string>

#include "trial.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void check_workload(const perfbench::Workload& w, std::uint64_t seed) {
  const std::string tag =
      std::string(w.name) + " (smoke, seed " + std::to_string(seed) + ")";
  const std::uint64_t library =
      perfbench::fingerprint(drn::runner::run_trial(w.spec, seed));

  const perfbench::TimedTrial timed = perfbench::run_timed(w, seed);
  const std::uint64_t fp = perfbench::fingerprint(timed.result);
  expect(fp == library, tag + ": composition == runner::run_trial");
  expect(perfbench::check_outputs(w, timed.result).empty(),
         tag + ": output checks pass");
  expect(timed.result.delivered > 0, tag + ": packets delivered");

  perfbench::TracedTrial traced;
  perfbench::run_traced(w, seed, traced);
  expect(perfbench::fingerprint(traced.result) == fp,
         tag + ": traced == untraced");
  expect(traced.tracer.stats(perfbench::Boundary::kEngine).calls > 0 &&
             traced.tracer.stats(perfbench::Boundary::kMac).calls > 0 &&
             traced.tracer.stats(perfbench::Boundary::kRouter).calls > 0,
         tag + ": every traced seam saw calls");

  const perfbench::TimedTrial audited = perfbench::run_timed(w, seed, true);
  expect(audited.audit_checks > 0 && audited.audit_violations == 0,
         tag + ": auditor reports 0 violations over " +
             std::to_string(audited.audit_checks) + " checks");
  expect(perfbench::fingerprint(audited.result) == fp,
         tag + ": audited == unaudited");
}

void check_span_arithmetic() {
  perfbench::Tracer t;
  t.enter(perfbench::Boundary::kEngine);
  t.enter(perfbench::Boundary::kMediumCb);
  t.enter(perfbench::Boundary::kEngine);
  t.leave();
  t.leave();
  t.leave();
  const auto& engine = t.stats(perfbench::Boundary::kEngine);
  const auto& cb = t.stats(perfbench::Boundary::kMediumCb);
  expect(engine.calls == 2 && cb.calls == 1, "span counts");
  expect(cb.child_ns <= cb.total_ns && engine.child_ns == cb.total_ns,
         "child time is the nested spans' total");
}

}  // namespace

int main() {
  check_span_arithmetic();
  for (const auto name : perfbench::workload_names()) {
    const auto w = perfbench::smoke_workload(*perfbench::find_workload(name));
    for (const std::uint64_t seed : {1U, 2U}) check_workload(w, seed);
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
