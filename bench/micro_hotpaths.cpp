// Engineering microbenchmarks (google-benchmark) for the hot paths: the
// schedule hash, window search, SINR event processing, event queue churn,
// and routing-table construction.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/access.hpp"
#include "runner/scenario.hpp"
#include "sim/event_queue.hpp"

namespace {

using drn::StationId;
namespace core = drn::core;
namespace sim = drn::sim;

void BM_ScheduleLookup(benchmark::State& state) {
  const core::Schedule s(1, 0.01, 0.3);
  std::int64_t slot = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.is_receive_slot(slot++));
  }
}
BENCHMARK(BM_ScheduleLookup);

void BM_WindowSearch(benchmark::State& state) {
  const core::Schedule s(2, 0.01, 0.3);
  const core::ClockModel other(123.456, 1.0000123);
  std::vector<core::WindowConstraint> cs = {
      {&s, core::ClockModel(), false, core::Seconds{0.0}},
      {&s, other, true, core::Seconds{0.0002}},
  };
  double earliest = 0.0;
  for (auto _ : state) {
    core::AccessRequest req;
    req.earliest_local = core::Seconds{earliest};
    req.duration = core::Seconds{0.0025};
    req.horizon = core::Seconds{1000.0};
    const auto start = find_transmission_start(req, cs);
    benchmark::DoNotOptimize(start);
    earliest = start->value() + 0.0025;
  }
}
BENCHMARK(BM_WindowSearch);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue q;
  drn::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 1.0;
  for (auto _ : state) {
    sim::Event e = q.pop();  // drn-lint: allow(raw-event-copy)
    benchmark::DoNotOptimize(e);
    e.time_s = t += 1e-4;
    q.push(e);
  }
}
BENCHMARK(BM_EventQueueChurn);

// -- event-core section: the indexed 4-ary heap's primitive operations ------

void BM_EventQueuePushPop(benchmark::State& state) {
  // Steady-state push+pop at a given standing queue depth: the per-event
  // cost run_until pays when no cancellation happens.
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  drn::Rng rng(5);
  for (std::size_t i = 0; i < depth; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 1.0;
  for (auto _ : state) {
    sim::Event e = q.pop();  // drn-lint: allow(raw-event-copy)
    e.time_s = t += 1e-4;
    benchmark::DoNotOptimize(q.push(e));
  }
  state.SetLabel("depth=" + std::to_string(depth));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_EventQueueCancel(benchmark::State& state) {
  // The cancel-heavy pattern the scheme's replan produces: arm a timer,
  // supersede it, arm another. Every cancelled entry is a tombstone the
  // compactor must absorb; this measures push+cancel+push+pop amortized
  // over compaction.
  sim::EventQueue q;
  drn::Rng rng(6);
  for (int i = 0; i < 1024; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = 1.0 + rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 2.0;
  for (auto _ : state) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.kind = sim::EventKind::kTimer;
    e.time_s = t += 1e-4;
    const sim::EventHandle doomed = q.push(e);
    benchmark::DoNotOptimize(q.cancel(doomed));
    e.time_s += 1e-5;
    q.push(e);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_EventQueuePopIfBefore(benchmark::State& state) {
  // run_until's actual primitive: the horizon test and the pop fused into
  // one heap-top read.
  sim::EventQueue q;
  drn::Rng rng(8);
  for (int i = 0; i < 4096; ++i) {
    sim::Event e;  // drn-lint: allow(raw-event-copy)
    e.time_s = rng.uniform();
    e.kind = sim::EventKind::kTimer;
    q.push(e);
  }
  double t = 1.0;
  for (auto _ : state) {
    auto e = q.pop_if_before(1e9);
    benchmark::DoNotOptimize(e);
    e->time_s = t += 1e-4;
    q.push(*e);
  }
}
BENCHMARK(BM_EventQueuePopIfBefore);

void BM_SimulatorEvent(benchmark::State& state) {
  // Cost per simulated hop on a mid-size network under load.
  const auto stations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    drn::runner::ScenarioSpec spec;
    spec.stations = stations;
    spec.region_m = 1000.0;
    spec.rate_pps = 300.0;
    spec.duration_s = 1.0;
    spec.drain_s = 30.0;
    spec.net.exact_clock_models = true;
    drn::runner::Trial trial(spec, 42);
    state.ResumeTiming();
    const auto r = trial.run();
    benchmark::DoNotOptimize(r.delivered);
  }
  state.SetLabel("stations=" + std::to_string(stations));
}
BENCHMARK(BM_SimulatorEvent)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_RoutingTablesBuild(benchmark::State& state) {
  const auto stations = static_cast<std::size_t>(state.range(0));
  drn::Rng rng(7);
  const auto placement = drn::geo::uniform_disc(stations, 1000.0, rng);
  const drn::radio::FreeSpacePropagation model;
  const auto gains =
      drn::radio::PropagationMatrix::from_placement(placement, model);
  const auto graph = drn::routing::Graph::min_energy(gains, 6.25e-6);
  for (auto _ : state) {
    auto tables = drn::routing::RoutingTables::build(graph);
    benchmark::DoNotOptimize(tables);
  }
  state.SetLabel("stations=" + std::to_string(stations));
}
BENCHMARK(BM_RoutingTablesBuild)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
