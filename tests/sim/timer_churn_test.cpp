// Regression test: stale-timer accumulation under sustained churn.
//
// Before the event-core rewrite, a torn-down station's pending timers were
// left riding the queue to a drop-at-pop; a MAC that arms far-future timers
// (the scheme's plan timers, eviction sweeps) leaked one queue entry per
// churn cycle, so a long-running churned simulation grew its heap without
// bound. Teardown now cancels the dead MAC's timers through
// EventQueue::cancel and tombstone compaction keeps the heap physically
// small; this test soaks 10^4 churn cycles and pins the queue's high-water
// mark at a small constant.
#include <gtest/gtest.h>

#include <memory>

#include "radio/units.hpp"
#include "sim/simulator.hpp"

namespace drn::sim {
namespace {

/// Arms one timer far beyond the end of the simulation on every start —
/// the worst case for teardown: the timer never fires on its own.
class FarTimerMac final : public MacProtocol {
 public:
  void on_start(MacContext& ctx) override {
    (void)ctx.set_timer(ctx.now() + 1.0e6, /*cookie=*/1);
  }
  void on_enqueue(MacContext&, const Packet&, StationId) override {}
};

TEST(TimerChurnSoak, PeakQueueSizeBoundedOverTenThousandCycles) {
  radio::PropagationMatrix m(2);
  SimulatorConfig cfg{radio::ReceptionCriterion(radio::Hertz{1.0e6},
                                                radio::BitsPerSecond{1.0e6},
                                                radio::Decibels{0.0})};
  cfg.thermal_noise_w = 1.0e-15;
  Simulator sim(m, cfg);
  sim.set_mac(0, std::make_unique<FarTimerMac>());
  sim.set_mac(1, std::make_unique<FarTimerMac>());
  sim.run_until(0.0);  // starts both MACs; two far-future timers pending

  constexpr int kCycles = 10000;
  for (int i = 0; i < kCycles; ++i) {
    sim.deactivate_station(1);
    sim.activate_station(1, std::make_unique<FarTimerMac>());
  }

  const auto qs = sim.queue_stats();
  // The queue never grew past a small constant: 4 KiB holds ~50 heap items
  // (24 B) with their slot headers (48 B). The pre-rewrite behaviour (one
  // stale entry per cycle) peaks at ~kCycles items, over 200 KiB.
  EXPECT_LT(qs.peak_bytes, 4096u);
  EXPECT_GT(qs.compactions, 0u);

  // Exactly the two live timers survive, and they are real: they still fire.
  sim.run_until(2.0e6);
  EXPECT_EQ(sim.queue_stats().events_processed - qs.events_processed, 2u);
}

}  // namespace
}  // namespace drn::sim
