// Ground-truth verification of the Section 7 invariants, via the simulator's
// observer hook: EVERY transmission the scheduled MAC makes must lie inside
// the sender's own transmit windows and inside the addressee's committed
// receive windows — checked against the TRUE station clocks, not the models
// the senders used.
#include <gtest/gtest.h>

#include <vector>

#include "helpers/scenario.hpp"
#include "sim/observer.hpp"

namespace drn::testing {
namespace {

class WindowAuditor final : public sim::SimObserver {
 public:
  WindowAuditor(const core::Schedule& schedule,
                const std::vector<core::StationClock>& clocks)
      : schedule_(&schedule), clocks_(&clocks) {}

  void on_transmit_start(const sim::TxEvent& tx) override {
    ++transmissions_;
    // Sender side: the radiating interval must lie inside transmit slots of
    // the sender's own schedule (its published commitment to listen must be
    // honoured exactly).
    const auto& sender_clock = (*clocks_)[tx.from];
    if (!schedule_->interval_is(
            sender_clock.local(core::Seconds{tx.start_s}).value(),
            sender_clock.local(core::Seconds{tx.end_s}).value(), false)) {
      ++sender_violations_;
    }
    // Receiver side: the addressee must be committed to listen throughout.
    if (tx.to != kBroadcast) {
      const auto& rx_clock = (*clocks_)[tx.to];
      if (!schedule_->interval_is(
              rx_clock.local(core::Seconds{tx.start_s}).value(),
              rx_clock.local(core::Seconds{tx.end_s}).value(), true)) {
        ++receiver_violations_;
      }
    }
  }

  [[nodiscard]] std::size_t transmissions() const { return transmissions_; }
  [[nodiscard]] std::size_t sender_violations() const {
    return sender_violations_;
  }
  [[nodiscard]] std::size_t receiver_violations() const {
    return receiver_violations_;
  }

 private:
  const core::Schedule* schedule_;
  const std::vector<core::StationClock>* clocks_;
  std::size_t transmissions_ = 0;
  std::size_t sender_violations_ = 0;
  std::size_t receiver_violations_ = 0;
};

class ScheduleCompliance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleCompliance, EveryTransmissionHonoursBothSchedules) {
  // Fitted clock models + guards must still comply.
  Trial trial(audited_spec(30, 900.0, 120.0, 2.0), GetParam());
  const Scenario& scenario = trial.scenario();
  WindowAuditor auditor(scenario.net.schedule, scenario.net.clocks);
  trial.simulator().add_observer(&auditor);
  (void)run_audited(trial);

  EXPECT_GT(auditor.transmissions(), 200u);
  EXPECT_EQ(auditor.sender_violations(), 0u) << "seed " << GetParam();
  EXPECT_EQ(auditor.receiver_violations(), 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleCompliance,
                         ::testing::Values(3u, 5u, 8u));

TEST(ScheduleCompliance, BaselinesDoViolateSchedules) {
  // Control: ALOHA transmits whenever it pleases, so against the same
  // schedules it racks up violations — the auditor is not vacuous.
  auto spec = audited_spec(30, 900.0, 120.0, 2.0);
  spec.mac = MacKind::kAloha;
  spec.baseline_max_retries = 16;  // a contention MAC's default budget
  spec.drain_s = 28.0;              // run to t = 30 s
  Trial trial(spec, 13);
  const Scenario& scenario = trial.scenario();
  WindowAuditor auditor(scenario.net.schedule, scenario.net.clocks);
  trial.simulator().add_observer(&auditor);
  (void)run_audited(trial);
  EXPECT_GT(auditor.sender_violations() + auditor.receiver_violations(), 0u);
}

}  // namespace
}  // namespace drn::testing
