// Layer tracing from outside the library: forwarding decorators around the
// public seams the simulator calls through (the interference engine, each
// station's MAC and its MacContext, the router closure). Each call opens a
// span; spans nest (an engine call runs a medium callback that calls the
// engine again), so the tracer keeps a stack and aggregates, per boundary,
// the call count, total time and the part of it that child spans covered.
// Self time = total - child. Nothing is stored per span: a traced run
// crosses ~10^7-10^8 boundaries.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "radio/interference_engine.hpp"
#include "sim/mac.hpp"
#include "sim/network_layer.hpp"

namespace perfbench {

enum class Boundary : std::uint8_t {
  kEngine,    // radio::InterferenceEngine calls made by the medium
  kMediumCb,  // engine -> medium visitor callbacks (SINR re-test, Type 3)
  kMac,       // sim::MacProtocol hooks
  kMacCtx,    // sim::MacContext services called from inside a MAC hook
  kRouter,    // sim::Router lookups
  kCount,
};

struct BoundaryStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;

  [[nodiscard]] double total_s() const { return 1e-9 * static_cast<double>(total_ns); }
  [[nodiscard]] double self_s() const {
    return 1e-9 * static_cast<double>(total_ns - child_ns);
  }
};

class Tracer {
 public:
  Tracer() { open_.reserve(64); }

  void enter(Boundary b) { open_.push_back(Frame{b, now_ns(), 0}); }

  void leave() {
    const Frame f = open_.back();
    open_.pop_back();
    const std::int64_t took = now_ns() - f.start_ns;
    BoundaryStats& s = stats_[static_cast<std::size_t>(f.boundary)];
    ++s.calls;
    s.total_ns += took;
    s.child_ns += f.child_ns;
    if (!open_.empty()) open_.back().child_ns += took;
  }

  [[nodiscard]] const BoundaryStats& stats(Boundary b) const {
    return stats_[static_cast<std::size_t>(b)];
  }

  /// Engine callbacks delivered per transmit_started / transmit_ended call.
  std::uint64_t fanout_calls = 0;
  std::uint64_t fanout_callbacks = 0;

 private:
  struct Frame {
    Boundary boundary;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Frame> open_;
  std::array<BoundaryStats, static_cast<std::size_t>(Boundary::kCount)> stats_{};
};

/// RAII span: enter on construction, leave on destruction (also when the
/// traced call throws).
class Span {
 public:
  Span(Tracer& tracer, Boundary b) : tracer_(tracer) { tracer_.enter(b); }
  ~Span() { tracer_.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Forwards every InterferenceEngine call to `inner`, timing it and the
/// medium callbacks it makes.
class TracedEngine final : public drn::radio::InterferenceEngine {
 public:
  TracedEngine(std::unique_ptr<drn::radio::InterferenceEngine> inner,
               Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  /// The medium sets the thermal floor on the engine it holds (this
  /// decorator) through a non-virtual setter; copy it to the wrapped engine.
  /// Call once the Simulator is constructed.
  void adopt_thermal_noise() { inner_->set_thermal_noise(thermal_noise()); }

  [[nodiscard]] std::size_t station_count() const override {
    return inner_->station_count();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] double gain(drn::StationId rx, drn::StationId tx) const override;
  void transmit_started(std::uint64_t tx_id, drn::StationId from,
                        drn::radio::Watts power, const SenderVisitor& at_sender,
                        const AffectedVisitor& affected) override;
  void transmit_ended(std::uint64_t tx_id,
                      const AffectedVisitor& affected) override;
  [[nodiscard]] drn::radio::ReceptionHandle open_reception(
      std::uint64_t tx_id, drn::StationId rx,
      const ContributionVisitor& contribution) override;
  void close_reception(drn::radio::ReceptionHandle h) override;
  [[nodiscard]] std::size_t open_receptions() const override {
    return inner_->open_receptions();
  }
  [[nodiscard]] drn::radio::Watts interference(
      drn::radio::ReceptionHandle h) const override;
  [[nodiscard]] drn::radio::Watts recomputed_interference(
      drn::radio::ReceptionHandle h) const override;
  [[nodiscard]] drn::radio::Watts power_at(drn::StationId s) const override;
  void station_moved(drn::StationId s, drn::geo::Vec2 position) override;
  void enable_mobility(drn::geo::Placement placement,
                       std::shared_ptr<const drn::radio::PropagationModel> model,
                       drn::radio::LinearGain self_gain) override;

 private:
  std::unique_ptr<drn::radio::InterferenceEngine> inner_;
  Tracer& tracer_;
};

/// Forwards a MacContext, timing each service a MAC hook calls.
class TracedContext final : public drn::sim::MacContext {
 public:
  TracedContext(drn::sim::MacContext& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] double now() const override;
  [[nodiscard]] drn::StationId self() const override;
  using MacContext::transmit;
  void transmit(const drn::sim::Packet& pkt, drn::StationId to, double power_w,
                double start_s, double rate_bps) override;
  void transmit_noise(double power_w, double start_s,
                      double duration_s) override;
  drn::sim::TimerHandle set_timer(double at_s, std::uint64_t cookie) override;
  bool cancel_timer(drn::sim::TimerHandle h) override;
  [[nodiscard]] bool transmitting() const override;
  [[nodiscard]] double received_power_w() const override;
  [[nodiscard]] double gain_to(drn::StationId other) const override;
  void drop(const drn::sim::Packet& pkt) override;
  [[nodiscard]] drn::Rng& rng() override;

 private:
  drn::sim::MacContext& inner_;
  Tracer& tracer_;
};

/// Forwards every MacProtocol hook to `inner` inside a kMac span, handing it
/// a TracedContext.
class TracedMac final : public drn::sim::MacProtocol {
 public:
  TracedMac(std::unique_ptr<drn::sim::MacProtocol> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void on_start(drn::sim::MacContext& ctx) override;
  void on_enqueue(drn::sim::MacContext& ctx, const drn::sim::Packet& pkt,
                  drn::StationId next_hop) override;
  void on_timer(drn::sim::MacContext& ctx, std::uint64_t cookie) override;
  void on_transmit_end(drn::sim::MacContext& ctx, const drn::sim::Packet& pkt,
                       drn::StationId to, bool delivered) override;
  void on_broadcast_received(drn::sim::MacContext& ctx,
                             const drn::sim::Packet& pkt, drn::StationId from,
                             double signal_w) override;
  [[nodiscard]] std::size_t queued_packets() const override {
    return inner_->queued_packets();
  }
  void on_clock_rate_changed(drn::sim::MacContext& ctx,
                             double delta_ppm) override;

 private:
  std::unique_ptr<drn::sim::MacProtocol> inner_;
  Tracer& tracer_;
};

/// Wraps a router closure so each lookup is a kRouter span.
[[nodiscard]] drn::sim::Router traced_router(drn::sim::Router inner,
                                             Tracer& tracer);

}  // namespace perfbench
