#include "trace.hpp"

#include <utility>

namespace perfbench {

using drn::StationId;
using drn::radio::ReceptionHandle;
using drn::radio::Watts;

double TracedEngine::gain(StationId rx, StationId tx) const {
  const Span span(tracer_, Boundary::kEngine);
  return inner_->gain(rx, tx);
}

void TracedEngine::transmit_started(std::uint64_t tx_id, StationId from,
                                    Watts power, const SenderVisitor& at_sender,
                                    const AffectedVisitor& affected) {
  const Span span(tracer_, Boundary::kEngine);
  ++tracer_.fanout_calls;
  // Empty visitors stay empty: the engine may skip work for them.
  SenderVisitor sender;
  if (at_sender) {
    sender = [this, &at_sender](ReceptionHandle h) {
      ++tracer_.fanout_callbacks;
      const Span cb(tracer_, Boundary::kMediumCb);
      at_sender(h);
    };
  }
  AffectedVisitor aff;
  if (affected) {
    aff = [this, &affected](ReceptionHandle h, Watts w) {
      ++tracer_.fanout_callbacks;
      const Span cb(tracer_, Boundary::kMediumCb);
      affected(h, w);
    };
  }
  inner_->transmit_started(tx_id, from, power, sender, aff);
}

void TracedEngine::transmit_ended(std::uint64_t tx_id,
                                  const AffectedVisitor& affected) {
  const Span span(tracer_, Boundary::kEngine);
  ++tracer_.fanout_calls;
  AffectedVisitor aff;
  if (affected) {
    aff = [this, &affected](ReceptionHandle h, Watts w) {
      ++tracer_.fanout_callbacks;
      const Span cb(tracer_, Boundary::kMediumCb);
      affected(h, w);
    };
  }
  inner_->transmit_ended(tx_id, aff);
}

ReceptionHandle TracedEngine::open_reception(
    std::uint64_t tx_id, StationId rx, const ContributionVisitor& contribution) {
  const Span span(tracer_, Boundary::kEngine);
  ContributionVisitor contrib;
  if (contribution) {
    contrib = [this, &contribution](std::uint64_t id, Watts w) {
      const Span cb(tracer_, Boundary::kMediumCb);
      contribution(id, w);
    };
  }
  return inner_->open_reception(tx_id, rx, contrib);
}

void TracedEngine::close_reception(ReceptionHandle h) {
  const Span span(tracer_, Boundary::kEngine);
  inner_->close_reception(h);
}

Watts TracedEngine::interference(ReceptionHandle h) const {
  const Span span(tracer_, Boundary::kEngine);
  return inner_->interference(h);
}

Watts TracedEngine::recomputed_interference(ReceptionHandle h) const {
  const Span span(tracer_, Boundary::kEngine);
  return inner_->recomputed_interference(h);
}

Watts TracedEngine::power_at(StationId s) const {
  const Span span(tracer_, Boundary::kEngine);
  return inner_->power_at(s);
}

void TracedEngine::station_moved(StationId s, drn::geo::Vec2 position) {
  const Span span(tracer_, Boundary::kEngine);
  inner_->station_moved(s, position);
}

void TracedEngine::enable_mobility(
    drn::geo::Placement placement,
    std::shared_ptr<const drn::radio::PropagationModel> model,
    drn::radio::LinearGain self_gain) {
  inner_->enable_mobility(std::move(placement), std::move(model), self_gain);
}

// -- MacContext ---------------------------------------------------------------
// now(), self() and rng() are plain getters: a span would cost more than the
// call, so they forward untimed and count as the calling MAC's self time.

double TracedContext::now() const {
  return inner_.now();
}

StationId TracedContext::self() const {
  return inner_.self();
}

void TracedContext::transmit(const drn::sim::Packet& pkt, StationId to,
                             double power_w, double start_s, double rate_bps) {
  const Span span(tracer_, Boundary::kMacCtx);
  inner_.transmit(pkt, to, power_w, start_s, rate_bps);
}

void TracedContext::transmit_noise(double power_w, double start_s,
                                   double duration_s) {
  const Span span(tracer_, Boundary::kMacCtx);
  inner_.transmit_noise(power_w, start_s, duration_s);
}

drn::sim::TimerHandle TracedContext::set_timer(double at_s,
                                               std::uint64_t cookie) {
  const Span span(tracer_, Boundary::kMacCtx);
  return inner_.set_timer(at_s, cookie);
}

bool TracedContext::cancel_timer(drn::sim::TimerHandle h) {
  const Span span(tracer_, Boundary::kMacCtx);
  return inner_.cancel_timer(h);
}

bool TracedContext::transmitting() const {
  const Span span(tracer_, Boundary::kMacCtx);
  return inner_.transmitting();
}

double TracedContext::received_power_w() const {
  const Span span(tracer_, Boundary::kMacCtx);
  return inner_.received_power_w();
}

double TracedContext::gain_to(StationId other) const {
  const Span span(tracer_, Boundary::kMacCtx);
  return inner_.gain_to(other);
}

void TracedContext::drop(const drn::sim::Packet& pkt) {
  const Span span(tracer_, Boundary::kMacCtx);
  inner_.drop(pkt);
}

drn::Rng& TracedContext::rng() {
  return inner_.rng();
}

// -- MacProtocol --------------------------------------------------------------

void TracedMac::on_start(drn::sim::MacContext& ctx) {
  const Span span(tracer_, Boundary::kMac);
  TracedContext traced(ctx, tracer_);
  inner_->on_start(traced);
}

void TracedMac::on_enqueue(drn::sim::MacContext& ctx,
                           const drn::sim::Packet& pkt, StationId next_hop) {
  const Span span(tracer_, Boundary::kMac);
  TracedContext traced(ctx, tracer_);
  inner_->on_enqueue(traced, pkt, next_hop);
}

void TracedMac::on_timer(drn::sim::MacContext& ctx, std::uint64_t cookie) {
  const Span span(tracer_, Boundary::kMac);
  TracedContext traced(ctx, tracer_);
  inner_->on_timer(traced, cookie);
}

void TracedMac::on_transmit_end(drn::sim::MacContext& ctx,
                                const drn::sim::Packet& pkt, StationId to,
                                bool delivered) {
  const Span span(tracer_, Boundary::kMac);
  TracedContext traced(ctx, tracer_);
  inner_->on_transmit_end(traced, pkt, to, delivered);
}

void TracedMac::on_broadcast_received(drn::sim::MacContext& ctx,
                                      const drn::sim::Packet& pkt,
                                      StationId from, double signal_w) {
  const Span span(tracer_, Boundary::kMac);
  TracedContext traced(ctx, tracer_);
  inner_->on_broadcast_received(traced, pkt, from, signal_w);
}

void TracedMac::on_clock_rate_changed(drn::sim::MacContext& ctx,
                                      double delta_ppm) {
  const Span span(tracer_, Boundary::kMac);
  TracedContext traced(ctx, tracer_);
  inner_->on_clock_rate_changed(traced, delta_ppm);
}

drn::sim::Router traced_router(drn::sim::Router inner, Tracer& tracer) {
  return [inner = std::move(inner), &tracer](StationId at, StationId dst) {
    const Span span(tracer, Boundary::kRouter);
    return inner(at, dst);
  };
}

}  // namespace perfbench
