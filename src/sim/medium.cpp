#include "sim/medium.hpp"

#include <algorithm>
#include <utility>

#include "radio/units.hpp"

namespace drn::sim {

RadioMedium::RadioMedium(std::unique_ptr<radio::InterferenceEngine> engine,
                         const SimulatorConfig& config, EventQueue& queue,
                         Metrics& metrics,
                         const std::vector<SimObserver*>& observers,
                         Client& client)
    : engine_(std::move(engine)),
      config_(config),
      queue_(queue),
      metrics_(metrics),
      observers_(observers),
      client_(client),
      transmitting_count_(engine_->station_count(), 0),
      reception_count_(engine_->station_count(), 0),
      addressed_count_(engine_->station_count(), 0),
      tx_busy_until_s_(engine_->station_count(), 0.0),
      open_rx_count_(engine_->station_count(), 0) {
  DRN_EXPECTS(config_.thermal_noise_w > 0.0);  // facade finalizes first
  engine_->set_thermal_noise(radio::Watts{config_.thermal_noise_w});
}

// ---------------------------------------------------------------------------
// Transmission booking

void RadioMedium::schedule_data(StationId from, const Packet& pkt,
                                StationId to, double power_w, double start_s,
                                double rate_bps, double now_s) {
  DRN_EXPECTS(to < station_count() || to == kBroadcast);
  DRN_EXPECTS(to != from);
  DRN_EXPECTS(power_w > 0.0);
  DRN_EXPECTS(rate_bps >= 0.0);
  DRN_EXPECTS(start_s >= now_s);
  DRN_EXPECTS(pkt.size_bits > 0.0);

  ActiveTx tx;
  tx.packet = pkt;
  tx.from = from;
  tx.to = to;
  tx.power_w = power_w;
  tx.rate_bps =
      rate_bps > 0.0 ? rate_bps : config_.criterion.data_rate_bps();
  tx.start_s = start_s;
  tx.required_snr =
      (config_.criterion.margin().to_linear() *
       radio::snr_for_rate_fraction(tx.rate_bps /
                                    config_.criterion.bandwidth_hz()))
          .value();
  book(tx, pkt.size_bits / tx.rate_bps);
}

void RadioMedium::schedule_noise(StationId from, double power_w,
                                 double start_s, double duration_s,
                                 double now_s) {
  DRN_EXPECTS(power_w > 0.0);
  DRN_EXPECTS(duration_s > 0.0);
  DRN_EXPECTS(start_s >= now_s);

  ActiveTx tx;
  tx.from = from;
  tx.to = kNoStation;  // addressed to nobody: pure interference
  tx.power_w = power_w;
  tx.rate_bps = 0.0;
  tx.start_s = start_s;
  tx.required_snr = 0.0;
  book(tx, duration_s);
}

void RadioMedium::book(ActiveTx tx, double duration_s) {
  // One transmitter per station (noise bursts included): transmissions must
  // be serialized by the MAC. A sub-nanosecond shortfall is floating-point
  // noise from computing the same instant two ways (e.g. 0.01*i vs a running
  // sum of 0.01) and is clamped rather than rejected.
  double& busy_until_s = tx_busy_until_s_[tx.from];
  if (tx.start_s < busy_until_s && busy_until_s - tx.start_s < 1e-9)
    tx.start_s = busy_until_s;
  DRN_EXPECTS(tx.start_s >= busy_until_s);
  tx.end_s = tx.start_s + duration_s;
  busy_until_s = tx.end_s;

  const std::uint64_t tx_id = next_tx_id_++;
  ActiveTx& slot = scheduled_.insert(tx_id, std::move(tx));

  Event start;
  start.time_s = slot.start_s;
  start.kind = EventKind::kTransmitStart;
  start.tx_id = tx_id;
  slot.start_ev = queue_.push(start);

  Event end;
  end.time_s = slot.end_s;
  end.kind = EventKind::kTransmitEnd;
  end.tx_id = tx_id;
  slot.end_ev = queue_.push(end);
}

// ---------------------------------------------------------------------------
// Physics

LossType RadioMedium::classify(const ActiveTx& interferer, StationId rx) {
  if (interferer.from == rx) return LossType::kType3;
  if (interferer.to == rx) return LossType::kType2;
  return LossType::kType1;
}

void RadioMedium::fail_reception(Reception& r, const ActiveTx& cause) {
  if (r.failure == LossType::kNone) r.failure = classify(cause, r.rx);
}

double RadioMedium::effective_sinr(const Reception& r) const {
  const double interference = engine_->interference(r.handle).value();
  if (config_.multiuser_subtract_k == 0 || r.contributions.empty())
    return r.signal_w / interference;
  // Subtract the k strongest interfering contributions (idealised multiuser
  // detection: the receiver reconstructs and cancels them).
  const double cancelled =
      r.contributions
          .sum_top(static_cast<std::size_t>(config_.multiuser_subtract_k))
          .value();
  const double residual =
      std::max(config_.thermal_noise_w, interference - cancelled);
  return r.signal_w / residual;
}

void RadioMedium::note_interference_change(Reception& r,
                                           const ActiveTx& cause) {
  const double sinr = effective_sinr(r);
  r.min_sinr = std::min(r.min_sinr, sinr);
  if (r.failure == LossType::kNone && sinr < r.required_snr)
    fail_reception(r, cause);
}

void RadioMedium::open_reception(std::uint64_t tx_id, const ActiveTx& tx,
                                 StationId rx,
                                 std::vector<Reception>& records) {
  Reception r;
  r.rx = rx;
  r.signal_w = engine_->gain(rx, tx.from) * tx.power_w;
  r.required_snr = tx.required_snr;
  radio::InterferenceEngine::ContributionVisitor on_contribution;
  if (config_.multiuser_subtract_k > 0) {
    on_contribution = [&r](std::uint64_t id, radio::Watts watts) {
      r.contributions.add(id, watts);
    };
  }
  r.handle = engine_->open_reception(tx_id, rx, on_contribution);

  if (!client_.station_up(rx)) {
    // The receiver is down (churn): the record still exists — conservation
    // and the engine's interference accounting need it — but nothing can be
    // decoded at a dead station, and no despreading channel is consumed.
    r.failure = LossType::kAborted;
  } else if (station_transmitting(rx)) {
    r.failure = LossType::kType3;
  } else if (reception_count_[rx] >= config_.despreading_channels) {
    r.failure = LossType::kType2;  // all despreading channels busy
  } else {
    r.occupies_channel = true;
    ++reception_count_[rx];
  }

  r.min_sinr = effective_sinr(r);
  if (r.failure == LossType::kNone && r.min_sinr < r.required_snr) {
    // Below threshold from the first instant: attribute the loss to an
    // already-active transmission addressed to the same receiver (Type 2) if
    // one exists, otherwise to third-party interference / sheer lack of
    // signal (Type 1). addressed_count_ mirrors the active set, so the test
    // is O(1); subtract this transmission itself when it is the one
    // addressed to rx.
    const int others = addressed_count_[rx] - (tx.to == rx ? 1 : 0);
    r.failure = others > 0 ? LossType::kType2 : LossType::kType1;
  }

  // The vector was reserved by the caller, so push_back never reallocates
  // and the back-pointer registered here stays valid until close.
  DRN_EXPECTS(records.size() < records.capacity());
  records.push_back(std::move(r));
  ++open_rx_count_[rx];
  const radio::ReceptionHandle h = records.back().handle;
  if (by_handle_.size() <= h) by_handle_.resize(h + 1, nullptr);
  by_handle_[h] = &records.back();
}

void RadioMedium::handle_transmit_start(std::uint64_t tx_id) {
  const ActiveTx& tx = active_.insert(tx_id, scheduled_.extract(tx_id));
  const bool noise = tx.to == kNoStation;
  if (tx.to < station_count()) ++addressed_count_[tx.to];

  metrics_.record_airtime(tx.from, tx.end_s - tx.start_s);
  if (noise) {
    metrics_.record_noise_burst();
  } else if (tx.to == kBroadcast) {
    metrics_.record_broadcast();
  } else {
    metrics_.record_hop_attempt();
  }
  ++transmitting_count_[tx.from];

  if (!observers_.empty()) {
    const TxEvent ev = tx_event(tx_id, tx);
    for (SimObserver* o : observers_) o->on_transmit_start(ev);
  }

  const bool track = config_.multiuser_subtract_k > 0;

  // The new signal raises the interference of every in-flight reception it
  // reaches and kills any reception in progress at the (now radiating)
  // sender itself; the engine walks them and notifies us per reception.
  engine_->transmit_started(
      tx_id, tx.from, radio::Watts{tx.power_w},
      [this, &tx](radio::ReceptionHandle h) {
        fail_reception(reception_at(h), tx);  // Type 3: own transmitter up
      },
      [this, &tx, tx_id, track](radio::ReceptionHandle h, radio::Watts watts) {
        Reception& r = reception_at(h);
        if (track) r.contributions.add(tx_id, watts);
        note_interference_change(r, tx);
      });

  // A noise burst carries nothing: it interferes (above) but opens no
  // reception.
  if (noise) return;

  // Open the reception record(s).
  auto& records = receptions_[tx_id];
  if (tx.to == kBroadcast) {
    records.reserve(station_count() - 1);
    for (StationId rx = 0; rx < station_count(); ++rx) {
      if (rx == tx.from) continue;
      open_reception(tx_id, tx, rx, records);
    }
  } else {
    records.reserve(1);
    open_reception(tx_id, tx, tx.to, records);
  }
}

TxEvent RadioMedium::tx_event(std::uint64_t tx_id, const ActiveTx& tx) {
  TxEvent ev;
  ev.tx_id = tx_id;
  ev.from = tx.from;
  ev.to = tx.to;
  ev.power_w = tx.power_w;
  ev.start_s = tx.start_s;
  ev.end_s = tx.end_s;
  ev.rate_bps = tx.rate_bps;
  ev.packet = tx.packet.id;
  return ev;
}

void RadioMedium::leave_air(std::uint64_t tx_id, const ActiveTx& tx) {
  --transmitting_count_[tx.from];
  if (tx.to < station_count()) --addressed_count_[tx.to];

  // The engine lowers everyone else's interference (receptions at the
  // sender's own station never had this contribution added — they die via
  // Type 3 — and the engine skips them symmetrically). Interference only
  // drops here, so min_sinr cannot move; the notification is only needed to
  // retire tracked contributions.
  radio::InterferenceEngine::AffectedVisitor on_affected;
  if (config_.multiuser_subtract_k > 0) {
    on_affected = [this, tx_id](radio::ReceptionHandle h,
                                radio::Watts /*watts*/) {
      reception_at(h).contributions.erase(tx_id);
    };
  }
  engine_->transmit_ended(tx_id, on_affected);
}

void RadioMedium::retire_reception(std::uint64_t tx_id, const Reception& r) {
  engine_->close_reception(r.handle);
  by_handle_[r.handle] = nullptr;
  if (r.occupies_channel) --reception_count_[r.rx];
  --open_rx_count_[r.rx];

  if (!observers_.empty()) {
    RxEvent ev;
    ev.tx_id = tx_id;
    ev.rx = r.rx;
    ev.delivered = r.failure == LossType::kNone;
    ev.loss = r.failure;
    ev.min_sinr = r.min_sinr;
    ev.required_snr = r.required_snr;
    ev.signal_w = r.signal_w;
    for (SimObserver* o : observers_) o->on_reception_complete(ev);
  }
}

void RadioMedium::handle_transmit_end(std::uint64_t tx_id) {
  const ActiveTx tx = active_.extract(tx_id);
  leave_air(tx_id, tx);

  if (tx.to == kNoStation) {
    // Noise burst: nothing was receivable; just tell the emitter.
    client_.on_transmit_complete(tx.from, tx.packet, tx.to, false);
    return;
  }

  auto rnode = receptions_.extract(tx_id);
  DRN_EXPECTS(!rnode.empty());
  bool any_delivered = false;
  for (const Reception& r : rnode.mapped()) {
    retire_reception(tx_id, r);
    const bool delivered = r.failure == LossType::kNone;
    any_delivered |= delivered;

    if (tx.to == kBroadcast) {
      if (delivered) {
        metrics_.record_broadcast_reception();
        client_.on_decoded_broadcast(tx.packet, tx.from, r.rx, r.signal_w);
      }
      continue;
    }

    if (delivered) {
      metrics_.record_hop_success(
          radio::to_db(r.min_sinr / r.required_snr));
      client_.on_decoded_unicast(tx.packet, r.rx);
    } else {
      metrics_.record_hop_loss(r.failure);
    }
  }

  client_.on_transmit_complete(tx.from, tx.packet, tx.to, any_delivered);
}

// ---------------------------------------------------------------------------
// Teardown support (station churn)

void RadioMedium::abort_transmission(std::uint64_t tx_id, double now_s) {
  const ActiveTx tx = active_.extract(tx_id);
  // Airtime was booked for the full planned duration at start; give back the
  // part that never aired.
  metrics_.trim_airtime(tx.from, tx.end_s - now_s);
  const bool was_pending = queue_.cancel(tx.end_ev);
  DRN_EXPECTS(was_pending);  // the tx was in flight, so its end lay ahead

  // Observers first (the auditor truncates its record of this transmission
  // to now before the aborted RxEvents below arrive).
  if (!observers_.empty()) {
    const TxEvent ev = tx_event(tx_id, tx);
    for (SimObserver* o : observers_) o->on_transmit_aborted(ev, now_s);
  }

  // The signal leaves the air early; interference drops exactly as at a
  // normal end, through the same engine path (no ad-hoc subtraction).
  leave_air(tx_id, tx);

  if (tx.to == kNoStation) return;  // noise: no reception records

  auto rnode = receptions_.extract(tx_id);
  DRN_EXPECTS(!rnode.empty());
  for (Reception& r : rnode.mapped()) {
    // A truncated packet is undecodable regardless of its SINR so far.
    if (r.failure == LossType::kNone) r.failure = LossType::kAborted;
    retire_reception(tx_id, r);
    if (tx.to != kBroadcast) metrics_.record_hop_loss(r.failure);
  }
  // No completion upcall: the sender's MAC is being torn down right now.
}

void RadioMedium::cancel_scheduled_from(StationId station) {
  // Scheduled-but-not-started transmissions from the station never happen:
  // both their queue entries are cancelled on the spot.
  scheduled_.erase_if([this, station](std::uint64_t /*id*/, ActiveTx& tx) {
    if (tx.from != station) return false;
    queue_.cancel(tx.start_ev);
    queue_.cancel(tx.end_ev);
    return true;
  });
}

void RadioMedium::abort_active_from(StationId station, double now_s) {
  // Transmissions already on the air are cut short, in ascending-id order.
  std::vector<std::uint64_t> airborne;
  for (const auto& e : active_)
    if (e.value.from == station) airborne.push_back(e.id);
  for (const std::uint64_t id : airborne) abort_transmission(id, now_s);
}

void RadioMedium::abort_receptions_at(StationId station) {
  // Receptions in progress at the station die with it. The records stay
  // open (the engine keeps accounting the interference they see, and
  // conservation still expects their outcomes at the transmissions' ends)
  // but can no longer deliver — even if the station rejoins first.
  for (auto& [id, records] : receptions_) {
    (void)id;
    for (Reception& r : records) {
      if (r.rx == station && r.failure == LossType::kNone)
        r.failure = LossType::kAborted;
    }
  }
}

}  // namespace drn::sim
