// The physical layer of the simulator: RadioMedium owns everything that
// happens on the air (Sections 3.3-3.4 of the paper).
//
//   * transmission records: scheduled (booked but not yet radiating) and
//     active (in flight), in flat id-sorted sets;
//   * reception records: despreading-channel admission (Section 5), the
//     running worst-SINR test against Eq. 3-6 thresholds, the Section 5
//     loss taxonomy (Type 1/2/3), and idealised multiuser subtraction
//     (footnote 2) through a bounded ContributionSet;
//   * all interaction with the pluggable InterferenceEngine
//     (radio/interference_engine): start/end notifications, per-reception
//     interference queries, mobility-driven gain recomputation.
//
// The medium knows nothing about MACs, routing or station lifecycle — by
// design and by lint (drn_lint's layer-boundary rule forbids medium.* from
// including sim/mac.hpp). Outcomes that concern the layers above flow
// through the narrow RadioMedium::Client interface, which the Simulator
// facade implements by dispatching to StationHost (MAC hooks) and
// NetworkLayer (forwarding): decode outcomes and transmit completions go up;
// nothing above the medium can touch interference state directly.
//
// Everything here is a pure re-homing of the historical Simulator physics:
// engine calls, metrics calls and observer notifications run in exactly the
// order the monolithic class produced, so event-order golden digests and
// bench tables are byte-identical across the split.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/expects.hpp"
#include "common/id_sorted_set.hpp"
#include "common/types.hpp"
#include "geo/vec2.hpp"
#include "radio/interference_engine.hpp"
#include "radio/reception.hpp"
#include "sim/contribution_set.hpp"
#include "sim/event_handle.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/packet.hpp"

namespace drn::sim {

struct SimulatorConfig {
  /// The fixed design rate / bandwidth / margin shared by all stations.
  radio::ReceptionCriterion criterion;
  /// Thermal noise floor at every receiver, watts. Negative = derive kTB
  /// from the criterion's bandwidth.
  double thermal_noise_w = -1.0;
  /// Parallel despreading channels per receiver (Section 5: "GPS receivers
  /// often have six or twelve"; routing keeps direct neighbours <= 8).
  int despreading_channels = 8;
  /// Multiuser detection: subtract up to this many strongest interfering
  /// contributions before the SINR test (0 = off, the paper's base model).
  int multiuser_subtract_k = 0;
  /// Master seed for the per-station MAC random streams.
  std::uint64_t seed = 1;
  /// Interference accounting engine used by the matrix constructor (the
  /// engine constructor brings its own). kNearFar needs geometry the matrix
  /// does not carry, so it is only reachable via the engine constructor.
  radio::InterferenceEngineKind engine =
      radio::InterferenceEngineKind::kCompensated;
};

/// The channel: spread-spectrum physics, interference accounting and the
/// reception admission/outcome rules, behind a MAC-free interface.
class RadioMedium {
 public:
  /// What the layers above must provide so decode outcomes can leave the
  /// medium. Implemented by the Simulator facade, which routes station_up to
  /// StationHost, decoded packets to NetworkLayer / the receiving MAC, and
  /// transmit completions to the sending MAC. Calls arrive exactly where the
  /// monolithic simulator invoked the corresponding hook, so layering does
  /// not perturb event order.
  class Client {
   public:
    virtual ~Client() = default;
    /// Whether `station` is up (a reception at a downed station still
    /// occupies engine state but can never decode).
    [[nodiscard]] virtual bool station_up(StationId station) const = 0;
    /// A unicast reception decoded cleanly at `rx`; the network layer takes
    /// over (end-to-end delivery or forwarding).
    virtual void on_decoded_unicast(const Packet& packet, StationId rx) = 0;
    /// A broadcast reception decoded cleanly at `rx`.
    virtual void on_decoded_broadcast(const Packet& packet, StationId from,
                                      StationId rx, double signal_w) = 0;
    /// A transmission ran to its planned end (never called for aborts);
    /// `any_delivered` reports whether any addressee decoded it.
    virtual void on_transmit_complete(StationId from, const Packet& packet,
                                      StationId to, bool any_delivered) = 0;
  };

  /// `config` must already be finalized (thermal noise derived); the medium
  /// keeps references to the facade-owned config, queue, metrics and
  /// observer list, and installs the thermal floor into `engine`.
  RadioMedium(std::unique_ptr<radio::InterferenceEngine> engine,
              const SimulatorConfig& config, EventQueue& queue,
              Metrics& metrics, const std::vector<SimObserver*>& observers,
              Client& client);

  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

  // -- transmission booking (MacContext transmit paths) ---------------------

  /// Books a data transmission on the air from `start_s` (the transmit()
  /// service minus the context binding: `from` is the bound station).
  void schedule_data(StationId from, const Packet& pkt, StationId to,
                     double power_w, double start_s, double rate_bps,
                     double now_s);

  /// Books a pure noise burst (interference without a packet).
  void schedule_noise(StationId from, double power_w, double start_s,
                      double duration_s, double now_s);

  // -- event handlers (driven by the facade's event loop) -------------------

  void handle_transmit_start(std::uint64_t tx_id);
  void handle_transmit_end(std::uint64_t tx_id);

  // -- teardown support (station churn) -------------------------------------

  /// Cancels every scheduled-but-not-started transmission from `station`
  /// (both queue entries die on the spot).
  void cancel_scheduled_from(StationId station);

  /// Cuts short every transmission `station` has on the air: engine removal,
  /// kAborted reception outcomes, airtime trim, observer notification. Does
  /// NOT call back into any MAC (the sender is being torn down).
  void abort_active_from(StationId station, double now_s);

  /// Marks every still-pending reception record AT `station` as aborted: the
  /// records stay open (conservation and the engine's interference sums need
  /// them) but can no longer deliver, even if the station rejoins first.
  void abort_receptions_at(StationId station);

  /// Releases the station's transmitter serialization clamp to `now_s` (its
  /// booked future airtime was cancelled or aborted).
  void release_transmitter(StationId station, double now_s) {
    DRN_EXPECTS(station < tx_busy_until_s_.size());
    tx_busy_until_s_[station] = now_s;
  }

  // -- queries --------------------------------------------------------------

  [[nodiscard]] std::size_t station_count() const {
    return engine_->station_count();
  }
  [[nodiscard]] bool station_transmitting(StationId s) const {
    return transmitting_count_[s] > 0;
  }
  /// RF-idle rule for mobility: no radiating transmitter and no open
  /// reception record, so no in-flight engine state references the
  /// station's current gains.
  [[nodiscard]] bool rf_idle(StationId s) const {
    return transmitting_count_[s] == 0 && open_rx_count_[s] == 0;
  }
  /// Open reception records at `s` (all outcomes, not just pending).
  [[nodiscard]] int open_receptions_at(StationId s) const {
    return open_rx_count_[s];
  }
  /// Transmissions currently in flight.
  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  [[nodiscard]] const radio::InterferenceEngine& engine() const {
    return *engine_;
  }
  /// Power gain from transmitter `tx` to receiver `rx`.
  [[nodiscard]] double gain(StationId rx, StationId tx) const {
    return engine_->gain(rx, tx);
  }
  /// Total power impinging on `s` right now (carrier sense).
  [[nodiscard]] radio::Watts power_at(StationId s) const {
    return engine_->power_at(s);
  }

  // -- mobility (dynamics) --------------------------------------------------

  /// Relocates `s`. Precondition: rf_idle(s) — enforced by the facade's
  /// try_move_station, which refuses the move otherwise.
  void station_moved(StationId s, geo::Vec2 position) {
    engine_->station_moved(s, position);
  }
  void enable_mobility(geo::Placement placement,
                       std::shared_ptr<const radio::PropagationModel> model,
                       radio::LinearGain self_gain) {
    engine_->enable_mobility(std::move(placement), std::move(model),
                             self_gain);
  }

 private:
  struct ActiveTx {
    Packet packet;
    StationId from = kNoStation;
    StationId to = kNoStation;  // station id, kBroadcast, or kNoStation
                                // (= a pure noise burst: no receptions)
    double power_w = 0.0;
    double start_s = 0.0;
    double end_s = 0.0;
    double rate_bps = 0.0;
    double required_snr = 0.0;  // Eq. 4 threshold at this rate
    /// Queue entries for this transmission, cancellable while pending: both
    /// while scheduled, the end alone once in flight (aborts cut it short).
    EventHandle start_ev;
    EventHandle end_ev;
  };

  struct Reception {
    StationId rx = kNoStation;
    double signal_w = 0.0;
    /// Engine-side interference state for this reception (the engine's
    /// interference(handle) is thermal + all other active transmissions).
    radio::ReceptionHandle handle = radio::kInvalidReception;
    double min_sinr = 0.0;  // worst (effective) SINR seen so far
    double required_snr = 0.0;
    LossType failure = LossType::kNone;
    bool occupies_channel = false;  // holds one of rx's despreading channels
    /// Per-interferer contributions, kept only when multiuser detection is
    /// on (needed to subtract the strongest k).
    ContributionSet contributions;
  };

  /// Cuts short a transmission already on the air (its sender is being torn
  /// down): removes it from the engine now, closes its receptions with
  /// kAborted outcomes, and cancels its pending end event.
  void abort_transmission(std::uint64_t tx_id, double now_s);

  /// Shared tail of schedule_data and schedule_noise: serializes `tx` behind
  /// its sender's previous transmission, ends it `duration_s` after its
  /// start, and books it with its start/end queue entries.
  void book(ActiveTx tx, double duration_s);

  /// The observer-facing facts of transmission `tx_id`.
  [[nodiscard]] static TxEvent tx_event(std::uint64_t tx_id,
                                        const ActiveTx& tx);

  /// Takes `tx` (just extracted from active_) off the air: the per-station
  /// counters drop and the engine removes its interference, retiring the
  /// tracked multiuser contributions it made.
  void leave_air(std::uint64_t tx_id, const ActiveTx& tx);

  /// Closes reception `r` of transmission `tx_id` at its final outcome:
  /// frees its engine handle, despreading channel and open-rx count, then
  /// reports the RxEvent to observers.
  void retire_reception(std::uint64_t tx_id, const Reception& r);

  /// Opens the reception record for `tx` at receiver `rx` (admission rules:
  /// not transmitting, free despreading channel, initial SINR) and registers
  /// its engine handle in by_handle_.
  void open_reception(std::uint64_t tx_id, const ActiveTx& tx, StationId rx,
                      std::vector<Reception>& records);

  /// Effective SINR of a reception after optional multiuser subtraction.
  [[nodiscard]] double effective_sinr(const Reception& r) const;

  /// Re-tests a reception against its threshold after an interference
  /// change and folds the result into min_sinr.
  void note_interference_change(Reception& r, const ActiveTx& cause);

  /// Marks `r` failed (first failure wins) with the taxonomy type implied by
  /// the interfering transmission `cause`.
  void fail_reception(Reception& r, const ActiveTx& cause);

  /// Interference classification for a transmission relative to receiver rx.
  [[nodiscard]] static LossType classify(const ActiveTx& interferer,
                                         StationId rx);

  [[nodiscard]] Reception& reception_at(radio::ReceptionHandle h) {
    DRN_EXPECTS(h < by_handle_.size() && by_handle_[h] != nullptr);
    return *by_handle_[h];
  }

  std::unique_ptr<radio::InterferenceEngine> engine_;
  const SimulatorConfig& config_;  // facade-owned, finalized
  EventQueue& queue_;              // the shared event core
  Metrics& metrics_;
  const std::vector<SimObserver*>& observers_;  // facade-owned slots
  Client& client_;

  std::uint64_t next_tx_id_ = 1;
  // Pending (scheduled but not started) + in-flight transmissions.
  IdSortedSet<ActiveTx> scheduled_;
  IdSortedSet<ActiveTx> active_;
  // In-flight receptions, keyed by tx_id (one per receiver for broadcasts).
  // Vectors are reserved before records are appended so the back-pointers
  // in by_handle_ stay valid for a record's whole lifetime.
  std::map<std::uint64_t, std::vector<Reception>> receptions_;
  std::vector<Reception*> by_handle_;     // engine handle -> live record
  std::vector<int> transmitting_count_;   // per station
  std::vector<int> reception_count_;      // per station (despreading channels)
  // Per station: in-flight unicast transmissions addressed TO it. Lets the
  // below-threshold-at-open Type-2 attribution test run in O(1) instead of
  // walking every active transmission per opened reception (a broadcast at
  // large M opens thousands, most of them below threshold).
  std::vector<int> addressed_count_;
  std::vector<double> tx_busy_until_s_;   // per station: serialization check
  // Open reception records at each station (all outcomes, not just pending):
  // while > 0 the engine holds per-reception state referencing the station's
  // gains, so the station must not move.
  std::vector<int> open_rx_count_;
};

}  // namespace drn::sim
