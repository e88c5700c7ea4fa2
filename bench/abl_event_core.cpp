// Event-core throughput benchmark: events/s and peak queue memory across
// network scale, MAC, and churn.
//
// Each cell runs one runner::Trial at M stations (constant density: the
// region side scales with sqrt(M)) under the scheme or ALOHA, with dynamics
// churn off or on, and reports the simulator's QueueStats next to the
// measured wall times. Cells run strictly serially on the calling thread so
// the wall clocks are honest. The Trial constructor (set-up, whose O(M²)
// stages run on every core) is timed apart from run() (the event loop):
// events/s = events_processed / loop time, setup_s is the constructor and
// wall_s their sum. BENCH_core_baseline.json predates the split: its rates
// include set-up (EXPERIMENTS.md P2).
//
// This is the acceptance harness for the indexed-heap event core: the
// pre-rewrite std::priority_queue numbers (captured with the identical
// instrumentation patched into the seed tree) live in EXPERIMENTS.md, and
// the M=4096 churn cell is the one contracted to improve >= 1.5x.
//
// Emits BENCH_core.json (schema drn-bench-core-v1).
//
//   bench_abl_event_core [--smoke] [--out PATH]
//
// Cells run serially: parallel cells would corrupt each other's wall times.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace {

using namespace drn;

struct BenchConfig {
  std::vector<std::size_t> stations{256, 1024, 4096};
  /// Region side at 256 stations; scaled by sqrt(M/256) to hold density.
  double region_at_256_m = 2500.0;
  /// Offered load: half a packet per station-second over the window.
  double rate_per_station_pps = 0.5;
  double duration_s = 0.2;
  double drain_s = 2.0;
  /// Churn cells: mean one teardown every 1/8 s network-wide, 1 s downtime.
  double churn_rate_per_s = 8.0;
  double mean_downtime_s = 1.0;
  /// Beacons only in churn cells (rejoin discovery); 4 s keeps the beacon
  /// broadcast load tractable at M=4096 (every broadcast opens up to M-1
  /// receptions).
  double beacon_interval_s = 4.0;
  std::uint64_t master_seed = 606;
};

BenchConfig smoke_config() {
  BenchConfig c;
  c.stations = {32, 64};
  // The full config's 0.2 s window offers ~3 packets at M=32 — a cell can
  // legitimately process zero events and the schema check demands activity
  // in every cell. Stretch the window and the per-station rate instead of
  // the station count so smoke stays fast.
  c.rate_per_station_pps = 2.0;
  c.duration_s = 2.0;
  c.churn_rate_per_s = 4.0;
  c.beacon_interval_s = 1.0;
  return c;
}

runner::ScenarioSpec spec_for(const BenchConfig& c, std::size_t stations,
                              runner::MacKind mac, bool churn) {
  runner::ScenarioSpec spec;
  spec.stations = stations;
  spec.region_m =
      c.region_at_256_m * std::sqrt(static_cast<double>(stations) / 256.0);
  spec.mac = mac;
  spec.rate_pps = c.rate_per_station_pps * static_cast<double>(stations);
  spec.duration_s = c.duration_s;
  spec.drain_s = c.drain_s;
  if (churn) {
    spec.dynamics.churn_rate_per_s = c.churn_rate_per_s;
    spec.dynamics.mean_downtime_s = c.mean_downtime_s;
    spec.net.beacon_interval_s = c.beacon_interval_s;
    spec.net.neighbor_timeout_s = 3.0 * c.beacon_interval_s;
    spec.net.readopt_neighbors = true;
  }
  return spec;
}

int run(bool smoke, const std::string& out_path) {
  const BenchConfig cfg = smoke ? smoke_config() : BenchConfig{};

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 3;
  }
  runner::json::Writer w(out);
  w.begin_object();
  w.key("schema").value("drn-bench-core-v1");
  w.key("smoke").value(smoke);
  w.key("duration_s").value(cfg.duration_s);
  w.key("drain_s").value(cfg.drain_s);
  w.key("rate_per_station_pps").value(cfg.rate_per_station_pps);
  w.key("churn_rate_per_s").value(cfg.churn_rate_per_s);
  w.key("cells").begin_array();

  for (std::size_t stations : cfg.stations) {
    for (runner::MacKind mac :
         {runner::MacKind::kScheme, runner::MacKind::kAloha}) {
      for (bool churn : {false, true}) {
        const runner::ScenarioSpec spec = spec_for(cfg, stations, mac, churn);
        const std::uint64_t seed = runner::trial_seed(cfg.master_seed, 0);
        using Clock = std::chrono::steady_clock;
        const auto t0 = Clock::now();
        runner::Trial trial(spec, seed);
        const auto t1 = Clock::now();
        const runner::TrialResult r = trial.run();
        const auto t2 = Clock::now();
        const double setup_s = std::chrono::duration<double>(t1 - t0).count();
        const double loop_s = std::chrono::duration<double>(t2 - t1).count();
        const double wall_s = setup_s + loop_s;
        const double events_per_s =
            loop_s > 0.0 ? static_cast<double>(r.events_processed) / loop_s
                         : 0.0;
        w.begin_object();
        w.key("stations").value(static_cast<std::uint64_t>(stations));
        w.key("mac").value(runner::mac_name(mac));
        w.key("churn").value(churn);
        w.key("events_processed").value(r.events_processed);
        w.key("events_per_s").value(events_per_s);
        w.key("peak_queue_bytes").value(r.peak_queue_bytes);
        w.key("setup_s").value(setup_s);
        w.key("wall_s").value(wall_s);
        w.key("offered").value(r.offered);
        w.key("delivery_ratio").value(r.delivery_ratio);
        w.end_object();
        std::cerr << "M=" << stations << ' ' << runner::mac_name(mac)
                  << (churn ? " +churn" : "") << ": "
                  << r.events_processed << " events in " << loop_s
                  << " s loop (" << static_cast<std::uint64_t>(events_per_s)
                  << " ev/s) after " << setup_s << " s set-up, peak queue "
                  << r.peak_queue_bytes << " bytes\n";
      }
    }
  }

  w.end_array();
  w.end_object();
  out << '\n';
  std::cerr << "wrote " << out_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_abl_event_core [--smoke] [--out PATH]\n";
      return 2;
    }
  }
  try {
    return run(smoke, out_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
