// drn_sim — command-line driver for the whole stack: build a random network,
// pick a MAC, offer Poisson traffic, print the outcome. The quickest way for
// a downstream user to poke at the system without writing C++. A front end
// over runner::Trial, so a (spec, seed) gives exactly the trial drn_sweep
// runs for that seed.
//
//   $ drn_sim --stations 50 --region 1200 --mac scheme --rate 300
//   $ drn_sim --mac aloha --seed 9 --csv-trace /tmp/trace.csv
//   $ drn_sim --help
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/table.hpp"
#include "audit/invariant_auditor.hpp"
#include "cli_flags.hpp"
#include "radio/interference_engine.hpp"
#include "runner/json.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/trace.hpp"

namespace {

using namespace drn;

struct Options {
  runner::ScenarioSpec spec;
  std::uint64_t seed = 1;
  std::string csv_trace;
  std::size_t trace_cap = 0;
  bool json = false;
};

void print_help() {
  std::cout <<
      R"(drn_sim - dense packet radio network simulator (Shepard, SIGCOMM '96)

usage: drn_sim [--key value]...

topology
  --stations N          station count               (default 40)
  --region METERS       disc radius                 (default 1000)
  --seed N              master seed                 (default 1)
  --dual-slope 0|1      two-ray propagation         (default 0 = free space)
  --breakpoint METERS   dual-slope breakpoint       (default 100)
  --shadowing DB        log-normal shadowing sigma  (default 0)

radio design point
  --bandwidth HZ        spread bandwidth W          (default 2e8)
  --data-rate BPS       design rate C               (default 1e6)
  --margin DB           detection margin            (default 5)
  --target-power W      delivered power target      (default 1e-9)
  --max-power W         scheme power limit          (default 1.6e-4;
                        baseline MACs transmit at 1e-4)

channel access
  --mac NAME            scheme|aloha|slotted|csma|maca   (default scheme)
  --receive-fraction P  schedule receive duty p     (default 0.3)
  --slot S              slot duration               (default 0.01)

workload
  --rate PPS            aggregate Poisson offer     (default 200)
  --duration S          offer window                (default 2)
  --drain S             extra time to drain queues  (default 60)

)" << cli::kScenarioFlagsHelp << R"(
output
  --csv-trace PATH      dump the physical-layer trace as CSV
  --trace-cap N         keep only the newest N trace events per stream
                        (0 = unbounded; requires --csv-trace)
  --json 0|1            one-line JSON summary instead of the table (default 0)
  --audit 0|1           re-derive the physics invariants (Type 1/2/3
                        taxonomy, SINR identities, half-duplex, despreading
                        cap) from the event stream and cross-check the
                        metrics; exit 4 on any violation (default 0)
  --help                this text
)";
}

bool parse(cli::Flags& flags, Options& opt) {
  runner::ScenarioSpec& spec = opt.spec;
  flags.text("csv-trace", opt.csv_trace);
  if (!flags.parsed("mac", runner::parse_mac, spec.mac) ||
      !flags.integer("stations", spec.stations) ||
      !flags.number("region", spec.region_m) ||
      !flags.integer("seed", opt.seed) ||
      !flags.number("rate", spec.rate_pps) ||
      !flags.number("duration", spec.duration_s) ||
      !flags.number("drain", spec.drain_s) ||
      !flags.number("receive-fraction", spec.net.receive_fraction) ||
      !flags.number("slot", spec.net.slot_s) ||
      !flags.number("target-power", spec.net.target_received_w) ||
      !flags.number("max-power", spec.net.max_power_w) ||
      !flags.number("bandwidth", spec.bandwidth_hz) ||
      !flags.number("data-rate", spec.data_rate_bps) ||
      !flags.number("margin", spec.margin_db) ||
      !flags.flag("dual-slope", spec.dual_slope) ||
      !flags.number("breakpoint", spec.breakpoint_m) ||
      !flags.number("shadowing", spec.shadowing_db) ||
      !flags.integer("trace-cap", opt.trace_cap) ||
      !flags.flag("json", opt.json) ||
      !cli::scenario_flags(flags, spec, spec.mac == runner::MacKind::kScheme) ||
      !cli::check_spec(spec))
    return false;
  if (opt.trace_cap > 0 && opt.csv_trace.empty()) {
    std::cerr << "--trace-cap only bounds a trace being recorded; "
                 "combine it with --csv-trace\n";
    return false;
  }
  return true;
}

/// Every station reaches station 0 over the min-energy routes, i.e. the
/// routing graph is connected.
bool connected(const routing::RoutingTables& tables) {
  for (StationId s = 1; s < tables.size(); ++s)
    if (tables.next_hop(s, 0) == kNoStation) return false;
  return true;
}

bool write_trace(const sim::TraceRecorder& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return false;
  }
  trace.write_transmissions_csv(out);
  out << '\n';
  trace.write_receptions_csv(out);
  return true;
}

int run(const Options& opt) {
  const runner::ScenarioSpec& spec = opt.spec;
  runner::Trial trial(spec, opt.seed);
  sim::Simulator& sim = trial.simulator();
  sim::TraceRecorder trace(opt.trace_cap);
  if (!opt.csv_trace.empty()) sim.add_observer(&trace);
  const runner::TrialResult r = trial.run();
  const audit::InvariantAuditor* auditor = trial.auditor();
  const bool audit_failed = auditor != nullptr && !auditor->ok();
  const bool dynamics = spec.dynamics.enabled();
  const bool linked = connected(trial.scenario().tables);
  if (opt.json) {
    // One machine-readable line on stdout (schema drn-sim-v3), nothing else:
    // the run's settings, then the same outcome fields as a drn_sweep trial.
    runner::json::Writer w(std::cout, 0);
    w.begin_object();
    w.key("schema").value("drn-sim-v3");
    w.key("stations").value(spec.stations);
    w.key("region_m").value(spec.region_m);
    w.key("mac").value(runner::mac_name(spec.mac));
    w.key("engine").value(radio::engine_name(spec.engine));
    w.key("seed").value(opt.seed);
    w.key("rate_pps").value(spec.rate_pps);
    w.key("duration_s").value(spec.duration_s);
    w.key("connected").value(linked);
    runner::write_trial_fields(w, r, spec.audit, dynamics);
    w.end_object();
    std::cout << '\n';
    if (audit_failed) std::cerr << auditor->report();
    if (!opt.csv_trace.empty() && !write_trace(trace, opt.csv_trace)) return 3;
    return audit_failed ? 4 : 0;
  }
  const double min_gain = spec.net.target_received_w / spec.net.max_power_w;
  std::cout << "drn_sim: " << spec.stations << " stations, " << spec.region_m
            << " m disc, MAC=" << runner::mac_name(spec.mac)
            << ", seed=" << opt.seed << ", "
            << (linked ? "connected" : "NOT fully connected")
            << " (min usable gain " << min_gain << ", free-space reach "
            << 1.0 / std::sqrt(min_gain) << " m)\n\n";
  using analysis::Table;
  Table t({"metric", "value"});
  t.add_row({"offered packets", Table::num(r.offered)});
  t.add_row({"delivered", Table::num(r.delivered)});
  t.add_row({"delivery ratio", Table::num(r.delivery_ratio, 4)});
  t.add_row({"hop attempts", Table::num(r.hop_attempts)});
  t.add_row({"type 1 losses", Table::num(r.type1_losses)});
  t.add_row({"type 2 losses", Table::num(r.type2_losses)});
  t.add_row({"type 3 losses", Table::num(r.type3_losses)});
  t.add_row({"MAC drops (incl. unroutable)", Table::num(r.mac_drops)});
  if (r.delivered > 0) {
    t.add_row({"mean delay (ms)", Table::num(r.mean_delay_s * 1e3, 2)});
    t.add_row({"mean hops", Table::num(r.mean_hops, 2)});
  }
  t.add_row({"mean transmit duty", Table::num(r.mean_duty, 4)});
  if (dynamics) {
    t.add_row({"aborted (churn) losses", Table::num(r.aborted_losses)});
    t.add_row({"station leaves / joins", Table::num(r.station_leaves) +
                                             " / " +
                                             Table::num(r.station_joins)});
    t.add_row({"churn queue drops", Table::num(r.churn_drops)});
    t.add_row({"jammer noise bursts", Table::num(r.noise_bursts)});
    if (r.recoveries > 0) {
      t.add_row({"recoveries measured", Table::num(r.recoveries)});
      t.add_row({"median recovery (s)", Table::num(r.median_recovery_s, 3)});
    }
  }
  if (auditor) {
    t.add_row({"audit checks", Table::num(r.audit_checks)});
    t.add_row({"audit violations", Table::num(r.audit_violations)});
  }
  t.print(std::cout);
  if (audit_failed) std::cout << '\n' << auditor->report();

  if (!opt.csv_trace.empty()) {
    if (!write_trace(trace, opt.csv_trace)) return 3;
    std::cout << "\ntrace written to " << opt.csv_trace << '\n';
    if (trace.dropped_transmissions() > 0 || trace.dropped_receptions() > 0) {
      std::cout << "trace cap shed " << trace.dropped_transmissions()
                << " transmissions, " << trace.dropped_receptions()
                << " receptions\n";
    }
  }
  return audit_failed ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return drn::cli::run_main(argc, argv, print_help, parse, run);
}
