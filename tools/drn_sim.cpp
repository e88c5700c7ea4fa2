// drn_sim — command-line driver for the whole stack: build a random network,
// pick a MAC, offer Poisson traffic, print the outcome. A front end over
// runner::Trial; every scenario flag applies to every trial. One trial
// (Trial(spec, --seed)) prints a table or a drn-sim-v3 JSON line; when the
// axes and --seeds expand to more than one trial, runner::run_sweep runs
// them with --seed as master seed and prints one drn-sweep-v3 document,
// byte-identical for any --jobs (timing goes to stderr). Trial i of a sweep
// is the one-trial run with --seed trials[i].seed.
//
//   $ drn_sim --stations 50 --region 1200 --mac scheme --rate 300
//   $ drn_sim --mac aloha --seed 9 --csv-trace /tmp/trace.csv
//   $ drn_sim --stations 20:320:x2 --seeds 16 --mac scheme,aloha --jobs 8
//   $ drn_sim --help
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

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
  /// The axes, replication and base spec. One trial runs its only point at
  /// seed sweep.master_seed.
  runner::SweepSpec sweep;
  // One trial only.
  std::string csv_trace;
  std::size_t trace_cap = 0;
  bool json = false;
  // Sweep only.
  unsigned jobs = 1;
  bool progress = true;

  [[nodiscard]] bool is_sweep() const { return sweep.trial_count() > 1; }
};

/// Flags that mean something for one run shape only; given for the other,
/// they exit 2 rather than do nothing.
constexpr std::array kOneTrialFlags = {"csv-trace", "trace-cap", "json"};
constexpr std::array kSweepFlags = {"paired", "jobs", "progress"};

void print_help() {
  std::cout <<
      R"(drn_sim - dense packet radio network simulator (Shepard, SIGCOMM '96)

usage: drn_sim [--key value]...

One trial prints a table (or one JSON line). When the axes and --seeds
expand to more than one trial, the run is a sweep: every trial of the
cross-product, as one JSON document (schema drn-sweep-v3) on stdout.

axes (a value, a list a,b,c, lo:hi:xF geometric or lo:hi:+S arithmetic;
      e.g. 20:320:x2 -> 20 40 80 160 320, 200:600:+200 -> 200 400 600)
  --stations AXIS       station count               (default 40)
  --region AXIS         disc radius, metres         (default 1000)
  --mac LIST            scheme|aloha|slotted|csma|maca   (default scheme)
  --rate AXIS           aggregate Poisson offer, pkt/s   (default 200)

replication
  --seed N              one trial: its seed; a sweep: the master seed
                        (default 1)
  --seeds N             seed replicates per parameter point (default 1)

propagation
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
  --receive-fraction P  schedule receive duty p     (default 0.3)
  --slot S              slot duration               (default 0.01)

workload
  --duration S          offer window                (default 2)
  --drain S             extra time to drain queues  (default 60)

interference engine
  --engine NAME         compensated|nearfar         (default compensated)
                        compensated = exact Neumaier accumulation; nearfar =
                        grid-indexed exact near field + aggregated far-field
                        din
  --cutoff METERS       nearfar only: exact-summation radius (default 0 =
                        2x the free-space reach of the power budget)
  --cell METERS         nearfar only: grid cell side (default 0 = cutoff/4)

network dynamics (all off by default; see DESIGN.md "Network dynamics")
  --churn RATE          station crash rate, crashes/s  (default 0 = off)
  --churn-downtime S    mean downtime before rejoin    (default 5)
  --mobility MPS        random-waypoint speed          (default 0 = off)
  --mobility-step S     position update interval       (default 0.5)
  --drift PPMPS         clock slope half-width, ppm/s  (default 0 = off)
  --drift-step S        rate-step interval             (default 1)
  --jammers N           duty-cycled noise stations     (default 0)
  --jammer-period S     jammer burst period            (default 0.5)
  --jammer-duty F       fraction of period radiating   (default 0.2)
  --jammer-power W      jammer burst power             (default 1e-3)
  --beacon S            scheme maintenance-beacon interval; 0 = auto
                        (0.5 s when churn or drift is on)

output
  --audit 0|1           re-derive the physics invariants (Type 1/2/3
                        taxonomy, SINR identities, half-duplex, despreading
                        cap) from the event stream and cross-check the
                        metrics; exit 4 on any violation (default 0)
  --help                this text

one trial only
  --csv-trace PATH      dump the physical-layer trace as CSV
  --trace-cap N         keep only the newest N trace events per stream
                        (0 = unbounded; requires --csv-trace)
  --json 0|1            one-line JSON summary instead of the table (default 0)

sweep only
  --paired 0|1          common random numbers: replicate r of every
                        parameter point shares one seed, pairing MAC
                        comparisons on identical networks (default 0)
  --jobs N              worker threads (0 = all hardware threads; default 1)
  --progress 0|1        progress ticks on stderr    (default 1)

The sweep document is byte-identical for any --jobs value; its timing
{"jobs","trials","wall_s","trials_per_s"} prints to stderr.
)";
}

/// Parses "a,b,c" piece by piece; nullopt if any piece fails.
template <typename T, typename Parse>
std::optional<std::vector<T>> parse_list(const std::string& text,
                                         Parse&& parse) {
  std::vector<T> out;
  for (std::size_t pos = 0;;) {
    const auto comma = text.find(',', pos);
    const auto piece = parse(text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (!piece) return std::nullopt;
    out.push_back(*piece);
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

/// Parses an axis: "a,b,c" | "lo:hi:xF" | "lo:hi:+S" | single value.
std::optional<std::vector<double>> parse_axis(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos)
    return parse_list<double>(text, cli::parse_number);
  const auto colon2 = text.find(':', colon + 1);
  if (colon2 == std::string::npos || colon2 + 1 >= text.size())
    return std::nullopt;
  const auto lo = cli::parse_number(text.substr(0, colon));
  const auto hi = cli::parse_number(text.substr(colon + 1, colon2 - colon - 1));
  const char kind = text[colon2 + 1];
  const auto step = cli::parse_number(text.substr(colon2 + 2));
  if (!lo || !hi || !step) return std::nullopt;
  if (kind == 'x' ? (*lo <= 0.0 || *step <= 1.0)
                  : (kind != '+' || *step <= 0.0))
    return std::nullopt;
  std::vector<double> out;
  // Tiny epsilon so "20:320:x2" includes 320 despite rounding.
  for (double v = *lo; v <= *hi * (1.0 + 1e-12);
       v = (kind == 'x') ? v * *step : v + *step) {
    out.push_back(v);
    if (out.size() > 100000) return std::nullopt;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::optional<std::vector<std::size_t>> parse_count_axis(
    const std::string& text) {
  const auto vals = parse_axis(text);
  if (!vals) return std::nullopt;
  std::vector<std::size_t> out;
  for (double v : *vals) {
    if (v < 1.0 || v != std::floor(v)) return std::nullopt;
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

std::optional<std::vector<runner::MacKind>> parse_mac_list(
    const std::string& text) {
  return parse_list<runner::MacKind>(text, runner::parse_mac);
}

bool parse(cli::Flags& flags, Options& opt) {
  runner::SweepSpec& sweep = opt.sweep;
  if (!flags.parsed("stations", parse_count_axis, sweep.stations) ||
      !flags.parsed("region", parse_axis, sweep.region_m) ||
      !flags.parsed("mac", parse_mac_list, sweep.macs) ||
      !flags.parsed("rate", parse_axis, sweep.rates_pps) ||
      !flags.integer("seed", sweep.master_seed) ||
      !flags.integer("seeds", sweep.seeds))
    return false;
  if (sweep.seeds == 0) {
    std::cerr << "--seeds must be >= 1\n";
    return false;
  }
  const bool scheme =
      std::find(sweep.macs.begin(), sweep.macs.end(),
                runner::MacKind::kScheme) != sweep.macs.end();
  if (!cli::scenario_flags(flags, sweep.base, scheme)) return false;
  for (const char* name : opt.is_sweep() ? kOneTrialFlags : kSweepFlags) {
    if (!flags.has(name)) continue;
    std::cerr << "--" << name << " does nothing in "
              << (opt.is_sweep() ? "a sweep (more than one trial)"
                                 : "a one-trial run")
              << '\n';
    return false;
  }
  flags.text("csv-trace", opt.csv_trace);
  if (!flags.integer("trace-cap", opt.trace_cap) ||
      !flags.flag("json", opt.json) ||
      !flags.flag("paired", sweep.paired_seeds) ||
      !flags.integer("jobs", opt.jobs) ||
      !flags.flag("progress", opt.progress))
    return false;
  if (opt.trace_cap > 0 && opt.csv_trace.empty()) {
    std::cerr << "--trace-cap only bounds a trace being recorded; "
                 "combine it with --csv-trace\n";
    return false;
  }
  for (const runner::SweepTrial& trial : runner::expand(sweep))
    if (!cli::check_spec(runner::trial_scenario(sweep, trial))) return false;
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

int run_one(const Options& opt) {
  const runner::ScenarioSpec spec =
      runner::trial_scenario(opt.sweep, runner::expand(opt.sweep).front());
  const std::uint64_t seed = opt.sweep.master_seed;
  runner::Trial trial(spec, seed);
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
    // the run's settings, then the same outcome fields as a sweep trial.
    runner::json::Writer w(std::cout, 0);
    w.begin_object();
    w.key("schema").value("drn-sim-v3");
    w.key("stations").value(spec.stations);
    w.key("region_m").value(spec.region_m);
    w.key("mac").value(runner::mac_name(spec.mac));
    w.key("engine").value(radio::engine_name(spec.engine));
    w.key("seed").value(seed);
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
            << ", seed=" << seed << ", "
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

int run_many(const Options& opt) {
  const runner::SweepSpec& sweep = opt.sweep;
  std::function<void(std::size_t, std::size_t)> progress;
  if (opt.progress) {
    progress = [](std::size_t done, std::size_t n) {
      // \r progress tick; worker threads interleave at worst harmlessly.
      std::cerr << "\rdrn_sim: " << done << "/" << n << " trials" << std::flush;
    };
  }
  const auto result = runner::run_sweep(sweep, opt.jobs, progress);
  if (opt.progress) std::cerr << '\n';
  runner::write_results_json(std::cout, sweep, result);
  runner::write_timing_json(std::cerr, result);

  std::uint64_t violations = 0;  // stays 0 unless --audit 1
  for (const auto& r : result.results) violations += r.audit_violations;
  if (violations == 0) return 0;
  std::cerr << "drn_sim: invariant audit found " << violations
            << " violations across " << result.trials.size() << " trials\n";
  return 4;
}

int run(const Options& opt) {
  return opt.is_sweep() ? run_many(opt) : run_one(opt);
}

}  // namespace

int main(int argc, char** argv) {
  return drn::cli::run_main(argc, argv, print_help, parse, run);
}
