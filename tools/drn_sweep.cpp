// drn_sweep — parallel, deterministic experiment sweeps over the simulator.
//
// Every figure/table in the paper is a sweep over stations, load, MAC and
// seeds; this tool exposes that as a declarative cross-product fanned across
// a thread pool, with JSON results suitable for plotting.
//
//   $ drn_sweep --stations 20:320:x2 --seeds 16 --mac scheme,aloha
//               --jobs 8 --json out.json
//   $ drn_sweep --stations 50,100 --rate 200:600:+200 --seeds 4
//
// Determinism: the results document is a pure function of the sweep spec —
// byte-identical for any --jobs value (trial RNG is derived from the trial
// index, never from scheduling). Timing (wall seconds, trials/sec) is
// emitted as a separate JSON line on stderr so results files can be diffed.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "runner/sweep.hpp"

namespace {

using namespace drn;

struct Options {
  runner::SweepSpec spec;
  unsigned jobs = 1;
  std::string json_path;  // empty = stdout
  bool progress = true;
};

void print_help() {
  std::cout <<
      R"(drn_sweep - parallel deterministic experiment sweeps (Shepard, SIGCOMM '96)

usage: drn_sweep [--key value]...

Axis values accept three forms:
  a,b,c       explicit list          (e.g. --stations 50,100,200)
  lo:hi:xF    geometric, step xF     (e.g. --stations 20:320:x2 -> 20 40 80 160 320)
  lo:hi:+S    arithmetic, step +S    (e.g. --rate 200:600:+200 -> 200 400 600)
Engine and network-dynamics flags apply to every trial.

axes (cross-product; every combination is a parameter point)
  --stations AXIS       station counts              (default 40)
  --region AXIS         disc radii, metres          (default 1000)
  --mac LIST            scheme|aloha|slotted|csma|maca  (default scheme)
  --rate AXIS           aggregate Poisson pkt/s     (default 200)

replication
  --seeds N             seed replicates per point   (default 1)
  --seed N              master seed                 (default 1)
  --paired 0|1          common random numbers: replicate r of every
                        parameter point shares one seed, pairing MAC
                        comparisons on identical networks (default 0)

workload
  --duration S          offer window                (default 2)
  --drain S             extra drain time            (default 60)

)" << cli::kScenarioFlagsHelp << R"(
execution
  --jobs N              worker threads (0 = all hardware threads; default 1)
  --progress 0|1        progress ticks on stderr    (default 1)
  --json PATH           results file (default: stdout)
  --audit 0|1           ride an invariant auditor along on every trial; the
                        per-trial verdict lands in the results JSON and any
                        violation fails the sweep with exit 4 (default 0)

The results JSON (schema drn-sweep-v3) is byte-identical for any --jobs
value. Timing {"jobs","trials","wall_s","trials_per_s"} prints to stderr.
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
    if (v < 1.0) return std::nullopt;
    out.push_back(static_cast<std::size_t>(v + 0.5));
  }
  return out;
}

std::optional<std::vector<runner::MacKind>> parse_mac_list(
    const std::string& text) {
  return parse_list<runner::MacKind>(text, runner::parse_mac);
}

bool parse(cli::Flags& flags, Options& opt) {
  if (!flags.parsed("stations", parse_count_axis, opt.spec.stations) ||
      !flags.parsed("region", parse_axis, opt.spec.region_m) ||
      !flags.parsed("mac", parse_mac_list, opt.spec.macs) ||
      !flags.parsed("rate", parse_axis, opt.spec.rates_pps))
    return false;
  const bool scheme_in_sweep =
      std::find(opt.spec.macs.begin(), opt.spec.macs.end(),
                runner::MacKind::kScheme) != opt.spec.macs.end();
  flags.text("json", opt.json_path);
  if (!flags.integer("seeds", opt.spec.seeds) ||
      !flags.integer("seed", opt.spec.master_seed) ||
      !flags.number("duration", opt.spec.base.duration_s) ||
      !flags.number("drain", opt.spec.base.drain_s) ||
      !flags.integer("jobs", opt.jobs) ||
      !flags.flag("paired", opt.spec.paired_seeds) ||
      !flags.flag("progress", opt.progress) ||
      !cli::scenario_flags(flags, opt.spec.base, scheme_in_sweep))
    return false;
  if (opt.spec.seeds == 0) {
    std::cerr << "--seeds must be >= 1\n";
    return false;
  }
  for (const runner::SweepTrial& trial : runner::expand(opt.spec))
    if (!cli::check_spec(runner::trial_scenario(opt.spec, trial)))
      return false;
  return true;
}

int run(const Options& opt) {
  const auto total = opt.spec.trial_count();
  std::function<void(std::size_t, std::size_t)> progress;
  if (opt.progress) {
    progress = [](std::size_t done, std::size_t n) {
      // \r progress tick; worker threads interleave at worst harmlessly.
      std::cerr << "\rdrn_sweep: " << done << "/" << n << " trials" << std::flush;
    };
  }
  const auto result = runner::run_sweep(opt.spec, opt.jobs, progress);
  if (opt.progress) std::cerr << '\n';

  if (opt.json_path.empty() || opt.json_path == "-") {
    runner::write_results_json(std::cout, opt.spec, result);
  } else {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "cannot write " << opt.json_path << '\n';
      return 3;
    }
    runner::write_results_json(out, opt.spec, result);
    std::cerr << "results (" << total << " trials) written to "
              << opt.json_path << '\n';
  }
  runner::write_timing_json(std::cerr, result);

  if (opt.spec.base.audit) {
    std::uint64_t violations = 0;
    for (const auto& r : result.results) violations += r.audit_violations;
    if (violations > 0) {
      std::cerr << "drn_sweep: invariant audit found " << violations
                << " violations across " << total << " trials\n";
      return 4;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return drn::cli::run_main(argc, argv, print_help, parse, run);
}
