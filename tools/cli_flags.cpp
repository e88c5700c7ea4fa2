#include "cli_flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "radio/interference_engine.hpp"

namespace drn::cli {

std::optional<double> parse_number(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_unsigned(const std::string& text,
                                            std::uint64_t max) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || v > max) return std::nullopt;
  return v;
}

std::optional<bool> parse_flag(const std::string& text) {
  if (text != "0" && text != "1") return std::nullopt;
  return text == "1";
}

bool Flags::split(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      help_ = true;
      return true;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "bad argument: " << key << " (try --help)\n";
      return false;
    }
    kv_[key.substr(2)] = argv[++i];
  }
  return true;
}

bool Flags::bad(const std::string& name, const std::string& text) {
  std::cerr << "bad --" << name << " value: " << text << " (try --help)\n";
  return false;
}

bool Flags::finish() const {
  if (kv_.empty()) return true;
  std::cerr << "unknown option: --" << kv_.begin()->first << " (try --help)\n";
  return false;
}

bool check_spec(const runner::ScenarioSpec& spec) {
  if (spec.stations < 2 || spec.stations > radio::kDenseMatrixGuardM) {
    std::cerr << "--stations must be between 2 and "
              << radio::kDenseMatrixGuardM
              << " (the dense-matrix guard); got " << spec.stations << '\n';
    return false;
  }
  const core::ScheduledNetworkConfig& net = spec.net;
  const double p = net.receive_fraction;
  const struct {
    const char* flag;
    double value;
    bool ok;
    const char* rule;
  } checks[] = {
      {"region", spec.region_m, spec.region_m > 0.0, "> 0"},
      {"rate", spec.rate_pps, spec.rate_pps > 0.0, "> 0"},
      {"duration", spec.duration_s, spec.duration_s > 0.0, "> 0"},
      {"drain", spec.drain_s, spec.drain_s >= 0.0, ">= 0"},
      {"margin", spec.margin_db, spec.margin_db >= 0.0, ">= 0"},
      {"bandwidth", spec.bandwidth_hz, spec.bandwidth_hz > 0.0, "> 0"},
      {"data-rate", spec.data_rate_bps, spec.data_rate_bps > 0.0, "> 0"},
      {"target-power", net.target_received_w, net.target_received_w > 0.0,
       "> 0"},
      {"max-power", net.max_power_w, net.max_power_w > 0.0, "> 0"},
      {"slot", net.slot_s, net.slot_s > 0.0, "> 0"},
      {"receive-fraction", p, p > 0.0 && p < 1.0, "in (0, 1)"},
      {"breakpoint", spec.breakpoint_m,
       !spec.dual_slope || spec.breakpoint_m > 0.0, "> 0 under --dual-slope 1"},
  };
  for (const auto& c : checks) {
    if (c.ok) continue;
    std::cerr << "--" << c.flag << " must be " << c.rule << "; got "
              << c.value << '\n';
    return false;
  }
  return true;
}

bool scenario_flags(Flags& flags, runner::ScenarioSpec& spec, bool scheme) {
  const bool jammer_knobs = flags.has("jammer-period") ||
                            flags.has("jammer-duty") ||
                            flags.has("jammer-power");
  auto& dyn = spec.dynamics;
  double beacon_s = 0.0;
  if (!flags.parsed("engine", radio::parse_engine, spec.engine) ||
      !flags.number("cutoff", spec.engine_cutoff_m) ||
      !flags.number("cell", spec.engine_cell_m) ||
      !flags.number("churn", dyn.churn_rate_per_s) ||
      !flags.number("churn-downtime", dyn.mean_downtime_s) ||
      !flags.number("mobility", dyn.mobility_speed_mps) ||
      !flags.number("mobility-step", dyn.mobility_step_s) ||
      !flags.number("drift", dyn.drift_ppm_per_s) ||
      !flags.number("drift-step", dyn.drift_step_s) ||
      !flags.integer("jammers", dyn.jammer.count) ||
      !flags.number("jammer-period", dyn.jammer.period_s) ||
      !flags.number("jammer-duty", dyn.jammer.duty) ||
      !flags.number("jammer-power", dyn.jammer.power_w) ||
      !flags.number("beacon", beacon_s) || !flags.flag("audit", spec.audit))
    return false;
  if ((spec.engine_cutoff_m > 0.0 || spec.engine_cell_m > 0.0) &&
      spec.engine != radio::InterferenceEngineKind::kNearFar) {
    std::cerr << "--cutoff/--cell tune the near/far engine; "
                 "combine them with --engine nearfar\n";
    return false;
  }
  if (spec.engine_cell_m > spec.nearfar_cutoff_m()) {
    std::cerr << "--cell " << spec.engine_cell_m
              << " is wider than the near/far cutoff ("
              << spec.nearfar_cutoff_m() << " m); pick a cell <= the cutoff\n";
    return false;
  }
  if (dyn.churn_rate_per_s < 0.0 || dyn.mobility_speed_mps < 0.0 ||
      dyn.drift_ppm_per_s < 0.0) {
    std::cerr << "--churn/--mobility/--drift rates must be >= 0\n";
    return false;
  }
  if (dyn.churn_enabled() && dyn.mean_downtime_s <= 0.0) {
    std::cerr << "--churn-downtime must be > 0 when --churn is on\n";
    return false;
  }
  if (dyn.mobility_enabled() && dyn.mobility_step_s <= 0.0) {
    std::cerr << "--mobility-step must be > 0 when --mobility is on\n";
    return false;
  }
  if (dyn.drift_enabled() && dyn.drift_step_s <= 0.0) {
    std::cerr << "--drift-step must be > 0 when --drift is on\n";
    return false;
  }
  if (dyn.jammer.count == 0 && jammer_knobs) {
    std::cerr << "--jammer-* tune the jammers; combine them with "
                 "--jammers N\n";
    return false;
  }
  if (dyn.jammer.count > 0 &&
      (dyn.jammer.period_s <= 0.0 || dyn.jammer.duty <= 0.0 ||
       dyn.jammer.duty > 1.0 || dyn.jammer.power_w <= 0.0)) {
    std::cerr << "--jammer-period/--jammer-power must be > 0 and "
                 "--jammer-duty in (0, 1]\n";
    return false;
  }
  if (beacon_s < 0.0) {
    std::cerr << "--beacon must be >= 0\n";
    return false;
  }
  // Under churn or drift the scheme needs maintenance beacons to evict
  // ghosts, re-adopt returnees and re-fit drifting clocks.
  if (scheme &&
      (dyn.churn_enabled() || dyn.drift_enabled() || beacon_s > 0.0)) {
    spec.net.beacon_interval_s = beacon_s > 0.0 ? beacon_s : 0.5;
    if (dyn.churn_enabled()) {
      spec.net.neighbor_timeout_s = 12.0 * spec.net.beacon_interval_s;
      spec.net.readopt_neighbors = true;
    }
  }
  return true;
}

const char* const kScenarioFlagsHelp =
    R"(interference engine
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
)";

}  // namespace drn::cli
