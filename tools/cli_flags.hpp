// Command-line handling shared by drn_sim and drn_sweep: the argv -> --key
// value split, strict value parsing, unknown-option rejection and the
// scenario flags both CLIs accept. A malformed command line is a message on
// stderr and exit status 2, never an abort or a silently defaulted value.
//
// Lives next to the CLIs rather than in src/: library code does not print
// (drn_lint's iostream-lib rule).
#pragma once

#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "runner/scenario.hpp"

namespace drn::cli {

/// Strict value parsers: the whole text or nothing.
std::optional<double> parse_number(const std::string& text);  // finite
std::optional<std::uint64_t> parse_unsigned(const std::string& text,
                                            std::uint64_t max);  // digits
std::optional<bool> parse_flag(const std::string& text);  // "0" | "1"

/// The --key value pairs of one command line. Each getter consumes its key
/// and leaves `out` alone when the key is absent; on a malformed value it
/// prints why and returns false.
class Flags {
 public:
  /// Splits argv. False (message printed) on a stray or valueless argument;
  /// --help / -h stops the split and sets help().
  bool split(int argc, char** argv);
  [[nodiscard]] bool help() const { return help_; }
  [[nodiscard]] bool has(const std::string& name) const {
    return kv_.count(name) > 0;
  }

  /// Takes `name` through `parse` (text -> optional value) into `out`.
  template <typename Parse, typename T>
  bool parsed(const std::string& name, Parse&& parse, T& out) {
    const auto it = kv_.find(name);
    if (it == kv_.end()) return true;
    auto value = parse(it->second);
    if (!value) return bad(name, it->second);
    out = std::move(*value);
    kv_.erase(it);
    return true;
  }
  bool number(const std::string& name, double& out) {
    return parsed(name, parse_number, out);
  }
  template <typename T>
  bool integer(const std::string& name, T& out) {
    const auto in_range = [](const std::string& text) -> std::optional<T> {
      const auto v = parse_unsigned(text, std::numeric_limits<T>::max());
      if (!v) return std::nullopt;
      return static_cast<T>(*v);
    };
    return parsed(name, in_range, out);
  }
  bool flag(const std::string& name, bool& out) {
    return parsed(name, parse_flag, out);
  }
  void text(const std::string& name, std::string& out) {
    (void)parsed(name, [](const std::string& t) { return std::optional{t}; },
                 out);
  }

  /// False (message printed) if any flag was left unconsumed.
  [[nodiscard]] bool finish() const;

 private:
  /// Prints "bad --name value: text" and returns false.
  static bool bad(const std::string& name, const std::string& text);

  std::map<std::string, std::string> kv_;
  bool help_ = false;
};

/// A spec a trial can run without tripping a library contract: 2 ..
/// radio::kDenseMatrixGuardM stations, a positive region, offer rate and
/// window, a non-negative drain, and a radio design point and network config
/// the builders accept. False (message naming the flag printed) otherwise.
bool check_spec(const runner::ScenarioSpec& spec);

/// The flags both CLIs share, applied to `spec` and validated: --engine,
/// --cutoff, --cell (no wider than the cutoff in force), the dynamics flags
/// (--churn ... --jammer-power), --beacon and --audit. Call it after the
/// flags that set spec.net's powers, which the default cutoff derives from. `scheme` says whether a scheme MAC will run; under
/// churn or drift (or an explicit --beacon) its maintenance beacons are
/// configured.
bool scenario_flags(Flags& flags, runner::ScenarioSpec& spec, bool scheme);

/// --help text for the engine and dynamics flags scenario_flags() takes.
extern const char* const kScenarioFlagsHelp;

/// A CLI's main(): --help prints and exits 0; a command line `parse` rejects
/// or leaves flags unconsumed exits 2; otherwise run(options), reporting an
/// exception as exit 1.
template <typename Options>
int run_main(int argc, char** argv, void (*print_help)(),
             bool (*parse)(Flags&, Options&), int (*run)(const Options&)) {
  Flags flags;
  if (!flags.split(argc, argv)) return 2;
  if (flags.help()) {
    print_help();
    return 0;
  }
  Options opt;
  if (!parse(flags, opt) || !flags.finish()) return 2;
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace drn::cli
