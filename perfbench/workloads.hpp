// The benchmark's workloads: three ScenarioSpecs at one station density
// (uniform disc, ~4.1e-5 stations/m^2), each stressing a different part of
// the simulator. Every knob a trial reads is assigned here explicitly, so a
// later change to a library default cannot silently move a pinned
// fingerprint (see README.md).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "runner/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  drn::runner::ScenarioSpec spec;
};

/// Names of every workload, in the order BENCHMARK.json lists them.
[[nodiscard]] std::vector<std::string_view> workload_names();

/// The full-size workload, or nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> find_workload(std::string_view name);

/// The same workload shape (MAC, engine, density, per-station load) shrunk to
/// a few seconds of work: what the self-tests and the per-run smoke
/// fingerprint check run.
[[nodiscard]] Workload smoke_workload(const Workload& full);

}  // namespace perfbench
