// drn_perfbench: runs one benchmark trial and prints it as one JSON line.
//
//   drn_perfbench --workload NAME --seed N [--trace 0|1] [--smoke 0|1]
//
// --trace 0 runs the timed trial (tracing off); --trace 1 the traced trial.
// --smoke 1 runs the workload's shrunken shape instead of the full size.
// perfbench/run.py drives this binary, one process per trial, so each
// process's peak RSS is that trial's memory high-water mark. Exit status 2
// means bad arguments, 1 a trial that threw (a contract violation included).
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "trial.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Boundary;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_common(const perfbench::Workload& w, std::uint64_t seed,
                  const drn::runner::TrialResult& r) {
  const std::string check = perfbench::check_outputs(w, r);
  std::printf(
      "{\"workload\": \"%.*s\", \"seed\": %" PRIu64 ", \"stations\": %zu, "
      "\"fingerprint\": \"%016" PRIx64 "\", \"outputs\": \"%s\", "
      "\"check\": \"%s\", \"delivery_ratio\": %.6f, "
      "\"hop_attempts\": %" PRIu64 ", \"hop_successes\": %" PRIu64,
      static_cast<int>(w.name.size()), w.name.data(), seed, w.spec.stations,
      perfbench::fingerprint(r), perfbench::describe(r).c_str(), check.c_str(),
      r.delivery_ratio, r.hop_attempts, r.hop_successes);
}

void print_timed(const perfbench::Workload& w, std::uint64_t seed) {
  const perfbench::TimedTrial t = perfbench::run_timed(w, seed);
  print_common(w, seed, t.result);
  std::printf(
      ", \"setup_s\": %.9f, \"loop_s\": %.9f, \"trial_s\": %.9f, "
      "\"peak_rss_mb\": %.6f, \"events\": %" PRIu64
      ", \"peak_queue_bytes\": %" PRIu64 ", \"compactions\": %" PRIu64
      ", \"dst_share\": %.9f}\n",
      t.setup_s, t.loop_s, t.trial_s, peak_rss_mb(), t.events,
      t.peak_queue_bytes, t.compactions, t.dst_share);
}

void print_boundary(const char* key, const perfbench::BoundaryStats& b) {
  std::printf(", \"%s\": {\"calls\": %" PRIu64 ", \"total_s\": %.9f, "
              "\"self_s\": %.9f}",
              key, b.calls, b.total_s(), b.self_s());
}

void print_traced(const perfbench::Workload& w, std::uint64_t seed) {
  perfbench::TracedTrial t;
  perfbench::run_traced(w, seed, t);
  print_common(w, seed, t.result);
  std::printf(
      ", \"setup_s\": %.9f, \"loop_s\": %.9f, \"trial_s\": %.9f, "
      "\"placement_s\": %.9f, \"gains_s\": %.9f, \"build_s\": %.9f, "
      "\"graph_s\": %.9f, \"tables_s\": %.9f, \"engine_build_s\": %.9f, "
      "\"router_copy_s\": %.9f, \"graph_edges\": %" PRIu64
      ", \"neighbors_per_station\": %.9f, \"events\": %" PRIu64
      ", \"compactions\": %" PRIu64 ", \"fanout_calls\": %" PRIu64
      ", \"fanout_callbacks\": %" PRIu64,
      t.setup_s, t.loop_s, t.trial_s, t.placement_s, t.gains_s,
      t.build_s, t.graph_s, t.tables_s, t.engine_build_s,
      t.router_copy_s, t.graph_edges, t.neighbors_per_station, t.events,
      t.compactions, t.tracer.fanout_calls, t.tracer.fanout_callbacks);
  print_boundary("engine", t.tracer.stats(Boundary::kEngine));
  print_boundary("medium_cb", t.tracer.stats(Boundary::kMediumCb));
  print_boundary("mac", t.tracer.stats(Boundary::kMac));
  print_boundary("mac_ctx", t.tracer.stats(Boundary::kMacCtx));
  print_boundary("router", t.tracer.stats(Boundary::kRouter));
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: drn_perfbench --workload NAME --seed N "
               "[--trace 0|1] [--smoke 0|1]\n");
  return 2;
}

bool parse_flag(const char* text, bool& out) {
  const std::string_view v(text);
  if (v != "0" && v != "1") return false;
  out = v == "1";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string_view name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag(argv[i]);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
      have_seed = true;
    } else if (flag == "--trace") {
      if (!parse_flag(value, trace)) return usage();
    } else if (flag == "--smoke") {
      if (!parse_flag(value, smoke)) return usage();
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed) return usage();
  auto workload = perfbench::find_workload(name);
  if (!workload) {
    std::fprintf(stderr, "drn_perfbench: unknown workload '%.*s'\n",
                 static_cast<int>(name.size()), name.data());
    return 2;
  }
  if (smoke) workload = perfbench::smoke_workload(*workload);
  try {
    if (trace)
      print_traced(*workload, seed);
    else
      print_timed(*workload, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drn_perfbench: trial failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
