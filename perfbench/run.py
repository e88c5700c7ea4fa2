#!/usr/bin/env python3
"""The drn benchmark: builds drn_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Each trial is one process of
drn_perfbench (single-threaded), so a trial's peak RSS is its own. A run:

1. checks the workload's smoke shape against its pinned fingerprint
   (fingerprints.json), untimed;
2. repeats timed trials (tracing off) at --seed until --seconds have passed,
   at least twice, and reports the medians;
3. with --trace 1, spends about half of --seconds on timed trials and the
   rest on traced trials, and reports the per-layer metrics instead.

A trial fails when it exits non-zero (an exception or a ContractViolation),
fails the output checks, or its fingerprint differs from the other trials of
the run (traced ones included) or, at the pinned seed, from the pin. The last
line of stdout is the JSON result; see README.md for the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "drn_perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
WORKLOADS = ("scheme_mesh", "aloha_contention", "metro_setup")
MIN_TRIALS = 2
TRIAL_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits 1 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(1)


def trial(workload, seed, trace, smoke=False):
    """One drn_perfbench process; its JSON record, or None if it failed."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--smoke", "1" if smoke else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: trial timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(f"run.py: trial exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"run.py: trial printed no record: {proc.stdout[-200:]!r}")
        return None


class Ledger:
    """Counts attempted and failed trials; all must share one fingerprint."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None

    def record(self, rec, pinned=None):
        self.attempted += 1
        reason = None
        if rec is None:
            reason = "trial did not complete"
        elif rec["check"]:
            reason = rec["check"]
        elif pinned is not None and rec["fingerprint"] != pinned:
            reason = f"fingerprint {rec['fingerprint']} != pinned {pinned}"
        elif self.fingerprint not in (None, rec["fingerprint"]):
            reason = (f"fingerprint {rec['fingerprint']} != "
                      f"{self.fingerprint} earlier in this run")
        if reason is not None:
            self.failed += 1
            log(f"run.py: failed trial: {reason}")
            return False
        if self.fingerprint is None:
            self.fingerprint = rec["fingerprint"]
        return True


def repeat(workload, seed, trace, until, min_trials, ledger, pinned):
    """Runs trials until the monotonic clock passes `until`, at least
    `min_trials` of them; returns the good records."""
    good = []
    tries = 0
    while True:
        rec = trial(workload, seed, trace)
        tries += 1
        if ledger.record(rec, pinned):
            good.append(rec)
            log(f"run.py: {'traced' if trace else 'timed'} trial {tries}: "
                f"setup_s {rec['setup_s']:.4f} loop_s {rec['loop_s']:.4f} "
                f"trial_s {rec['trial_s']:.4f}")
        enough = tries >= min_trials
        if enough and time.monotonic() >= until:
            return good


def median(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(timed):
    return {
        "setup_s": (median(timed, "setup_s"), "s"),
        "loop_s": (median(timed, "loop_s"), "s"),
        "trial_s": (median(timed, "trial_s"), "s"),
        "peak_rss_mb": (median(timed, "peak_rss_mb"), "MiB"),
    }


def per_layer(timed, traced):
    def traced_med(fn):
        return statistics.median(fn(r) for r in traced)

    stations = traced[0]["stations"]
    events = traced[0]["events"]
    engine = traced_med(lambda r: r["engine"]["calls"])
    return {
        "geo.placement_s": (traced_med(lambda r: r["placement_s"]), "s"),
        "radio.gains_s": (traced_med(lambda r: r["gains_s"]), "s"),
        "radio.gains_bytes": (stations * stations * 8, "B"),
        "core.build_s": (traced_med(lambda r: r["build_s"]), "s"),
        "core.neighbors_per_station":
            (traced[0]["neighbors_per_station"], "count"),
        "routing.graph_s": (traced_med(lambda r: r["graph_s"]), "s"),
        "routing.graph_edges": (traced[0]["graph_edges"], "count"),
        "routing.tables_s": (traced_med(lambda r: r["tables_s"]), "s"),
        "routing.tables_bytes": (stations * stations * 12, "B"),
        "routing.router_copy_s":
            (traced_med(lambda r: r["router_copy_s"]), "s"),
        "routing.lookups": (traced_med(lambda r: r["router"]["calls"]),
                            "count"),
        "routing.lookup_s": (traced_med(lambda r: r["router"]["total_s"]),
                             "s"),
        "routing.dst_share": (timed[0]["dst_share"], "ratio"),
        "radio.engine_build_s":
            (traced_med(lambda r: r["engine_build_s"]), "s"),
        "radio.engine_calls": (engine, "count"),
        "radio.engine_self_s":
            (traced_med(lambda r: r["engine"]["self_s"]), "s"),
        "radio.engine_calls_per_event": (engine / events, "calls/event"),
        "radio.fanout_per_tx": (
            traced_med(lambda r: r["fanout_callbacks"] / r["fanout_calls"]),
            "cb/call"),
        "sim.medium_cb_calls":
            (traced_med(lambda r: r["medium_cb"]["calls"]), "count"),
        "sim.medium_cb_s":
            (traced_med(lambda r: r["medium_cb"]["self_s"]), "s"),
        "mac.calls": (traced_med(lambda r: r["mac"]["calls"]), "count"),
        "mac.self_s": (traced_med(lambda r: r["mac"]["self_s"]), "s"),
        "mac.ctx_s": (traced_med(lambda r: r["mac_ctx"]["total_s"]), "s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / median(timed, "loop_s"), "1/s"),
        "sim.peak_queue_bytes": (timed[0]["peak_queue_bytes"], "B"),
        "sim.compactions": (traced[0]["compactions"], "count"),
        "sim.loop_self_s": (traced_med(
            lambda r: r["loop_s"] - r["engine"]["self_s"]
            - r["medium_cb"]["self_s"] - r["mac"]["self_s"]
            - r["router"]["self_s"]), "s"),
        "sim.hop_success_ratio":
            (traced[0]["hop_successes"] / traced[0]["hop_attempts"], "ratio"),
        "trace_overhead":
            (median(traced, "trial_s") / median(timed, "trial_s"), "ratio"),
    }


def selftest():
    build()
    return subprocess.run([SELFTEST]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the equivalence self-tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    with open(os.path.join(HERE, "fingerprints.json")) as f:
        pins = json.load(f)
    seed = pins["default_seed"] if args.seed is None else args.seed
    build()

    # Untimed: the smoke shape must still produce its pinned outputs.
    smoke = Ledger()
    smoke.record(trial(args.workload, pins["default_seed"], False, smoke=True),
                 pins["smoke"][args.workload])

    ledger = Ledger()
    pinned = (pins["full"][args.workload]
              if seed == pins["default_seed"] else None)
    start = time.monotonic()
    share = 0.5 if args.trace else 1.0
    timed = repeat(args.workload, seed, False, start + share * args.seconds,
                   1 if args.trace else MIN_TRIALS, ledger, pinned)
    traced = []
    if args.trace:
        traced = repeat(args.workload, seed, True, start + args.seconds, 1,
                        ledger, pinned)

    attempted = smoke.attempted + ledger.attempted
    failed = smoke.failed + ledger.failed
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    if timed and (traced or not args.trace):
        values = per_layer(timed, traced) if args.trace else end_to_end(timed)
        result["metrics"] = {name: {"value": v, "unit": unit}
                             for name, (v, unit) in values.items()}
    print(f"{args.workload} seed {seed}: {len(timed)} timed and "
          f"{len(traced)} traced trials, fingerprint {ledger.fingerprint}")
    print(f"  failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
