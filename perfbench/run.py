#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet_replay|box_replay|qa_eval \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --digest [--seed N]

Run from the repository root.  The first call configures and builds
perfbench/ (the focus_core library from src/ plus focusbench) into
.bench_build/focusbench; later calls rebuild only what changed.  Build
output goes to stderr; the last stdout line is one JSON object with
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
runs one set-up, one round and the verification under FOCUS_OBS=trace,
then replays that round alternately untraced and traced; it prints the
self-time table of the traced part and reports the per-layer metrics
(perfbench/layers.py).  --digest prints a SHA-256 of every simulated
statistic and functional result per workload, so two commits can be
compared bit for bit.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import layers  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "focusbench")
BIN = os.path.join(BUILD, "focusbench")
WORKLOADS = ["fleet_replay", "box_replay", "qa_eval"]
# Build parallelism, and the program's pool width.  The pool is one
# thread wide: at four threads the replay workloads run whole rounds in
# a fast or a slow regime at random (fleet rounds of the same size took
# 8-26 s) and qa_eval's peak RSS spreads 0.24 of its median over eight
# seeds, at the bound (see README.md).
NPROC = max(1, min(4, os.cpu_count() or 1))
POOL_THREADS = 1
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build focusbench; exit 1 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "focusbench",
                  "-j", str(NPROC)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed:", err)
            sys.exit(1)
        if proc.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)


def bench_env(obs_mode):
    """The production configuration, pinned through the environment."""
    env = dict(os.environ)
    env.update({
        "FOCUS_MATH_BACKEND": "vector",
        "FOCUS_GEMM_BACKEND": "portable",
        "FOCUS_SIM_BACKEND": "fast",
        "FOCUS_FUNC_CACHE": "on",
        "FOCUS_PREFIX_CACHE": "on",
        "FOCUS_OBS": obs_mode,
        "FOCUS_THREADS": str(POOL_THREADS),
    })
    env.pop("FOCUS_OBS_JSON", None)
    return env


def run_bench(workload, args, obs_mode="off"):
    """Run focusbench once; returns its result object (last line)."""
    cmd = [BIN, "--workload", workload] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT,
                              env=bench_env(obs_mode),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              universal_newlines=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("perfbench: focusbench did not finish:", err)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: focusbench exited with", proc.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def report_checks(res):
    log("checks (%s): %d run, %s" % (
        res["workload"], res["checks"],
        "all passed" if res["correct"] else "FAILED"))
    for failure in res["failures"]:
        log("  failed:", failure)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(opts):
    res = run_bench(opts.workload, ["--seed", opts.seed,
                                    "--seconds", opts.seconds])
    report_checks(res)
    items = res["items_per_round"]
    rounds = len(res["round_wall_s"])
    print("workload %s seed %s: %d rounds of %d items, %d threads" % (
        opts.workload, opts.seed, rounds, items, res["threads"]))
    print("reference figures (simulated; checked, not gated):")
    for name, value in res["reference"].items():
        print("  %-40s %.6g" % (name, value))
    metrics = {
        "setup_s": metric(statistics.median(res["setup_s"]), "s"),
        "items_per_s": metric(
            items * rounds / sum(res["round_wall_s"]), "items/s"),
        "cpu_s": metric(sum(res["round_cpu_s"]) / rounds, "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return res, items * rounds, metrics


def traced(opts):
    obs_dir = os.path.join(ROOT, ".bench_build", "obs", opts.workload)
    shutil.rmtree(obs_dir, ignore_errors=True)
    os.makedirs(obs_dir)
    res = run_bench(opts.workload,
                    ["--seed", opts.seed, "--rounds", 1, "--setups", 1,
                     "--obs-dir", obs_dir],
                    obs_mode="trace")
    report_checks(res)
    events, obs_metrics = layers.load(obs_dir)
    spans = layers.span_totals(events)
    print("self time per span, traced run of %s (1 set-up, 1 round, "
          "verification):" % opts.workload)
    print(layers.self_time_table(spans))
    # Untraced figures: medians over the untraced rounds of the pairs.
    os_usage = {
        "user_s": statistics.median(res["pair_off_user_s"]),
        "sys_s": statistics.median(res["pair_off_sys_s"]),
        "minor_faults": statistics.median(res["pair_off_minor_faults"]),
    }
    pairs = list(zip(res["pair_off_wall_s"], res["pair_on_wall_s"]))
    overhead = statistics.median(on - off for off, on in pairs)
    print("tracing overhead: median of %d untraced/traced round pairs "
          "%s" % (len(pairs), " ".join(
              "%.3f/%.3f" % pair for pair in pairs)))
    values = layers.per_layer(spans, obs_metrics, res["layer_counts"],
                              os_usage, overhead)
    print("per-layer metrics:")
    for name, value in values.items():
        print("  %-28s %16.6g %s" % (name, value, layers.UNITS[name]))
    metrics = {n: metric(v, layers.UNITS[n]) for n, v in values.items()}
    rounds = len(res["round_wall_s"]) + 2 * len(pairs)
    return res, rounds * res["items_per_round"], metrics


def digest(opts):
    for workload in WORKLOADS:
        path = os.path.join(ROOT, ".bench_build", "digest-%s.txt" % workload)
        res = run_bench(workload, ["--seed", opts.seed, "--rounds", 1,
                                   "--setups", 1, "--digest-out", path])
        with open(path, "rb") as f:
            text = f.read()
        print("%-13s seed %s  %s  %d lines  checks %s" % (
            workload, opts.seed, hashlib.sha256(text).hexdigest(),
            text.count(b"\n"), "passed" if res["correct"] else "FAILED"))
        for name, value in res["reference"].items():
            print("  %-40s %.6g" % (name, value))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--digest", action="store_true")
    opts = ap.parse_args()
    if not opts.digest and opts.workload is None:
        ap.error("--workload is required")

    build()
    if opts.digest:
        digest(opts)
        return
    if opts.trace:
        res, attempted, metrics = traced(opts)
    else:
        res, attempted, metrics = end_to_end(opts)
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": attempted,
                      "failed": res["failed_items"], "metrics": metrics}))


if __name__ == "__main__":
    main()
