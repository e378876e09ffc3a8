#!/usr/bin/env python3
"""Per-layer metrics and a self-time table from a traced focusbench run.

A run under FOCUS_OBS=trace with --obs-dir DIR leaves DIR/trace.json
(Chrome trace events: the program's spans plus the benchmark's
``bench.*`` spans) and DIR/metrics.json (the program's work and sched
counters).  This module turns the two, plus the work counts focusbench
prints in its ``layer_counts`` field, into the per-layer metrics listed
in perfbench/README.md.

    python3 perfbench/layers.py DIR      # print the self-time table
"""

import collections
import json
import os
import sys

# Per-layer metric -> span names whose durations it sums.
SPAN_SECONDS = {
    "serve.replay_s": ["serve.replay"],
    "serve.closed_loop_s": ["bench.serve.run_closed"],
    "serve.calibrate_s": ["serve.calibrate"],
    "cluster.replica_replay_s": ["cluster.replica.replay"],
    "cluster.continuous_s": ["bench.cluster.run_continuous"],
    "sim.fuse_s": ["bench.sim.fuse"],
    "sim.split_s": ["bench.sim.split"],
    "sim.simulate_s": ["bench.sim.simulate"],
    "eval.run_functional_s": ["bench.eval.run_functional"],
    "eval.trace_s": ["eval.trace", "eval.trace.prefix_cached"],
    "eval.simulate_s": ["bench.eval.simulate"],
    "vlm.forward_s": ["eval.forward"],
    "focus.sic_gather_s": ["sic.gather"],
}

# Per-layer metric -> (section of metrics.json, name prefix, suffix);
# every entry of the section matching prefix*suffix is summed.
COUNTS = {
    "serve.requests": ("counters", "serve.requests", ""),
    "serve.batches": ("counters", "serve.batches", ""),
    "serve.prefix_lookups": ("counters", "serve.prefix_cache.lookups", ""),
    "serve.prefix_hits": ("counters", "serve.prefix_cache.hits", ""),
    "eval.func_cache_hits": ("counters", "func_cache.hits", ""),
    "eval.func_cache_misses": ("counters", "func_cache.misses", ""),
    "focus.sic_tokens": ("counters", "sic.gather.tokens", ""),
    "tensor.gemm_macs": ("counters", "kernels.gemm.", ".macs"),
    "tensor.gemm_calls": ("sched_counters", "kernels.gemm.", ".calls"),
    "tensor.softmax_rows": ("counters", "kernels.softmax.", ".rows"),
    "tensor.sim_gather_dots": ("counters", "kernels.sim_gather.", ".dots"),
    "runtime.parallel_for_calls": (
        "sched_counters", "pool.parallel_for.calls", ""),
    "runtime.tasks": ("sched_counters", "pool.parallel_for.tasks", ""),
}

# Per-layer metrics that focusbench counts itself (its layer_counts).
BENCH_COUNTS = [
    "serve.compositions",
    "cluster.load_imbalance",
    "cluster.interconnect_gb",
    "sim.calls",
    "sim.gemms",
    "sim.psi_draws",
    "sim.tile_log_kept",
    "eval.samples",
]


# Every per-layer metric with its unit, in report order.
UNITS = collections.OrderedDict([
    ("serve.replay_s", "s"),
    ("serve.closed_loop_s", "s"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.compositions", "count"),
    ("serve.composition_reuse", "ratio"),
    ("serve.prefix_lookups", "count"),
    ("serve.prefix_hits", "count"),
    ("serve.calibrate_s", "s"),
    ("cluster.replica_replay_s", "s"),
    ("cluster.continuous_s", "s"),
    ("cluster.load_imbalance", "ratio"),
    ("cluster.interconnect_gb", "GB"),
    ("sim.fuse_s", "s"),
    ("sim.split_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.calls", "count"),
    ("sim.gemms", "count"),
    ("sim.psi_draws", "count"),
    ("sim.tile_log_kept", "count"),
    ("sim.ns_per_gemm", "ns"),
    ("eval.run_functional_s", "s"),
    ("eval.trace_s", "s"),
    ("eval.simulate_s", "s"),
    ("eval.samples", "count"),
    ("eval.func_cache_hits", "count"),
    ("eval.func_cache_misses", "count"),
    ("vlm.forward_s", "s"),
    ("focus.sic_gather_s", "s"),
    ("focus.sic_tokens", "count"),
    ("tensor.gemm_macs", "count"),
    ("tensor.gemm_calls", "count"),
    ("tensor.softmax_rows", "count"),
    ("tensor.sim_gather_dots", "count"),
    ("runtime.parallel_for_calls", "count"),
    ("runtime.tasks", "count"),
    ("os.cpu_user_s", "s"),
    ("os.cpu_sys_s", "s"),
    ("os.minor_faults", "count"),
    ("trace.overhead_s", "s"),
    ("trace.dropped_events", "count"),
])


def load(obs_dir):
    """(span events, metrics.json dict) of one traced run."""
    with open(os.path.join(obs_dir, "trace.json")) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X"]
    with open(os.path.join(obs_dir, "metrics.json")) as f:
        metrics = json.load(f)
    return events, metrics


def span_totals(events):
    """name -> (calls, total seconds, self seconds).

    Self time is a span's duration minus the part its child spans on
    the same thread cover (spans on one thread nest: they are RAII
    scopes).
    """
    by_tid = collections.defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    calls = collections.Counter()
    total = collections.defaultdict(float)
    self_t = collections.defaultdict(float)
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, child_us, name, dur_us]
        def close(frame):
            self_t[frame[2]] += max(0.0, frame[3] - frame[1]) / 1e6
        for e in evs:
            start = e["ts"]
            end = start + e["dur"]
            while stack and stack[-1][0] <= start + 1e-3:
                close(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([end, 0.0, e["name"], e["dur"]])
            calls[e["name"]] += 1
            total[e["name"]] += e["dur"] / 1e6
        while stack:
            close(stack.pop())
    return {n: (calls[n], total[n], self_t[n]) for n in total}


def self_time_table(spans):
    """Text table of every span name, by self time."""
    rows = sorted(spans.items(), key=lambda kv: -kv[1][2])
    lines = ["%-34s %8s %11s %11s" % ("span", "calls", "total_s", "self_s")]
    for name, (n, tot, slf) in rows:
        lines.append("%-34s %8d %11.4f %11.4f" % (name, n, tot, slf))
    return "\n".join(lines)


def _count(metrics, section, prefix, suffix):
    values = metrics.get(section, {})
    if not suffix:
        return values.get(prefix, 0)
    return sum(v for k, v in values.items()
               if k.startswith(prefix) and k.endswith(suffix))


def per_layer(spans, metrics, counts, os_usage, overhead_s):
    """Every metric of UNITS as {name: value}.

    @p counts is focusbench's layer_counts; @p os_usage holds the
    untraced rounds' user/sys CPU and minor faults; @p overhead_s is
    the traced minus the untraced wall of a round.
    """
    out = {}
    for name, names in SPAN_SECONDS.items():
        out[name] = sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)
    for name, (section, prefix, suffix) in COUNTS.items():
        out[name] = _count(metrics, section, prefix, suffix)
    for name in BENCH_COUNTS:
        out[name] = counts.get(name, 0)
    comps = out["serve.compositions"]
    out["serve.composition_reuse"] = (
        counts.get("serve.batch_records", 0) / comps if comps else 0.0)
    gemms = out["sim.gemms"]
    out["sim.ns_per_gemm"] = (
        out["sim.simulate_s"] * 1e9 / gemms if gemms else 0.0)
    out["os.cpu_user_s"] = os_usage["user_s"]
    out["os.cpu_sys_s"] = os_usage["sys_s"]
    out["os.minor_faults"] = os_usage["minor_faults"]
    out["trace.overhead_s"] = overhead_s
    out["trace.dropped_events"] = metrics.get("sched_counters", {}).get(
        "obs.trace.dropped", 0)
    return {name: out[name] for name in UNITS}


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: layers.py OBS_DIR")
    events, _ = load(argv[1])
    print(self_time_table(span_totals(events)))


if __name__ == "__main__":
    main(sys.argv)
