#!/usr/bin/env python3
"""The ProgXe repository benchmark.

Builds the engine runner (perfbench/progxe_bench.cc) against the sources of
this checkout, runs one workload, checks every delivered result set against
an independent reference, and prints one JSON object as the last line of
standard output:

    python3 perfbench/run.py --workload served_mix --seed 1 --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics (untraced timed phase); --trace 1
reports the per-layer ledger (same-run comparison drains plus a traced
phase). Everything else goes to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solo_anti", "sharded_anti", "served_mix", "distributed_anti")

END_TO_END = {
    "ttfr_p50_s": "s",
    "ttfr_p90_s": "s",
    "t50_p50_s": "s",
    "makespan_p50_s": "s",
    "makespan_p90_s": "s",
    "setup_s": "s",
    "cpu_per_query_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "prepare.s": "s",
    "prepare.lookahead_skip_share": "ratio",
    "loop_init.s": "s",
    "loop_init.regions": "count",
    "loop_init.elgraph_disabled": "count",
    "region.pick.s": "s",
    "region.pipeline.s": "s",
    "region.flush.s": "s",
    "region.discard.s": "s",
    "region.join_pairs": "count",
    "region.dominance_comparisons": "count",
    "region.regions_processed": "count",
    "region.regions_discarded": "count",
    "region.early_share": "ratio",
    "region.pair_yield": "ratio",
    "shard.overhead_s": "s",
    "shard.merge_s": "s",
    "shard.merge_comparisons": "count",
    "shard.held_peak": "count",
    "shard.pair_inflation": "ratio",
    "shard.region_inflation": "ratio",
    "net.bytes_per_query": "bytes",
    "net.frames_per_query": "count",
    "net.rtt_p50_us": "us",
    "net.rtt_p99_us": "us",
    "net.overhead_s": "s",
    "net.recv_wait_s": "s",
    "net.worker_start_s": "s",
    "sched.slices": "count",
    "sched.slice_p50_us": "us",
    "sched.slice_p99_us": "us",
    "sched.queue_wait_p50_s": "s",
    "cache.hit_share": "ratio",
    "cache.evictions": "count",
    "obs.trace_overhead": "ratio",
    "obs.span_coverage": "ratio",
    "obs.dropped_events": "count",
    "loadgen.lateness_p99_s": "s",
    "loadgen.parallel_capacity": "ratio",
    "failed_share": "ratio",
    "check.counter_drift": "count",
}

# A served run whose generator sent this much later than its schedule (p99)
# measured the generator, not the engine: the run is invalid.
MAX_LATENESS_S = 0.1
# Counters that must repeat exactly for a fixed query and seed.
DETERMINISTIC = ("join_pairs", "dominance_comparisons", "regions_processed",
                 "merge_comparisons")
GOOD_VERDICTS = ("ok", "unchecked")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def pct(values, p):
    """Linear-interpolated p-quantile (0 <= p <= 1) of a non-empty list."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configures and builds the runner (both no-ops when up to date);
    returns its path, or None if either step failed."""
    target = build_dir()
    steps = [["cmake", "-S", str(HERE), "-B", str(target),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(target), "--target", "progxe_bench",
              "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return target / "progxe_bench"


# ---------------------------------------------------------------------------
# Trace analysis.

class Span:
    __slots__ = ("tid", "name", "start", "end", "args", "child", "parent")

    def __init__(self, ev):
        self.tid = ev["tid"]
        self.name = ev["name"]
        self.start = ev["ts"] * 1e-6
        self.end = self.start + ev["dur"] * 1e-6
        self.args = ev.get("args", {})
        self.child = 0.0
        self.parent = None

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.dur - self.child


def load_trace(path):
    """Returns (spans, instants); spans carry parent links and self time."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [Span(e) for e in events if e.get("ph") == "X"]
    instants = [(e["tid"], e["ts"] * 1e-6, e["name"], e.get("args", {}))
                for e in events if e.get("ph") == "i"]
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    eps = 1e-9
    for ss in by_tid.values():
        ss.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in ss:
            while stack and stack[-1].end <= s.start + eps:
                stack.pop()
            if stack and s.end <= stack[-1].end + eps:
                s.parent = stack[-1]
                stack[-1].child += s.dur
            stack.append(s)
    return spans, instants


def self_time(spans, prefix, tid=None):
    return sum(s.self_time for s in spans
               if s.name.startswith(prefix) and (tid is None or s.tid == tid))


def client_tid(spans):
    """The thread that calls into the engine (it records the bench.* spans)."""
    for s in spans:
        if s.name.startswith("bench."):
            return s.tid
    return None


def span_coverage(spans):
    """Top-level span time / active extent, summed over threads that ran
    query work (idle gaps inside a thread's extent count as uncovered)."""
    covered = extent = 0.0
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for ss in by_tid.values():
        if all(s.name == "bench.worker_start" for s in ss):
            continue
        top = [s for s in ss if s.parent is None]
        covered += sum(s.dur for s in top)
        extent += max(s.end for s in ss) - min(s.start for s in ss)
    return covered / extent if extent > 0 else 0.0


def served_open_gaps(spans, instants):
    """Open time the scheduler spends per admitted query outside prepare
    spans: from each sched.admit instant to the next non-prepare event on
    the same worker thread (the engine has no span around the open)."""
    events = {}
    for s in spans:
        events.setdefault(s.tid, []).append((s.start, s.name, s))
    for tid, ts, name, _ in instants:
        events.setdefault(tid, []).append((ts, name, None))
    total = 0.0
    for evs in events.values():
        evs.sort(key=lambda e: e[0])
        for i, (ts, name, _) in enumerate(evs):
            if name != "sched.admit":
                continue
            prep = 0.0
            for ts2, name2, span in evs[i + 1:]:
                if name2.startswith("prepare."):
                    if span is not None and span.parent is None:
                        prep += span.dur
                    continue
                if name2.startswith("cache."):
                    continue
                total += max(0.0, ts2 - ts - prep)
                break
    return total


def queue_waits(spans):
    """Per query: first sched.slice start minus its bench.submit end."""
    submitted = {s.args["query"]: s.end for s in spans
                 if s.name == "bench.submit" and "query" in s.args}
    first = {}
    for s in spans:
        if s.name == "sched.slice" and "query" in s.args:
            q = s.args["query"]
            first[q] = min(first.get(q, s.start), s.start)
    return [first[q] - t for q, t in submitted.items() if q in first]


# ---------------------------------------------------------------------------
# Metrics.

def best_per_slot(queries, key):
    """Each slot's fastest repetition of `key`: the timed phase repeats one
    query sequence, and the host's speed swings over seconds, so the best
    repetition is the query's own cost and the slowdown is filtered out."""
    best = {}
    for q in queries:
        best[q["slot"]] = min(best.get(q["slot"], q[key]), q[key])
    return list(best.values())


def end_to_end(rep, timed):
    ok = [q for q in timed if q["verdict"] == "ok"] or timed
    ttfr = best_per_slot(ok, "ttfr_s")
    makespan = best_per_slot(ok, "makespan_s")
    if rep["setup_opens_s"]:  # served: the scheduler opens streams itself
        opens = rep["setup_opens_s"]
        cpu = rep["timed_cpu_s"] / max(1, len(ok))
    else:
        opens = best_per_slot(ok, "open_s")
        cpu = statistics.median(best_per_slot(ok, "cpu_s"))
    return {
        "ttfr_p50_s": statistics.median(ttfr),
        "ttfr_p90_s": pct(ttfr, 0.9),
        "t50_p50_s": statistics.median(best_per_slot(ok, "t50_s")),
        "makespan_p50_s": statistics.median(makespan),
        "makespan_p90_s": pct(makespan, 0.9),
        "setup_s": statistics.median(opens),
        "cpu_per_query_s": cpu,
        "peak_rss_mb": rep["peak_rss_mib"],
    }


def shard_overhead(compare):
    """Per comparison round (solo, each slice alone, sharded): the sharded
    makespan minus the summed slice drains; median over rounds."""
    gaps, slices = [], []
    for q in compare:
        if q["kind"] == "slice":
            slices.append(q["makespan_s"])
        elif q["kind"] == "sharded" and slices:
            gaps.append(q["makespan_s"] - sum(slices))
            slices = []
    return statistics.median(gaps) if gaps else 0.0


def per_layer(rep, queries, trace_path, lateness, failed, drift):
    traced = [q for q in queries if q["phase"] == "traced"]
    timed = [q for q in queries if q["phase"] == "timed"]
    compare = [q for q in queries if q["phase"] == "compare"]
    n = max(1, len(traced))
    spans, instants = load_trace(trace_path)
    client = client_tid(spans)

    def total(key, qs=traced):
        return sum(q[key] for q in qs)

    def kind_median(kind, key):
        xs = [q[key] for q in compare if q["kind"] == kind]
        return statistics.median(xs) if xs else None

    m = dict.fromkeys(PER_LAYER, 0.0)  # a layer the workload skips reads 0
    m["prepare.s"] = self_time(spans, "prepare.") / n
    m["prepare.lookahead_skip_share"] = (
        total("partition_pairs_skipped") / max(1, total("partition_pairs_total")))
    if rep["workload"] == "served_mix":
        m["loop_init.s"] = served_open_gaps(spans, instants) / n
    else:
        m["loop_init.s"] = self_time(spans, "bench.open", client) / n
    m["loop_init.regions"] = sum(
        q["regions_created"] - q["regions_pruned_lookahead"] for q in traced) / n
    m["loop_init.elgraph_disabled"] = total("elgraph_disabled")
    for stage in ("pick", "pipeline", "flush", "discard"):
        m[f"region.{stage}.s"] = self_time(spans, f"region.{stage}") / n
    m["region.join_pairs"] = total("join_pairs") / n
    m["region.dominance_comparisons"] = total("dominance_comparisons") / n
    m["region.regions_processed"] = total("regions_processed") / n
    m["region.regions_discarded"] = total("regions_discarded") / n
    m["region.early_share"] = (
        total("results_emitted_early") / max(1, total("results_emitted")))
    m["region.pair_yield"] = total("results") / max(1, total("join_pairs"))

    sharded = [q for q in traced if q["sharded"]]
    solo_pairs = kind_median("solo", "join_pairs")
    sharded_pairs = kind_median("sharded", "join_pairs")
    m["shard.overhead_s"] = shard_overhead(compare)
    m["shard.merge_s"] = total("merge_s", sharded) / max(1, len(sharded))
    m["shard.merge_comparisons"] = (
        total("merge_comparisons", sharded) / max(1, len(sharded)))
    m["shard.held_peak"] = max((q["held_peak"] for q in sharded), default=0)
    if solo_pairs and sharded_pairs is not None:
        m["shard.pair_inflation"] = sharded_pairs / solo_pairs
        m["shard.region_inflation"] = (
            kind_median("sharded", "regions_processed")
            / max(1, kind_median("solo", "regions_processed")))

    net = rep.get("net")
    if net:
        nq = max(1, net["queries"])
        m["net.bytes_per_query"] = net["bytes_sent"] / nq
        m["net.frames_per_query"] = net["frames_sent"] / nq
        m["net.rtt_p50_us"] = net["rtt_p50_us"]
        m["net.rtt_p99_us"] = net["rtt_p99_us"]
        dist = kind_median("distributed", "makespan_s")
        local = kind_median("sharded", "makespan_s")
        m["net.overhead_s"] = dist - local if dist and local else 0.0
        m["net.recv_wait_s"] = self_time(spans, "net.recv", client) / n
        m["net.worker_start_s"] = statistics.median(rep["worker_start_s"])

    sched = rep.get("sched")
    if sched:
        waits = queue_waits(spans)
        lookups = sched["prepare_hits"] + sched["prepare_misses"]
        m["sched.slices"] = sched["slices"]
        m["sched.slice_p50_us"] = sched["slice_p50_us"]
        m["sched.slice_p99_us"] = sched["slice_p99_us"]
        m["sched.queue_wait_p50_s"] = statistics.median(waits) if waits else 0.0
        m["cache.hit_share"] = sched["prepare_hits"] / max(1, lookups)
        m["cache.evictions"] = sched["prepare_evictions"]

    untraced = statistics.median(q["makespan_s"] for q in timed)
    m["obs.trace_overhead"] = (
        statistics.median(q["makespan_s"] for q in traced) / untraced)
    m["obs.span_coverage"] = span_coverage(spans)
    m["obs.dropped_events"] = rep["trace_dropped"]
    m["loadgen.lateness_p99_s"] = lateness
    m["loadgen.parallel_capacity"] = statistics.mean(rep["capacity"])
    m["failed_share"] = failed / max(1, len(queries))
    m["check.counter_drift"] = drift
    return m


def counter_drift(rep, queries, tiny, exe):
    """Counts deterministic-counter mismatches: between repeats of one query
    within this run, and against earlier runs of the same workload and seed
    by the same runner binary in this build directory. Returns
    (drift_count, descriptions)."""
    seen, problems = {}, []
    for q in queries:
        if q["cap"] or q["kind"] == "slice" or q["verdict"] != "ok":
            continue
        key = (f'{rep["workload"]}/{rep["seed"]}/{"tiny/" if tiny else ""}'
               f'{q["kind"]}/{q["dataset"]}')
        value = [q[c] for c in DETERMINISTIC]
        if seen.setdefault(key, value) != value:
            problems.append(f"{key}: {value} != {seen[key]} within the run")
    store = build_dir() / "counters.json"
    binary = hashlib.sha1(exe.read_bytes()).hexdigest()
    try:
        history = json.loads(store.read_text())
    except (OSError, ValueError):
        history = {}
    if history.get("binary") != binary:
        history = {"binary": binary}  # a rebuilt program starts afresh
    for key, value in seen.items():
        if history.setdefault(key, value) != value:
            problems.append(f"{key}: {value} != {history[key]} from an earlier run")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, sort_keys=True))
    tmp.replace(store)
    return len(problems), problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tenfold smaller datasets (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="drop one delivered tuple (must fail the gate)")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out = build_dir() / f"run-{tag}.json"
    trace = build_dir() / f"trace-{tag}.json"
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--out={out}"]
    if args.trace:
        cmd.append(f"--trace_out={trace}")
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=170).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return 3
    if rc != 0 or not out.exists():
        log(f"perfbench: runner exited {rc}")
        return 3
    rep = json.loads(out.read_text())
    out.unlink()
    queries = rep["queries"]

    bad = [q for q in queries if q["verdict"] not in GOOD_VERDICTS]
    for q in bad:
        log(f'FAIL {q["phase"]} {q["kind"]} dataset={q["dataset"]}: {q["verdict"]}')
    timed = [q for q in queries if q["phase"] == "timed"]
    lateness = pct([q["late_s"] for q in timed], 0.99)  # 0 for closed loops
    valid = lateness <= MAX_LATENESS_S
    if not valid:
        log(f"INVALID: generator lateness p99 {lateness:.3f}s > {MAX_LATENESS_S}s")
    drift, problems = counter_drift(rep, queries, args.tiny, exe)
    for p in problems:
        log("COUNTER DRIFT", p)
    if not rep["rss_reset"]:
        log("WARNING: could not reset the RSS high-water mark; "
            "peak_rss_mb includes set-up")
    correct = not bad and valid and drift == 0

    if args.trace:
        metrics = per_layer(rep, queries, trace, lateness, len(bad), drift)
        trace.unlink()
        correct = correct and rep["trace_dropped"] == 0
        units = PER_LAYER
    else:
        metrics = end_to_end(rep, timed)
        units = END_TO_END
    log(f'{args.workload} seed={args.seed} trace={args.trace}: '
        f'{len(timed)} timed queries, {len(queries)} total, {len(bad)} failed, '
        f'parallel capacity {statistics.mean(rep["capacity"]):.2f}x')
    for name in units:
        log(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(queries),
        "failed": len(bad),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
