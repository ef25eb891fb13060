#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload of run.py (those in BENCHMARK.json and sharded_anti,
which is run by name only) at tiny size in both modes and checks that each
metric BENCHMARK.json declares is emitted with its declared unit and that
the correctness gate passes; then drops one delivered tuple (--corrupt) on a
closed-loop and a served workload and checks that the gate trips. Run from
the repository root:

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {' '.join(cmd)}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = [f'{w["name"]}: in BENCHMARK.json but unknown to run.py'
                for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                failures.append(f"{where}: missing {missing} extra {extra} "
                                f"wrong unit {wrong}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: gate failed on a clean run")
            print(f"ok   {where}: {len(got)} metrics, "
                  f"{result['attempted']} queries", flush=True)
    for workload in ("solo_anti", "served_mix"):
        result = run(workload, 0, "--corrupt")
        if result["correct"] or result["failed"] < 1:
            failures.append(f"{workload} --corrupt: dropped tuple not caught")
        else:
            print(f"ok   {workload} --corrupt: gate tripped "
                  f"({result['failed']} failed)", flush=True)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
