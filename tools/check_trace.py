#!/usr/bin/env python3
"""CI validator for ProgXe span traces (Chrome trace_event JSON).

Checks that a `--trace_out` file is structurally valid — something Perfetto
or chrome://tracing will actually load — and, with --require, that the run
exercised the expected subsystems:

  * top level is an object with a `traceEvents` array and a
    `displayTimeUnit`;
  * every event carries a string `name`, a phase `ph` in {X, i, M}, a
    numeric `ts`, and numeric `pid`/`tid`;
  * complete spans (ph=X) carry a non-negative numeric `dur`;
  * instants (ph=i) carry a scope `s`;
  * timestamps are non-negative (the recorder uses a per-run monotonic
    origin);
  * `otherData.dropped_events` (when present) is a non-negative integer;
  * every category named in --require appears on at least one span/instant;
  * with --min_coverage, span coverage is at least that ratio: the summed
    duration of top-level spans (those not nested in another span of their
    thread) over the summed extent (first span start to last span end) of
    every thread that recorded a span. Idle gaps inside a thread's extent
    count as uncovered, so a drop means query time no span attributes.

Usage: check_trace.py <trace.json> [--require=prepare,region,sched,shard]
                                   [--min_events=1] [--min_coverage=0.9]
"""

import json
import sys

VALID_PHASES = {"X", "i", "M"}


def fail(msg):
    raise SystemExit(f"FAIL: {msg}")


def span_coverage(spans):
    """Top-level span time / extent, summed over the threads in `spans`
    (a list of (tid, start, end) tuples)."""
    by_tid = {}
    for tid, start, end in spans:
        by_tid.setdefault(tid, []).append((start, end))
    covered = extent = 0.0
    for ss in by_tid.values():
        # Sorted by start, longest first: a span ending inside the current
        # top-level one is nested in it.
        ss.sort(key=lambda s: (s[0], -s[1]))
        top_end = None
        for start, end in ss:
            if top_end is not None and end <= top_end:
                continue
            covered += end - start
            top_end = end
        extent += max(e for _, e in ss) - ss[0][0]
    return covered / extent if extent > 0 else 0.0


def main(argv):
    path = None
    required = []
    min_events = 1
    min_coverage = None
    for arg in argv[1:]:
        if arg.startswith("--min_coverage="):
            min_coverage = float(arg.split("=", 1)[1])
        elif arg.startswith("--require="):
            required = [c for c in arg.split("=", 1)[1].split(",") if c]
        elif arg.startswith("--min_events="):
            min_events = int(arg.split("=", 1)[1])
        elif path is None:
            path = arg
        else:
            raise SystemExit(f"unexpected argument: {arg}")
    if path is None:
        raise SystemExit(__doc__)

    with open(path) as f:
        doc = json.load(f)

    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing traceEvents array")
    if "displayTimeUnit" not in doc:
        fail("missing displayTimeUnit")

    seen_cats = set()
    spans = []
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where}: not an object")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(f"{where}: missing/empty name")
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            fail(f"{where}: bad phase {ph!r} (want one of {VALID_PHASES})")
        if ph == "M":
            continue  # metadata (thread_name): no timestamp contract
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: bad ts {ts!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                fail(f"{where}: bad {key} {ev.get(key)!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"{where}: span without a valid dur ({dur!r})")
            spans.append((ev["tid"], ts, ts + dur))
        elif ph == "i" and "s" not in ev:
            fail(f"{where}: instant without a scope")
        cat = ev.get("cat")
        if isinstance(cat, str) and cat:
            seen_cats.add(cat)

    dropped = 0
    other = doc.get("otherData", {})
    if other:
        dropped = other.get("dropped_events", 0)
        if not isinstance(dropped, int) or dropped < 0:
            fail(f"bad otherData.dropped_events: {dropped!r}")

    real = [ev for ev in events if ev.get("ph") != "M"]
    if len(real) < min_events:
        fail(f"only {len(real)} events recorded (< {min_events})")

    missing = [c for c in required if c not in seen_cats]
    if missing:
        fail(f"required categories absent from the trace: "
             f"{','.join(missing)} (saw: {','.join(sorted(seen_cats))})")

    coverage = span_coverage(spans)
    if min_coverage is not None and coverage < min_coverage:
        fail(f"span coverage {coverage:.4f} < {min_coverage}")

    print(f"OK: {len(real)} events ({len(spans)} spans), "
          f"{dropped} dropped, span coverage {coverage:.4f}, "
          f"categories: {','.join(sorted(seen_cats))}")


if __name__ == "__main__":
    main(sys.argv)
