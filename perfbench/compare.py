"""Side-by-side comparison of two sets of benchmark runs.

    python3 perfbench/run.py --compare before.jsonl after.jsonl

Each file holds the records that ``run.py --out`` appends, one run per line.
For every workload and metric this prints each side's median, quartiles and
spread (quartile distance over median).  It flags an end-to-end metric whose
median got worse by more than its bound in BENCHMARK.json, and a per-layer
time (units ms/op, us, ns) whose median is at least 20 % higher, or that
was 0 and no longer is.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

LAYER_SLOWDOWN = 0.20
TIME_UNITS = ("ms/op", "us", "ns")


def load(path: str) -> tuple[dict, dict]:
    """({(workload, trace): {metric: [values]}}, {metric: unit})."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    units: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, value in rec["metrics"].items():
                runs[key][name].append(value)
            units.update(rec.get("units", {}))
    return runs, units


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _spread(median: float, q1: float, q3: float) -> float:
    return (q3 - q1) / median if median else 0.0


def main(before: str, after: str, end_to_end: list[dict]) -> int:
    """Print the comparison; ``end_to_end`` is BENCHMARK.json's bounded list."""
    a_runs, units = load(before)
    b_runs, b_units = load(after)
    units.update(b_units)
    bounds = {m["name"]: m for m in end_to_end}
    flagged = 0
    for key in sorted(set(a_runs) | set(b_runs)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for name in sorted(set(a_runs[key]) | set(b_runs[key])):
            a, b = a_runs[key].get(name), b_runs[key].get(name)
            if not a or not b:
                print(f"  {name:48s} only in {'after' if b else 'before'}")
                continue
            am, aq1, aq3 = summary(a)
            bm, bq1, bq3 = summary(b)
            if am:
                change = (bm - am) / am
            else:  # a layer that cost nothing before and now costs something
                change = math.inf if bm > 0 else 0.0
            flag = ""
            spec = bounds.get(name)
            if spec and not trace:
                worse = change if spec["better"] == "lower" else -change
                if worse > spec["bound"]:
                    flag = f"WORSE than bound {spec['bound']:g}"
            elif units.get(name) in TIME_UNITS and change >= LAYER_SLOWDOWN:
                flag = f"SLOWER by >= {LAYER_SLOWDOWN:.0%}"
            flagged += bool(flag)
            print(f"  {name:48s} {am:12.5g} [{aq1:.5g}, {aq3:.5g}] s={_spread(am, aq1, aq3):.3f}"
                  f"  ->  {bm:12.5g} [{bq1:.5g}, {bq3:.5g}] s={_spread(bm, bq1, bq3):.3f}"
                  f"  {change:+.1%} {flag}")
    print(f"{flagged} metric(s) flagged")
    return 0
