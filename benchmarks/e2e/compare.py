#!/usr/bin/env python3
"""Compare two result directories of the co-inference benchmark.

    python benchmarks/e2e/compare.py results/selfcheck_a results/selfcheck_b

One row per workload x end-to-end metric: base (A), candidate (B), the ratio
B/A, and a verdict against the bound declared once in ``metrics.py``:

``same``        B is within the bound (or the metric's absolute floor) of A
``better``      B beats A by more than the bound
``worse``       B is worse than A by more than the bound -> exit code 1
``unresolved``  the one-second slices of either run's window disagree on the
                metric by more than the bound (interquartile range / median,
                ``steady.slice_spread``), so a bound-sized change cannot be
                told from noise -> reported, never called *same*

Results measured on different hardware envelopes (cpu count/model, python,
numpy), seeds or window lengths are not comparable and are refused (exit 2).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from metrics import END_TO_END, HIGHER  # noqa: E402

MUST_MATCH = ("envelope", "seed", "seconds", "quick")


def load(directory: str) -> dict:
    """``{workload: record}`` of the end-to-end result files in a directory."""
    records = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json") and not name.startswith("trace_"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                record = json.load(handle)
            records[record["workload"]] = record
    return records


def verdict(metric, base: float, new: float, noise: float) -> str:
    if noise > metric.bound:
        return "unresolved"
    worse_by = (base - new) if metric.better == HIGHER else (new - base)
    if abs(worse_by) <= metric.floor:
        return "same"
    share = worse_by / abs(base)
    if share > metric.bound:
        return "worse"
    return "better" if share < -metric.bound else "same"


def compare(base_dir: str, new_dir: str) -> int:
    base, new = load(base_dir), load(new_dir)
    if not base or set(base) != set(new):
        print(f"refusing: workloads differ or are missing "
              f"({sorted(base)} vs {sorted(new)})")
        return 2
    for workload in base:
        for key in MUST_MATCH:
            if base[workload].get(key) != new[workload].get(key):
                print(f"refusing: {workload} was measured with a different "
                      f"{key}: {base[workload].get(key)} vs "
                      f"{new[workload].get(key)}")
                return 2
    print(f"base A = {base_dir}\ncandidate B = {new_dir}")
    print(f"{'workload':<14} {'metric':<24} {'A':>14} {'B':>14} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    counts = {}
    for workload, a in base.items():
        b = new[workload]
        if not (a.get("correct") and b.get("correct")):
            print(f"{workload:<14} a run is incorrect or failed "
                  f"(A correct={a.get('correct')}, B correct={b.get('correct')})")
            counts["worse"] = counts.get("worse", 0) + 1
            continue
        for metric in END_TO_END:
            va = a["metrics"][metric.name]["value"]
            vb = b["metrics"][metric.name]["value"]
            noise = max(a["info"]["spread"].get(metric.name, 0.0),
                        b["info"]["spread"].get(metric.name, 0.0))
            result = verdict(metric, va, vb, noise)
            counts[result] = counts.get(result, 0) + 1
            print(f"{workload:<14} {metric.name:<24} {va:>14.4f} {vb:>14.4f} "
                  f"{vb / va:>8.4f} {metric.bound:>6.3f}  {result}"
                  + (f" (spread {noise:.3f})" if result == "unresolved" else ""))
    print("verdicts: " + ", ".join(f"{count} {name}"
                                   for name, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(__doc__)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
