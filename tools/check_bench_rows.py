"""Trajectory-row check (run by the CI docs job).

Every root ``BENCH_<n>.json`` is one change's row of the benchmark
trajectory, numbered by its ``CHANGES.md`` entry: the paired-run median
and quartiles of end-to-end metrics of ``BENCHMARK.json``, for the parent
and for the change, plus the hardware envelope they were measured on.  A
row is only comparable with the benchmark it cites, so this check refuses
a row file that

* names a workload ``BENCHMARK.json`` does not declare,
* names a metric that is not one of its ``end_to_end`` metrics, or gives
  it another unit,
* gives a side (``parent`` / ``change``) without a numeric ``median``,
  ``q1`` and ``q3``,
* carries no envelope with the core count, CPU model, Python, numpy and
  zlib versions, or
* gives a ``host_steal_share`` that is not a number in [0, 1].  The field
  is optional; where given — on a row's side or on an entry of the
  optional ``runs`` list, one per benchmark run — it is the share of the
  host's CPU ticks ``/proc/stat`` counted as *steal* across the run, so
  a reader can tell a series measured on a busy host from a regression.

Exit code is non-zero when anything fails, printing one line per problem.

Run with:  python tools/check_bench_rows.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: What a row's envelope must name (keys as ``benchmarks/e2e/run.py``
#: writes them, plus the zlib the wire is deflated with).
ENVELOPE_KEYS = ("cpu_count", "cpu_model", "python", "numpy", "zlib")
#: The sides of a paired-run row, and the statistics each must carry.
SIDES = ("parent", "change")
STATISTICS = ("median", "q1", "q3")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _steal_errors(where: str, holder: dict) -> list:
    """The problem of ``holder``'s optional ``host_steal_share``, if any."""
    if "host_steal_share" not in holder:
        return []
    share = holder["host_steal_share"]
    if _is_number(share) and 0 <= share <= 1:
        return []
    return [f"{where}: host_steal_share {share!r} is not a number in "
            "[0, 1]"]


def check_row_file(path: Path, benchmark: dict) -> list:
    """The problems of one ``BENCH_*.json`` against ``benchmark`` (the
    parsed ``BENCHMARK.json``), one string each."""
    workloads = {entry["name"] for entry in benchmark["workloads"]}
    units = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if not isinstance(document, dict):
        return [f"{path.name}: not a JSON object"]
    errors = []
    envelope = document.get("envelope")
    if not isinstance(envelope, dict):
        errors.append(f"{path.name}: no envelope")
    else:
        errors += [f"{path.name}: envelope lacks {key!r}"
                   for key in ENVELOPE_KEYS if key not in envelope]
    runs = document.get("runs", [])
    if not isinstance(runs, list):
        errors.append(f"{path.name}: runs is not a list")
        runs = []
    for index, run in enumerate(runs):
        if not isinstance(run, dict):
            errors.append(f"{path.name}: run {index}: not a JSON object")
            continue
        errors += _steal_errors(f"{path.name}: run {index}", run)
    rows = document.get("rows")
    if not isinstance(rows, list) or not rows:
        return errors + [f"{path.name}: no rows"]
    for index, row in enumerate(rows):
        where = f"{path.name}: row {index}"
        if not isinstance(row, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        if row.get("workload") not in workloads:
            errors.append(f"{where}: workload {row.get('workload')!r} is "
                          "not in BENCHMARK.json")
        metric = row.get("metric")
        if metric not in units:
            errors.append(f"{where}: metric {metric!r} is not an "
                          "end-to-end metric of BENCHMARK.json")
        elif row.get("unit") != units[metric]:
            errors.append(f"{where}: {metric} in {row.get('unit')!r}, "
                          f"BENCHMARK.json says {units[metric]!r}")
        for side in SIDES:
            stats = row.get(side)
            if not (isinstance(stats, dict)
                    and all(_is_number(stats.get(key))
                            for key in STATISTICS)):
                errors.append(f"{where}: {side} needs numeric "
                              f"{', '.join(STATISTICS)}")
            else:
                errors += _steal_errors(f"{where}: {side}", stats)
    return errors


def check_rows(root: Path = REPO_ROOT) -> list:
    """The problems of every root ``BENCH_*.json`` under ``root``."""
    benchmark = json.loads((root / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    errors = []
    for path in sorted(root.glob("BENCH_*.json")):
        errors += check_row_file(path, benchmark)
    return errors


def main() -> int:
    errors = check_rows()
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
