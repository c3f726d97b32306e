"""Known-bad fixture for the results-hygiene checker.

Tests that write their artifacts into the committed ``benchmarks/results``
directory: through a module-level directory constant, a pathlib chain, a
literal path, and a mode the checker cannot prove read-only.
"""

import json
import os
from pathlib import Path

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "results")
ROOT = Path(__file__).resolve().parent.parent


def _record_artifact(stats):
    path = os.path.join(RESULTS_DIR, "supervisor_stats.json")
    with open(path, "w", encoding="utf-8") as handle:  # the PR 14 offender
        json.dump(stats, handle)


def test_dumps_scaling_table(table):
    (ROOT / "benchmarks" / "results" / "scaling.txt").write_text(table)


def test_appends_to_a_log(line):
    with open("benchmarks/results/run.log", mode="a") as handle:
        handle.write(line)


def test_mode_from_a_variable(mode):
    target = Path(RESULTS_DIR) / "blob.bin"
    with target.open(mode) as handle:  # not provably read-only
        handle.write(b"")
