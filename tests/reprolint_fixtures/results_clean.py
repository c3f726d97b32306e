"""Known-clean fixture for the results-hygiene checker.

Committed results are only *read*; artifacts are written under pytest's
temporary directories; the benchmark's own git-ignored output directory
(``benchmarks/e2e/results``) is not the protected one.
"""

import json
import os
from pathlib import Path

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "results")


def test_committed_table_is_well_formed():
    with open(os.path.join(RESULTS_DIR, "micro_batching.json")) as handle:
        assert json.load(handle)
    assert (Path(RESULTS_DIR) / "micro_batching.txt").read_text()
    with (Path(RESULTS_DIR) / "micro_batching.json").open("rb") as handle:
        assert handle.read()


def test_artifact_goes_to_tmp(tmp_path, tmp_path_factory):
    (tmp_path / "supervisor_stats.json").write_text("{}")
    with open(tmp_path_factory.getbasetemp() / "results.json", "w") as handle:
        json.dump({}, handle)


def test_benchmark_output_dir_is_not_protected(record):
    out = Path("benchmarks") / "e2e" / "results" / "smoke.json"
    out.write_text(json.dumps(record))
