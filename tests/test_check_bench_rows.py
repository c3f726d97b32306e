"""``tools/check_bench_rows.py``: a trajectory row names only what
``BENCHMARK.json`` declares, in its units, and carries an envelope; a
host steal share, where given, is a share."""

import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # tools lives off the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_bench_rows

ENVELOPE = {"cpu_count": 2, "cpu_model": "x86", "python": "3.11.7",
            "numpy": "2.4.6", "zlib": "1.2.13"}
SIDE = {"median": 60.0, "q1": 58.0, "q3": 61.0}

GOOD = {"envelope": ENVELOPE, "runs": [
    {"workload": "paper_split", "side": "parent", "host_steal_share": 0.0},
    {"workload": "paper_split", "side": "change", "host_steal_share": 1},
    {"workload": "paper_split", "side": "change"}], "rows": [
    {"workload": "paper_split", "metric": "fps", "unit": "1/s",
     "parent": dict(SIDE, host_steal_share=0.004), "change": SIDE},
    {"workload": "small_batched", "metric": "uplink_bytes_per_frame",
     "unit": "B", "parent": SIDE, "change": SIDE}]}

BAD = {"envelope": {key: value for key, value in ENVELOPE.items()
                    if key != "zlib"},
       "rows": [
           {"workload": "paper_cloud", "metric": "fps", "unit": "1/s",
            "parent": SIDE, "change": SIDE},
           {"workload": "paper_split", "metric": "latency_p50_ms",
            "unit": "s", "parent": SIDE, "change": SIDE},
           {"workload": "paper_split", "metric": "trace.serial_path_ms",
            "unit": "ms", "parent": SIDE, "change": {"median": 1.0}}]}


STEAL_BAD = {"envelope": ENVELOPE, "runs": [
    {"host_steal_share": 1.5}, {"host_steal_share": -0.01},
    {"host_steal_share": "0.1"}, {"host_steal_share": float("nan")},
    {"host_steal_share": True}, 0.1], "rows": [
    {"workload": "paper_edge", "metric": "fps", "unit": "1/s",
     "parent": SIDE, "change": dict(SIDE, host_steal_share=None)}]}


def _tree(tmp_path, rows: dict) -> Path:
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "BENCH_7.json").write_text(json.dumps(rows),
                                           encoding="utf-8")
    return tmp_path


def test_good_row_file_passes(tmp_path):
    assert check_bench_rows.check_rows(_tree(tmp_path, GOOD)) == []


def test_bad_row_file_is_reported_line_by_line(tmp_path):
    assert check_bench_rows.check_rows(_tree(tmp_path, BAD)) == [
        "BENCH_7.json: envelope lacks 'zlib'",
        "BENCH_7.json: row 0: workload 'paper_cloud' is not in "
        "BENCHMARK.json",
        "BENCH_7.json: row 1: latency_p50_ms in 's', BENCHMARK.json says "
        "'ms'",
        "BENCH_7.json: row 2: metric 'trace.serial_path_ms' is not an "
        "end-to-end metric of BENCHMARK.json",
        "BENCH_7.json: row 2: change needs numeric median, q1, q3"]


def test_host_steal_share_outside_zero_to_one_is_refused(tmp_path):
    assert check_bench_rows.check_rows(_tree(tmp_path, STEAL_BAD)) == [
        "BENCH_7.json: run 0: host_steal_share 1.5 is not a number in "
        "[0, 1]",
        "BENCH_7.json: run 1: host_steal_share -0.01 is not a number in "
        "[0, 1]",
        "BENCH_7.json: run 2: host_steal_share '0.1' is not a number in "
        "[0, 1]",
        "BENCH_7.json: run 3: host_steal_share nan is not a number in "
        "[0, 1]",
        "BENCH_7.json: run 4: host_steal_share True is not a number in "
        "[0, 1]",
        "BENCH_7.json: run 5: not a JSON object",
        "BENCH_7.json: row 0: change: host_steal_share None is not a "
        "number in [0, 1]"]


def test_runs_must_be_a_list(tmp_path):
    document = dict(GOOD, runs={"host_steal_share": 0.1})
    assert check_bench_rows.check_rows(_tree(tmp_path, document)) == [
        "BENCH_7.json: runs is not a list"]


def test_live_tree_rows_pass():
    assert list(REPO_ROOT.glob("BENCH_*.json"))
    assert check_bench_rows.check_rows() == []
