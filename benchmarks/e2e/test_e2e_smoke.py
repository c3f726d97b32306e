"""Smoke test of the co-inference benchmark (not part of tier-1).

Run explicitly:  PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --quick --trace`` over all four workloads once (about two
minutes) and checks what a later PR relies on: the result schema, the metric
names, that every declared metric is present and finite, that nothing failed,
that the serial walk fits inside the latency it explains, and that the run
wrote nothing outside ``benchmarks/e2e/results/``.  One more short run checks
that a sharded workload leaves no process behind when its command returns.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

OUT = os.path.join(HERE, "results", "smoke")
IGNORED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def tree_state(root: str) -> dict:
    """``{relative path: (size, mtime_ns)}`` of every file git could see."""
    state = {}
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [d for d in subdirs if d not in IGNORED_DIRS]
        for name in files:
            path = os.path.join(directory, name)
            stat = os.stat(path)
            state[os.path.relpath(path, root)] = (stat.st_size,
                                                  stat.st_mtime_ns)
    return state


@pytest.fixture(scope="module")
def suite():
    before = tree_state(ROOT)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace",
         "--out", OUT], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=900)
    after = tree_state(ROOT)
    changed = sorted(path for path in after if before.get(path) != after[path])
    records = {}
    for workload in WORKLOADS:
        for stem in (workload.name, f"trace_{workload.name}"):
            with open(os.path.join(OUT, stem + ".json"),
                      encoding="utf-8") as handle:
                records[stem] = json.load(handle)
    return {"returncode": done.returncode, "output": done.stdout,
            "changed": changed, "records": records}


def test_suite_exits_clean(suite):
    assert suite["returncode"] == 0, suite["output"][-4000:]


def test_writes_only_under_results(suite):
    prefix = os.path.join("benchmarks", "e2e", "results") + os.sep
    stray = [path for path in suite["changed"] if not path.startswith(prefix)]
    assert not stray, f"the benchmark wrote outside its results/: {stray}"


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_end_to_end_record(suite, workload):
    record = suite["records"][workload]
    assert record["schema"] == "repro.e2e/1"
    assert record["workload"] == workload and record["trace"] == 0
    assert record["quick"] is True
    assert record["correct"] is True and record["failed"] == 0
    assert record["attempted"] >= 1
    assert record["info"]["failed_share"] == 0
    assert set(record["metrics"]) == {m.name for m in metrics.END_TO_END}
    for metric in metrics.END_TO_END:
        entry = record["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert math.isfinite(entry["value"]) and entry["value"] > 0
    for phase in record["info"]["phases"].values():
        assert phase["attempted"] == phase["succeeded"] + phase["failed"]


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_traced_record(suite, workload):
    record = suite["records"][f"trace_{workload}"]
    assert record["correct"] is True and record["trace"] == 1
    assert set(record["metrics"]) == {m.name for m in metrics.PER_LAYER}
    assert all(math.isfinite(entry["value"])
               for entry in record["metrics"].values())
    spans = record["spans"]
    assert spans and all(
        set(span) == {"id", "name", "start", "end", "parent", "frame"}
        and span["end"] >= span["start"] for span in spans)
    ids = {span["id"] for span in spans}
    assert all(span["parent"] is None or span["parent"] in ids
               for span in spans)
    value = {name: entry["value"] for name, entry in record["metrics"].items()}
    reference = record["info"]["reference_latency_p50_ms"]
    # By construction: what the walk cannot attribute is reported, not hidden.
    assert value["trace.serial_path_ms"] + value["trace.unattributed_ms"] \
        == pytest.approx(reference)
    if workload.startswith("paper_"):  # the 1-client window-1 workloads
        assert value["trace.serial_path_ms"] <= 1.1 * reference


def python_processes() -> dict:
    """``{pid: name}`` of every python process on this machine, zombies
    included (they keep their name but have no command line)."""
    found = {}
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/comm", encoding="utf-8") as handle:
                name = handle.read().strip()
        except OSError:
            continue
        if "python" in name:
            found[int(entry)] = name
    return found


def test_sharded_workload_leaves_no_process_behind():
    """Shard workers make ``multiprocessing`` start a resource tracker that
    outlives the process it serves; the command must wait for it too."""
    before = python_processes()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--workload", "small_sharded", "--out", OUT],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300)
    left = {pid: name for pid, name in python_processes().items()
            if pid not in before}
    assert done.returncode == 0, done.stdout[-4000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
    assert not left, f"still there after the command returned: {left}"


def test_metric_names_and_manifest():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", name)
               for name in names)
    assert "setup_s" in names
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert handle.read() == metrics.manifest_text(WORKLOADS, RUN_SECONDS)


def test_readme_declares_everything():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    missing = [name for name in
               [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
               + [w.name for w in WORKLOADS] if f"`{name}`" not in readme]
    assert not missing, f"README.md does not mention {missing}"


def test_unknown_plan_step_fails_the_traced_pass():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    observer = layers.Tracer().step_observer(parent=0, frame=None)
    with pytest.raises(RuntimeError, match="STEP_SPANS"):
        observer(object(), None)


def test_out_of_range_value_fails_at_write_time():
    good = {m.name: 1.0 for m in metrics.END_TO_END}
    metrics.checked(good, metrics.END_TO_END)
    for bad in (float("nan"), -1.0, 0.0):
        with pytest.raises(ValueError):
            metrics.checked(dict(good, latency_p50_ms=bad), metrics.END_TO_END)
    with pytest.raises(ValueError):
        metrics.checked({k: v for k, v in good.items() if k != "fps"},
                        metrics.END_TO_END)
