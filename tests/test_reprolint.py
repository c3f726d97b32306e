"""Tier-1 tests for the reprolint static-analysis framework.

Two halves:

* **Golden fixtures** — every checker must fail on its known-bad snippet
  under ``tests/reprolint_fixtures/`` and stay silent on the known-clean
  twin, so a checker can neither silently rot (missed bad) nor grow noisy
  (flagged clean).
* **Live-tree meta-test** — the repository itself must be reprolint-clean
  modulo the committed baseline, and the baseline must stay small,
  justified, and free of stale entries.  This is the test that makes the
  invariants in ``docs/invariants.md`` regressions instead of prose.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "reprolint_fixtures"

if str(REPO_ROOT) not in sys.path:  # tools.reprolint lives off the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import load_baseline, run_checkers, split_findings
from tools.reprolint.baseline import DEFAULT_BASELINE
from tools.reprolint.checkers import (arena_aliasing, dtype_discipline,
                                      layering, lock_discipline,
                                      message_kinds, results_hygiene,
                                      sleep_discipline, take_mode)


def fixture_tree(name):
    path = FIXTURES / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


# ----------------------------------------------------------------------
# layering
# ----------------------------------------------------------------------
def test_layering_flags_bad_fixture():
    findings = layering.scan_module(fixture_tree("layering_bad.py"),
                                    "layering_bad.py", set())
    flagged = {f.ident for f in findings}
    assert flagged == {"numpy", "repro.serving.app"}
    assert all(f.checker == "layering" for f in findings)


def test_layering_clean_fixture_passes():
    findings = layering.scan_module(fixture_tree("layering_clean.py"),
                                    "layering_clean.py", {"numpy"})
    assert findings == []  # incl. the TYPE_CHECKING import of serving


def test_layering_relative_import_resolution():
    tree = ast.parse("from . import kernels\nfrom .arena import BufferArena\n"
                     "from ..graph.knn import knn_graph\n")
    modules = {m for m, _ in layering.imported_modules(
        tree, "src/repro/runtime/plan.py")}
    assert modules == {"repro.runtime.kernels", "repro.runtime.arena",
                       "repro.graph.knn"}


# ----------------------------------------------------------------------
# dtype-discipline
# ----------------------------------------------------------------------
def test_dtype_flags_bad_fixture():
    findings = dtype_discipline.scan_module(fixture_tree("dtype_bad.py"),
                                            "dtype_bad.py")
    assert len(findings) >= 2
    scopes = {f.ident.split(":")[0] for f in findings}
    assert {"halve", "clamp"} <= scopes
    assert all(f.checker == "dtype-discipline" for f in findings)


def test_dtype_clean_fixture_passes():
    findings = dtype_discipline.scan_module(fixture_tree("dtype_clean.py"),
                                            "dtype_clean.py")
    assert findings == []


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
def test_locks_flag_bad_fixture():
    findings = lock_discipline.scan_module(fixture_tree("locks_bad.py"),
                                           "locks_bad.py")
    assert [f.ident for f in findings] == ["Counter._count"]
    assert findings[0].checker == "lock-discipline"
    assert "reset" in findings[0].message  # names the bare write site


def test_locks_clean_fixture_passes():
    findings = lock_discipline.scan_module(fixture_tree("locks_clean.py"),
                                           "locks_clean.py")
    assert findings == []  # _locked convention + secondary locks honored


# ----------------------------------------------------------------------
# message-kinds
# ----------------------------------------------------------------------
KNOWN_KINDS = {"frame", "stop", "result", "error"}


def test_kinds_flag_bad_fixture():
    findings, _ = message_kinds.scan_file(fixture_tree("kinds_bad.py"),
                                          "kinds_bad.py", KNOWN_KINDS)
    flagged = sorted(f.ident for f in findings)
    assert flagged == ["error", "frame", "framee", "result", "stop"]
    # The unknown kind gets the declare-a-constant hint, not the use-it one.
    typo = next(f for f in findings if f.ident == "framee")
    assert "declare" in typo.message


def test_kinds_clean_fixture_passes_and_records_dispatch():
    findings, dispatched = message_kinds.scan_file(
        fixture_tree("kinds_clean.py"), "kinds_clean.py", KNOWN_KINDS)
    assert findings == []  # constants everywhere; dtype.kind is exempt
    assert {"KIND_FRAME", "KIND_STOP"} <= dispatched


def test_kinds_exhaustiveness_reports_undispatched():
    constants = {"KIND_FRAME": "frame", "KIND_STOP": "stop",
                 "KIND_ORPHAN": "orphan"}
    missing = message_kinds.undispatched_constants(
        constants, {}, {"KIND_FRAME", "KIND_STOP"})
    assert list(missing) == ["KIND_ORPHAN"]
    # Group names expand: dispatching through CONTROL_KINDS covers members.
    covered = message_kinds.undispatched_constants(
        constants, {"CONTROL_KINDS": {"KIND_ORPHAN"}},
        {"KIND_FRAME", "KIND_STOP", "CONTROL_KINDS"})
    assert list(covered) == []


# ----------------------------------------------------------------------
# arena-aliasing
# ----------------------------------------------------------------------
def test_arena_flags_bad_fixture():
    findings = arena_aliasing.scan_module(fixture_tree("arena_bad.py"),
                                          "arena_bad.py")
    scopes = {f.ident.split(":")[0] for f in findings}
    assert scopes == {"execute", "execute_direct", "execute_view"}
    assert all(f.checker == "arena-aliasing" for f in findings)


def test_arena_clean_fixture_passes():
    findings = arena_aliasing.scan_module(fixture_tree("arena_clean.py"),
                                          "arena_clean.py")
    assert findings == []  # .copy() launders; containers are out of scope


# ----------------------------------------------------------------------
# sleep-discipline
# ----------------------------------------------------------------------
def test_sleep_flags_bad_fixture():
    findings = sleep_discipline.scan_module(fixture_tree("sleep_bad.py"),
                                            "sleep_bad.py")
    flagged = [f.ident for f in findings]
    assert flagged == ["<module>", "test_server_came_up",
                       "test_from_imported_sleep"]
    assert all(f.checker == "sleep-discipline" for f in findings)
    assert "wait_until" in findings[0].message  # points at the idiom


def test_sleep_clean_fixture_passes():
    findings = sleep_discipline.scan_module(fixture_tree("sleep_clean.py"),
                                            "sleep_clean.py")
    assert findings == []  # nested workload callables and lambdas exempt


# ----------------------------------------------------------------------
# results-hygiene
# ----------------------------------------------------------------------
def test_results_flags_bad_fixture():
    findings = results_hygiene.scan_module(fixture_tree("results_bad.py"),
                                           "results_bad.py")
    flagged = [f.ident for f in findings]
    assert flagged == ["_record_artifact", "test_dumps_scaling_table",
                       "test_appends_to_a_log", "test_mode_from_a_variable"]
    assert all(f.checker == "results-hygiene" for f in findings)
    assert "tmp_path" in findings[0].message  # points at the idiom


def test_results_clean_fixture_passes():
    findings = results_hygiene.scan_module(fixture_tree("results_clean.py"),
                                           "results_clean.py")
    assert findings == []  # reads, tmp dirs and benchmarks/e2e/results


# ----------------------------------------------------------------------
# take-mode
# ----------------------------------------------------------------------
def test_take_flags_bad_fixture():
    findings = take_mode.scan_module(fixture_tree("take_bad.py"),
                                     "take_bad.py")
    assert [f.ident for f in findings] == [
        "gather_rows:np.take", "gather_method:x.take",
        "gather_positional:np.take", "gather_bare:take"]
    assert all(f.checker == "take-mode" for f in findings)
    assert "mode='wrap'" in findings[0].message  # points at the idiom


def test_take_clean_fixture_passes():
    findings = take_mode.scan_module(fixture_tree("take_clean.py"),
                                     "take_clean.py")
    assert findings == []  # explicit modes, no out, BufferArena.take


# ----------------------------------------------------------------------
# live-tree meta-test
# ----------------------------------------------------------------------
def test_live_tree_clean_modulo_baseline():
    findings = run_checkers(REPO_ROOT)
    entries = load_baseline()
    new, _, stale = split_findings(findings, entries)
    assert new == [], ("non-baselined reprolint findings:\n"
                       + "\n".join(f.render() for f in new))
    assert stale == [], ("stale baseline entries (fixed findings still "
                         "baselined): " + ", ".join(e.key for e in stale))


def test_baseline_small_and_justified():
    entries = load_baseline()  # load_baseline raises on any missing reason
    assert len(entries) <= 9
    for entry in entries:
        assert len(entry.justification) >= 30, (
            f"{entry.key}: justification too thin to count as reviewed")
    raw = json.loads(DEFAULT_BASELINE.read_text(encoding="utf-8"))
    assert len(raw["entries"]) == len(entries)


def test_cli_json_contract():
    result = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "--format", "json"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert report["summary"]["clean"] is True
    assert report["summary"]["new"] == 0
    names = {c["name"] for c in report["checkers"]}
    assert names == {"arena-aliasing", "dtype-discipline", "layering",
                     "lock-discipline", "message-kinds", "results-hygiene",
                     "sleep-discipline", "take-mode"}
    # Baselined findings ride along with their justifications.
    for finding in report["findings"]:
        assert finding["baselined"] is True
        assert finding["justification"]
