"""Call census of ``src/repro``: which functions do traffic and tests enter?

``coverage`` is not a dependency of this repository, so the census records
*call events* only, with ``sys.setprofile`` / ``threading.setprofile``.  It
runs two commands, each with a generated ``sitecustomize.py`` prepended to
``PYTHONPATH``, so every Python process they start — the e2e harness's
``--in-process`` workload children, spawned shard workers, node processes,
``python -m`` subprocesses of the tests — installs the same hook at
interpreter start:

``traffic``
    ``benchmarks/e2e/run.py --quick`` (the four canonical workloads);
``tests``
    the tier-1 suite, ``python -m pytest -q tests``.

Each process appends one line per newly entered ``src/repro`` function to a
file of its own and flushes it, so a worker killed mid-run still leaves its
record behind.  The report then lists, by ``(file, qualname)`` against an
``ast`` walk of every ``def`` under ``src/repro``:

* every function that neither run entered;
* every function in the serving scope (``system/``, ``runtime/``,
  ``serving/`` and ``core/executor.py``) that only the tests entered, with a
  per-package count of test-only functions elsewhere.

Lambdas and comprehensions are not ``def`` s and are not listed; a property
getter and its setter share one qualname and count as one function.  The
census is a map, not a gate.  It needs Python 3.11 or newer (the hook reads
``co_qualname``), and it stops without a report when either run exits
non-zero or leaves no records: a failed run would read as functions never
entered.

Run with:  python tools/call_census.py [--out DIR]
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

RUNS = {
    "traffic": [sys.executable, str(REPO_ROOT / "benchmarks/e2e/run.py"),
                "--quick"],
    "tests": [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "tests"],
}

#: Where test-only functions need a verdict; paper-side code is judged by
#: what the reproduction consumes, not by serving traffic.
SERVING_SCOPE = ("system/", "runtime/", "serving/", "core/executor.py")

#: The hook every census process installs; ``{root}`` and ``{out}`` are
#: filled in per run.  Tracing is off inside a profile function, so the
#: lazy ``open`` does not re-enter it.  Seen code objects are kept alive
#: so their ids are never reused.
_SITECUSTOMIZE = '''\
import os, sys, threading

_ROOT = {root!r}
_OUT = {out!r}
_seen = {{}}
_sink = []


def _census(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen[id(code)] = code
    if not code.co_filename.startswith(_ROOT):
        return
    if not _sink:
        _sink.append(open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a"))
    _sink[0].write("%s\\t%s\\n" % (code.co_filename[len(_ROOT):],
                                  code.co_qualname))
    _sink[0].flush()


sys.setprofile(_census)
threading.setprofile(_census)
'''


def run_census(name: str, out: Path) -> Optional[str]:
    """Run one census command with the hook in every process it starts.

    Returns why the run cannot be reported on, or ``None`` if it can.
    """
    records = out / name
    records.mkdir(parents=True, exist_ok=True)
    for stale in records.glob("*.txt"):  # a reused --out
        stale.unlink()
    site = out / f"{name}-site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
        root=str(PACKAGE) + os.sep, out=str(records)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    # The command's own output goes to stderr: stdout carries the report.
    code = subprocess.call(RUNS[name], cwd=REPO_ROOT, env=env,
                           stdout=sys.stderr)
    elapsed = time.perf_counter() - started
    print(f"[census] {name}: exit {code} after {elapsed:.0f} s",
          file=sys.stderr)
    if code != 0:
        return f"{name} run exited with status {code}"
    if not any(records.glob("*.txt")):
        return f"{name} run left no call records in {records}"
    return None


def entered(records: Path) -> Set[Tuple[str, str]]:
    """``(file, qualname)`` of every function any process of a run entered."""
    seen: Set[Tuple[str, str]] = set()
    for path in records.glob("*.txt"):
        for line in path.read_text().splitlines():
            file, _, qualname = line.partition("\t")
            seen.add((file, qualname))
    return seen


def defined() -> Dict[Tuple[str, str], int]:
    """Every ``def`` under ``src/repro``: ``(file, qualname) -> line``."""
    functions: Dict[Tuple[str, str], int] = {}

    def walk(node: ast.AST, prefix: str, file: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                functions.setdefault((file, qualname), child.lineno)
                walk(child, qualname + ".<locals>.", file)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", file)
            else:
                walk(child, prefix, file)

    for path in sorted(PACKAGE.rglob("*.py")):
        file = path.relative_to(PACKAGE).as_posix()
        walk(ast.parse(path.read_text(), filename=str(path)), "", file)
    return functions


def in_scope(file: str) -> bool:
    return file.startswith(SERVING_SCOPE)


def report(out: Path) -> str:
    functions = defined()
    traffic, tests = entered(out / "traffic"), entered(out / "tests")
    never = sorted(key for key in functions
                   if key not in traffic and key not in tests)
    test_only = sorted(key for key in functions
                       if key in tests and key not in traffic)
    lines = [f"call census: {len(functions)} functions under src/repro; "
             f"traffic entered {len(traffic & functions.keys())}, tests "
             f"{len(tests & functions.keys())}",
             "",
             f"never entered ({len(never)}):"]
    lines += [f"  {file}:{functions[file, name]}  {name}"
              for file, name in never]
    scoped = [key for key in test_only if in_scope(key[0])]
    lines += ["", f"entered by the tests only, serving scope ({len(scoped)} "
              f"of {len(test_only)}):"]
    lines += [f"  {file}:{functions[file, name]}  {name}"
              for file, name in scoped]
    elsewhere = collections.Counter(file.split("/")[0]
                                    for file, _ in test_only
                                    if not in_scope(file))
    lines += ["", "entered by the tests only, elsewhere (per package):"]
    lines += [f"  {package}: {count}"
              for package, count in sorted(elsewhere.items())]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the per-process call records "
                             "(default: a fresh temporary directory)")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        parser.error("the census hook reads code.co_qualname, "
                     "which needs Python 3.11 or newer")
    out = (args.out or Path(tempfile.mkdtemp(prefix="call-census-"))).resolve()
    for name in RUNS:
        failure = run_census(name, out)
        if failure is not None:
            print(f"[census] no report: {failure}", file=sys.stderr)
            return 1
    print(report(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
