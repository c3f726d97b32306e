"""results-hygiene — tests never write into ``benchmarks/results/``.

``benchmarks/results/`` holds *committed* benchmark outputs.  A test that
writes there dirties the checkout on every tier-1 run, makes the run's
outcome depend on what an earlier run left behind, and lets two test
processes race on one file.  Test artifacts belong under pytest's
``tmp_path`` / ``tmp_path_factory.getbasetemp()`` (which CI points at its
upload directory with ``--basetemp``).

The rule is syntactic.  A path expression *names the results directory*
when its string constants, read left to right and split on ``/``, contain
``benchmarks`` directly followed by ``results`` — ``os.path.join(here,
os.pardir, "benchmarks", "results")``, ``ROOT / "benchmarks" / "results" /
"x.json"`` and ``"benchmarks/results/x.json"`` all do — or when it
mentions a name assigned from such an expression (``RESULTS_DIR``, then
``path = os.path.join(RESULTS_DIR, ...)``).  Flagged are the calls that
open such a path for writing: ``open(path, mode)`` / ``path.open(mode)``
with a ``w``/``a``/``x``/``+`` mode (or a mode that is not a literal), and
``path.write_text`` / ``path.write_bytes``.  Reading committed results
stays allowed.

Scope (see ``config``): files under ``tests/``, minus the known-bad
checker fixtures.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set

from ..config import (RESULTS_EXEMPT_DIRS, RESULTS_PROTECTED_DIR,
                      RESULTS_SCAN_DIR)
from ..core import Checker, Finding, parse_file, register

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _ordered_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first walk in source order (``ast.walk`` is breadth-first)."""
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _ordered_walk(child)


def names_results_dir(expr: ast.AST, tainted: Set[str]) -> bool:
    """Whether ``expr`` builds a path inside the protected directory."""
    parts: List[str] = []
    for node in _ordered_walk(expr):
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts.extend(part for part in
                         node.value.replace("\\", "/").split("/") if part)
    width = len(RESULTS_PROTECTED_DIR)
    return any(tuple(parts[i:i + width]) == RESULTS_PROTECTED_DIR
               for i in range(len(parts) - width + 1))


def _tainted_names(tree: ast.Module) -> Set[str]:
    """Names assigned (anywhere in the module) from a results-dir path."""
    assignments = [(node.targets[0].id, node.value)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and len(node.targets) == 1
                   and isinstance(node.targets[0], ast.Name)]
    tainted: Set[str] = set()
    grew = True
    while grew:  # to a fixpoint: RESULTS_DIR -> path -> target
        grew = False
        for name, value in assignments:
            if name not in tainted and names_results_dir(value, tainted):
                tainted.add(name)
                grew = True
    return tainted


def _opens_for_writing(mode: Optional[ast.AST]) -> bool:
    if mode is None:
        return False  # open(path) reads
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wax+")
    return True  # a computed mode cannot be shown to be read-only


def _written_path(call: ast.Call) -> Optional[ast.AST]:
    """The path ``call`` opens for writing, if it is such a call."""
    func = call.func
    keywords = {kw.arg: kw.value for kw in call.keywords}
    if isinstance(func, ast.Name) and func.id == "open" and call.args:
        mode = call.args[1] if len(call.args) > 1 else keywords.get("mode")
        return call.args[0] if _opens_for_writing(mode) else None
    if isinstance(func, ast.Attribute):
        if func.attr in _WRITE_METHODS:
            return func.value
        if func.attr == "open":  # pathlib: path.open(mode)
            mode = call.args[0] if call.args else keywords.get("mode")
            return func.value if _opens_for_writing(mode) else None
    return None


def scan_module(tree: ast.Module, rel_path: str) -> List[Finding]:
    tainted = _tainted_names(tree)
    findings: List[Finding] = []
    for statement in tree.body:
        # Keyed by the enclosing top-level def/class: stable under edits.
        scope = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            path = _written_path(node)
            if path is not None and names_results_dir(path, tainted):
                findings.append(Finding(
                    checker="results-hygiene", path=rel_path,
                    line=node.lineno, ident=scope,
                    message=f"{scope} writes into "
                            f"{'/'.join(RESULTS_PROTECTED_DIR)}/ at line "
                            f"{node.lineno} — committed results are "
                            "read-only for tests; write under tmp_path / "
                            "tmp_path_factory.getbasetemp()"))
    return sorted(findings, key=lambda finding: finding.line)


@register
class ResultsHygieneChecker(Checker):
    name = "results-hygiene"
    description = ("tests never open a path inside benchmarks/results/ "
                   "for writing (artifacts go under pytest's tmp dirs)")

    def check(self, root: Path) -> Iterator[Finding]:
        target = root / RESULTS_SCAN_DIR
        if not target.is_dir():
            return
        for module_file in sorted(target.rglob("*.py")):
            rel_path = module_file.relative_to(root).as_posix()
            if any(rel_path.startswith(exempt + "/")
                   for exempt in RESULTS_EXEMPT_DIRS):
                continue
            yield from scan_module(parse_file(module_file), rel_path)
