"""take-mode — a ``take`` into ``out=`` names its ``mode``.

``np.take(a, idx, out=buf)`` and ``a.take(idx, out=buf)`` default to
``mode="raise"``, and in that mode numpy never writes ``buf`` directly: it
gathers into a freshly allocated temporary of ``buf``'s size and copies it
over, so the error can be raised before ``buf`` is touched.  Inside the
runtime that silently undoes the arena's "no per-op allocation" promise —
the uniform EdgeConv kernels paid one scratch-sized copy per chunk for it.
``mode="wrap"`` (or ``"clip"``) writes in place, but only gathers what
``"raise"`` would once the indices are range-checked, so the mode must be
a visible, reviewed choice at each call site.

Scope: modules under ``config.TAKE_TARGET_DIR``.  Flagged: a call of
``np.take`` / ``numpy.take`` / a bare ``take`` or any ``<expr>.take`` that
passes ``out`` and no ``mode``.  ``out`` counts when passed by keyword, or
positionally to the module function (its fourth argument); a method's
positional arguments are never read, because ``BufferArena.take(slot,
shape, dtype)`` shares the name.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

from ..config import TAKE_TARGET_DIR
from ..core import Checker, Finding, parse_file, register

_NUMPY_NAMES = frozenset({"np", "numpy"})


def _is_module_take(func: ast.expr) -> bool:
    """``np.take`` / ``numpy.take`` or a from-imported bare ``take``."""
    if isinstance(func, ast.Name):
        return func.id == "take"
    return (isinstance(func, ast.Attribute) and func.attr == "take"
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_NAMES)


def _passes_out_without_mode(node: ast.Call) -> bool:
    keywords = {keyword.arg for keyword in node.keywords}
    if None in keywords:  # **kwargs: cannot tell, stay quiet
        return False
    if _is_module_take(node.func):
        # take(a, indices, axis, out, mode)
        has_out = "out" in keywords or len(node.args) >= 4
        has_mode = "mode" in keywords or len(node.args) >= 5
    elif isinstance(node.func, ast.Attribute) and node.func.attr == "take":
        has_out, has_mode = "out" in keywords, "mode" in keywords
    else:
        return False
    return has_out and not has_mode


class _Scanner(ast.NodeVisitor):
    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.findings: List[Finding] = []
        self._scope = "<module>"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self._scope = self._scope, node.name
        self.generic_visit(node)
        self._scope = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if _passes_out_without_mode(node):
            callee = ast.unparse(node.func)
            self.findings.append(Finding(
                checker="take-mode", path=self.rel_path, line=node.lineno,
                ident=f"{self._scope}:{callee}",
                message=f"{callee}(..., out=...) in {self._scope} has no "
                        "mode= — the default 'raise' gathers into a "
                        "temporary and copies it into out; range-check the "
                        "indices and pass mode='wrap', or say "
                        "mode='raise' where the check is wanted"))
        self.generic_visit(node)


def scan_module(tree: ast.Module, rel_path: str) -> List[Finding]:
    scanner = _Scanner(rel_path)
    scanner.visit(tree)
    return scanner.findings


@register
class TakeModeChecker(Checker):
    name = "take-mode"
    description = ("runtime take(..., out=...) calls name their mode "
                   "(the default 'raise' copies through a temporary)")

    def check(self, root: Path) -> Iterator[Finding]:
        target = root / TAKE_TARGET_DIR
        if not target.is_dir():
            return
        for module_file in sorted(target.rglob("*.py")):
            rel_path = module_file.relative_to(root).as_posix()
            yield from scan_module(parse_file(module_file), rel_path)
