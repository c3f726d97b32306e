"""layering — declarative per-module import allowlists.

Generalizes the original ``tools/check_layering.py`` rules (transport and
scheduler import only ``messages`` + stdlib; ``messages`` stays leaf-like)
to the whole runtime and serving stack: each module in
``config.LAYERING_RULES`` may import the standard library plus exactly its
allowlist.  Two refinements over the original script:

* ``from . import x`` resolves to the *imported submodule* (``package.x``),
  not just the package, so intra-package allowlists stay precise.
* Imports inside ``if TYPE_CHECKING:`` blocks are skipped — they never
  execute, so they cannot re-couple layers at runtime (the engine's
  type-only references to runtime stats classes stay legal).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Set, Tuple

from ..config import LAYERING_RULES
from ..core import Checker, Finding, parse_file, register

try:
    STDLIB = set(sys.stdlib_module_names)
except AttributeError:  # pragma: no cover - Python < 3.10
    STDLIB = set()


def _is_type_checking_test(test: ast.expr) -> bool:
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"))


def resolve_relative(rel_path: str, node: ast.ImportFrom) -> List[str]:
    """Absolute dotted names of a relative import's targets.

    ``rel_path`` is the repo-relative path under ``src/`` (e.g.
    ``src/repro/runtime/plan.py``).  ``from . import kernels`` yields
    ``repro.runtime.kernels`` (one name per alias); ``from .arena import
    BufferArena`` yields ``repro.runtime.arena``.
    """
    parts = Path(rel_path).parts
    package = list(parts[1:-1] if parts[0] == "src" else parts[:-1])
    base = list(package)
    for _ in range(node.level - 1):
        if base:
            base.pop()
    if node.module:
        return [".".join(base + node.module.split("."))]
    return [".".join(base + [alias.name]) for alias in node.names]


def imported_modules(tree: ast.Module, rel_path: str
                     ) -> Iterator[Tuple[str, int]]:
    """Yield ``(absolute_module_name, lineno)`` for every runtime import."""
    for node in _walk_skipping_type_checking(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                for name in resolve_relative(rel_path, node):
                    yield name, node.lineno
            else:
                yield node.module or "", node.lineno


def _walk_skipping_type_checking(tree: ast.Module) -> Iterator[ast.AST]:
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            stack.extend(node.orelse)  # the runtime branch still counts
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def allowed(module: str, allowlist: Iterable[str]) -> bool:
    root = module.split(".")[0]
    if root in STDLIB:
        return True
    return any(module == entry or module.startswith(entry + ".")
               for entry in allowlist)


def scan_module(tree: ast.Module, rel_path: str, allowlist: Set[str]
                ) -> List[Finding]:
    findings = []
    for module, lineno in imported_modules(tree, rel_path):
        if not allowed(module, allowlist):
            shown = sorted(allowlist) if allowlist else "(stdlib only)"
            findings.append(Finding(
                checker="layering", path=rel_path, line=lineno, ident=module,
                message=f"imports {module!r} — outside this layer's "
                        f"allowlist {shown}"))
    return findings


@register
class LayeringChecker(Checker):
    name = "layering"
    description = ("per-module import allowlists keep the "
                   "messages/transport/runtime/engine/serving tiers apart")

    def check(self, root: Path) -> Iterator[Finding]:
        for rel_path, allowlist in sorted(LAYERING_RULES.items()):
            module_file = root / rel_path
            if not module_file.exists():
                yield Finding(
                    checker=self.name, path=rel_path, line=0,
                    ident="missing-file",
                    message="file missing (layering rules reference it — "
                            "update tools/reprolint/config.py if it moved)")
                continue
            yield from scan_module(parse_file(module_file), rel_path,
                                   allowlist)
