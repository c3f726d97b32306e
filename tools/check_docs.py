"""Docs and examples health check (run by the CI docs job).

Seven independent checks, all purely static/import-level so the whole run
takes seconds:

1. **Example import smoke** — every ``examples/*.py`` must import cleanly
   (their ``main()`` is guarded by ``__main__``, so importing exercises the
   module's API surface — stale imports, renamed symbols, syntax errors —
   without running a multi-minute workflow).
2. **Intra-repo link check** — every relative markdown link in ``README.md``
   and ``docs/*.md`` must resolve to an existing file or directory.
   External links (``http``, ``https``, ``mailto``) and pure in-page anchors
   are skipped.
3. **Generated knob tables** — the reference tables of ``docs/serving.md``
   are regenerated from the knob declarations of
   ``repro.serving.config``; any difference (a hand-edited row, a knob
   changed without regenerating) fails.  Fix with
   ``PYTHONPATH=src python -m repro.serving.config --write docs/serving.md``.
4. **Root-document citations** — a bare upper-case name ending in ``.md``
   (no directory in front of it) in a source file or a doc names a document
   at the repository root, and that document must exist: a docstring that
   sends its reader to a file nobody wrote is a broken link too.
5. **Generated wire schema** — the schema block of ``docs/architecture.md``
   is re-rendered from the declarations every edge frame is walked against
   (``_WIRE_ARRAYS``, ``_WIRE_META``, ``_EXCLUSIVE`` in
   ``repro.core.executor``); any difference fails.  Fix with
   ``PYTHONPATH=src python tools/check_docs.py --write``.
6. **Generated wire layouts** — the layout table of ``docs/serving.md`` is
   re-rendered from the layouts the codec reads and writes (``_LAYOUTS`` in
   ``repro.system.messages``); any difference fails.  The same ``--write``
   fixes it.
7. **Private names in the docs** — a backticked private name (`` `_name` ``)
   in ``README.md`` or ``docs/*.md`` must still be defined — by a ``def``,
   a ``class`` or an assignment — somewhere under ``src/``, ``tools/`` or
   ``benchmarks/``: a helper renamed or deleted must take its prose with
   it.

Exit code is non-zero when anything fails, printing one line per problem.

Run with:  PYTHONPATH=src python tools/check_docs.py [--write]
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target); images share the same syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: A bare upper-case markdown file name; one behind a directory
#: (``docs/x.md``, ``benchmarks/e2e/README.md``) is not a root citation.
_ROOT_DOC_RE = re.compile(r"(?<![\w/.\-])[A-Z][A-Z0-9_]*\.md\b")
#: Where root documents get cited from: sources, their tests and the docs.
_CITING_DIRS = ("src", "benchmarks", "tools", "tests", "examples", "docs")
#: A backticked private name (dunders are Python's, not ours).
_PRIVATE_NAME_RE = re.compile(r"`(_[A-Za-z][A-Za-z0-9_]*)`")
#: Where the private names the docs cite must be defined.
_DEFINING_DIRS = ("src", "tools", "benchmarks")


def check_example_imports() -> list:
    """Import every example module; returns a list of error strings."""
    errors = []
    examples_dir = REPO_ROOT / "examples"
    sys.path.insert(0, str(examples_dir))
    try:
        for path in sorted(examples_dir.glob("*.py")):
            module = path.stem
            try:
                importlib.import_module(module)
            except Exception as exc:
                errors.append(f"examples/{path.name}: import failed: "
                              f"{type(exc).__name__}: {exc}")
            else:
                print(f"ok  import examples/{path.name}")
    finally:
        sys.path.remove(str(examples_dir))
    return errors


def iter_markdown_files():
    yield REPO_ROOT / "README.md"
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def check_markdown_links() -> list:
    """Resolve every relative link; returns a list of error strings."""
    errors = []
    for md_file in iter_markdown_files():
        if not md_file.exists():
            errors.append(f"{md_file.relative_to(REPO_ROOT)}: file missing")
            continue
        text = md_file.read_text(encoding="utf-8")
        checked = 0
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            # Strip an in-page anchor from a file link (docs/x.md#section).
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (md_file.parent / target_path).resolve()
            if not resolved.exists():
                errors.append(f"{md_file.relative_to(REPO_ROOT)}: broken link "
                              f"-> {target}")
            checked += 1
        print(f"ok  {md_file.relative_to(REPO_ROOT)}: {checked} intra-repo "
              "link(s) checked")
    return errors


def check_knob_tables() -> list:
    """Regenerate the knob reference of docs/serving.md; list any drift."""
    from repro.serving.config import splice_reference

    path = REPO_ROOT / "docs" / "serving.md"
    text = path.read_text(encoding="utf-8")
    try:
        fresh = splice_reference(text)
    except ValueError as exc:
        return [f"docs/serving.md: {exc}"]
    if fresh != text:
        stale = next((old for old, new in zip(text.splitlines(),
                                              fresh.splitlines())
                      if old != new), "<block truncated>")
        return ["docs/serving.md: knob tables drifted from "
                f"repro/serving/config.py (first stale line: {stale!r}); run "
                "PYTHONPATH=src python -m repro.serving.config --write "
                "docs/serving.md"]
    print("ok  docs/serving.md: knob tables match the declarations")
    return []


WIRE_SCHEMA_DOC = REPO_ROOT / "docs" / "architecture.md"
WIRE_SCHEMA_BEGIN = "<!-- wire-schema:begin (generated block: do not edit) -->"
WIRE_SCHEMA_END = "<!-- wire-schema:end -->"


def wire_schema_tables() -> str:
    """The wire schema of ``repro.core.executor`` as markdown tables."""
    from repro.core import executor as ex

    def shape(axes):
        return f"`({', '.join(map(str, axes))}{',' * (len(axes) == 1)})`"

    rows = ["| array | holds | dtype | shape | values |",
            "| --- | --- | --- | --- | --- |"]
    for name, spec in ex._WIRE_ARRAYS.items():
        values = "any"
        if spec.high is not None:
            values = f"{spec.unit} ids in `[0, {spec.high})`"
            if spec.every:
                values += f", every {spec.unit} present"
        required = " (required)" if spec.required else ""
        rows.append(f"| `{name}`{required} | {spec.doc} | "
                    f"{spec.dtype.__name__} | {shape(spec.shape)} | "
                    f"{values} |")
    free = ", ".join(f"{axis} ≥ {least}"
                     for axis, least in ex._FREE_AXES.items())
    rows += ["", f"N is the rows of `x` and G the meta's `num_graphs`; the "
             f"free axes are {free}.  A meta type admits numpy's scalars of "
             "its kind.", "",
             "| meta field | holds | type | when absent | values |",
             "| --- | --- | --- | --- | --- |"]
    for name, field in ex._WIRE_META.items():
        types = f"`{field.types[0].__name__}`"
        if bool not in field.types and issubclass(bool, field.types):
            types += " (not `bool`)"
        absent = ("refused" if field.default is ex._REQUIRED
                  else f"`{field.default!r}`")
        values = []
        if field.choices:
            values.append("one of " + ", ".join(f"`{choice!r}`"
                                                for choice in field.choices))
        if field.high is not None:
            values.append(f"`[{field.low}, {field.high}]` unpooled, "
                          f"`{field.high}` pooled")
        if field.entry:
            values.append("the entry's own: `True` exactly when it has no "
                          "`Communicate`")
        rows.append(f"| `{name}` | {field.doc} | {types} | {absent} | "
                    f"{'; '.join(values) or 'any'} |")
    pairs = "; ".join(f"`{first}` with `{second}`"
                      for first, second in ex._EXCLUSIVE)
    rows += ["", f"Never together: {pairs}."]
    return "\n".join(rows)


WIRE_LAYOUTS_DOC = REPO_ROOT / "docs" / "serving.md"
WIRE_LAYOUTS_BEGIN = ("<!-- wire-layouts:begin (generated block: do not "
                      "edit) -->")
WIRE_LAYOUTS_END = "<!-- wire-layouts:end -->"


def wire_layout_table() -> str:
    """The array layouts of ``repro.system.messages`` as a markdown table."""
    from repro.system import messages

    rows = ["| spec | layout | dtypes | ships from | bytes |",
            "| --- | --- | --- | --- | --- |"]
    for tag, layout in messages._LAYOUTS.items():
        spec = ", ".join(["name", "dtype", "shape"]
                         + ([] if tag is None else [f'"{tag}"']))
        least = layout.min_elements
        size = (f"{least} element{'s' * (least != 1)}" if least
                else "any size")
        rows.append(f"| `[{spec}]` | {layout.name} | {layout.dtypes} | "
                    f"{size} | {layout.doc} |")
    return "\n".join(rows)


def _splice(text: str, begin: str, end: str, body: str, what: str) -> str:
    """``text`` with the block between ``begin`` and ``end`` set to
    ``body``."""
    head, found_begin, rest = text.partition(begin)
    _, found_end, tail = rest.partition(end)
    if not (found_begin and found_end):
        raise ValueError(f"{what} markers not found")
    return f"{head}{begin}\n\n{body}\n\n{end}{tail}"


def splice_wire_schema(text: str) -> str:
    """``text`` with the wire schema block regenerated."""
    return _splice(text, WIRE_SCHEMA_BEGIN, WIRE_SCHEMA_END,
                   wire_schema_tables(), "wire schema")


def splice_wire_layouts(text: str) -> str:
    """``text`` with the wire layout table regenerated."""
    return _splice(text, WIRE_LAYOUTS_BEGIN, WIRE_LAYOUTS_END,
                   wire_layout_table(), "wire layout")


def _check_block(doc: Path, splice, what: str, source: str) -> list:
    """Re-render one generated block of ``doc``; list any drift."""
    path = doc.relative_to(REPO_ROOT)
    text = doc.read_text(encoding="utf-8")
    try:
        fresh = splice(text)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    if fresh != text:
        return [f"{path}: the {what} block drifted from {source}; run "
                "PYTHONPATH=src python tools/check_docs.py --write"]
    print(f"ok  {path}: {what} matches the declarations")
    return []


def check_wire_schema() -> list:
    """Re-render the wire schema block of docs/architecture.md."""
    return _check_block(WIRE_SCHEMA_DOC, splice_wire_schema, "wire schema",
                        "repro/core/executor.py")


def check_wire_layouts() -> list:
    """Re-render the wire layout table of docs/serving.md."""
    return _check_block(WIRE_LAYOUTS_DOC, splice_wire_layouts,
                        "wire layout", "repro/system/messages.py")


def check_root_doc_citations() -> list:
    """Every root document a source file or doc names must exist."""
    errors = []
    files = [REPO_ROOT / "README.md"]
    for directory in _CITING_DIRS:
        for pattern in ("*.py", "*.md"):
            files.extend(sorted((REPO_ROOT / directory).rglob(pattern)))
    cited = 0
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            for name in _ROOT_DOC_RE.findall(line):
                cited += 1
                if not (REPO_ROOT / name).exists():
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: cites "
                        f"{name}, which does not exist at the repository "
                        "root")
    print(f"ok  {cited} root-document citation(s) checked")
    return errors


def defined_names() -> set:
    """Every name a ``def``, a ``class`` or an assignment (to a name or an
    attribute) binds in the Python files under :data:`_DEFINING_DIRS`."""
    names = set()
    for directory in _DEFINING_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                               ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store):
                    names.add(node.attr)
    return names


def check_private_names() -> list:
    """Every backticked private name in the docs must still be defined."""
    defined = defined_names()
    errors = []
    cited = 0
    for md_file in iter_markdown_files():
        if not md_file.exists():
            continue  # check_markdown_links reports it
        lines = md_file.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            for name in _PRIVATE_NAME_RE.findall(line):
                cited += 1
                if name not in defined:
                    errors.append(
                        f"{md_file.relative_to(REPO_ROOT)}:{number}: names "
                        f"{name}, which nothing under "
                        f"{', '.join(_DEFINING_DIRS)} defines")
    print(f"ok  {cited} private name(s) in the docs checked")
    return errors


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write"]:
        for doc, splice in ((WIRE_SCHEMA_DOC, splice_wire_schema),
                            (WIRE_LAYOUTS_DOC, splice_wire_layouts)):
            doc.write_text(splice(doc.read_text(encoding="utf-8")),
                           encoding="utf-8")
        return 0
    if argv:
        print("usage: python tools/check_docs.py [--write]", file=sys.stderr)
        return 2
    errors = (check_example_imports() + check_markdown_links()
              + check_knob_tables() + check_wire_schema()
              + check_wire_layouts() + check_root_doc_citations()
              + check_private_names())
    if errors:
        print(f"\n{len(errors)} problem(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print("\ndocs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
