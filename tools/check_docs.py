"""Docs and examples health check (run by the CI docs job).

Four independent checks, all purely static/import-level so the whole run
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

Exit code is non-zero when anything fails, printing one line per problem.

Run with:  PYTHONPATH=src python tools/check_docs.py [--write]
"""

from __future__ import annotations

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


def splice_wire_schema(text: str) -> str:
    """``text`` with the wire schema block regenerated."""
    head, begin, rest = text.partition(WIRE_SCHEMA_BEGIN)
    _, end, tail = rest.partition(WIRE_SCHEMA_END)
    if not (begin and end):
        raise ValueError("wire schema markers not found")
    return f"{head}{begin}\n\n{wire_schema_tables()}\n\n{end}{tail}"


def check_wire_schema() -> list:
    """Re-render the wire schema block of docs/architecture.md."""
    path = WIRE_SCHEMA_DOC.relative_to(REPO_ROOT)
    text = WIRE_SCHEMA_DOC.read_text(encoding="utf-8")
    try:
        fresh = splice_wire_schema(text)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    if fresh != text:
        return [f"{path}: the wire schema block drifted from "
                "repro/core/executor.py; run PYTHONPATH=src python "
                "tools/check_docs.py --write"]
    print(f"ok  {path}: wire schema matches the declarations")
    return []


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


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write"]:
        WIRE_SCHEMA_DOC.write_text(splice_wire_schema(
            WIRE_SCHEMA_DOC.read_text(encoding="utf-8")), encoding="utf-8")
        return 0
    if argv:
        print("usage: python tools/check_docs.py [--write]", file=sys.stderr)
        return 2
    errors = (check_example_imports() + check_markdown_links()
              + check_knob_tables() + check_wire_schema()
              + check_root_doc_citations())
    if errors:
        print(f"\n{len(errors)} problem(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print("\ndocs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
