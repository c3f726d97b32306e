"""``tools/check_docs.py``: a cited root document that does not exist
fails, and so do a wire schema block or a wire layout table that drifted
from its declaration and a private name the docs cite that the code no
longer defines."""

import dataclasses
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # tools lives off the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_docs
from repro.core import executor
from repro.system import messages

#: Assembled at run time: spelled out, the live-tree check below would
#: find this very file citing it.
MISSING = "NOWHERE" + ".md"


def test_missing_root_document_is_reported(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "CHANGES.md").write_text("", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        f"See CHANGES.md and docs/{MISSING}.\n", encoding="utf-8")
    (tmp_path / "src" / "module.py").write_text(
        f'"""One line.\n\nSee {MISSING} and benchmarks/e2e/README.md."""\n',
        encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.check_root_doc_citations() == [
        f"src/module.py:3: cites {MISSING}, which does not exist at the "
        "repository root"]


def test_live_tree_cites_no_missing_root_document():
    assert check_docs.check_root_doc_citations() == []


def _generated_doc(tmp_path, monkeypatch, block: str, body: str):
    """A scratch copy of the doc holding the ``block`` ("WIRE_SCHEMA" or
    "WIRE_LAYOUTS") generated block, with ``body`` between its markers;
    both docs ``--write`` touches point into ``tmp_path``."""
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    for name in ("WIRE_SCHEMA", "WIRE_LAYOUTS"):
        doc = tmp_path / f"{name.lower()}.md"
        doc.write_text(
            f"Intro.\n\n{getattr(check_docs, name + '_BEGIN')}\n"
            f"{body if name == block else ''}\n"
            f"{getattr(check_docs, name + '_END')}\n\nOutro.\n",
            encoding="utf-8")
        monkeypatch.setattr(check_docs, name + "_DOC", doc)
    return tmp_path / f"{block.lower()}.md"


def _schema_doc(tmp_path, monkeypatch, body: str):
    return _generated_doc(tmp_path, monkeypatch, "WIRE_SCHEMA", body)


def test_wire_schema_block_drift_is_reported(tmp_path, monkeypatch):
    doc = _schema_doc(tmp_path, monkeypatch, "| `x` | hand-edited |")
    [error] = check_docs.check_wire_schema()
    assert "wire_schema.md: the wire schema block drifted" in error
    assert check_docs.main(["--write"]) == 0
    assert check_docs.check_wire_schema() == []
    assert doc.read_text(encoding="utf-8").startswith("Intro.")
    # A declaration changed without regenerating fails too.
    monkeypatch.setitem(executor._FREE_AXES, "k", 2)
    assert len(check_docs.check_wire_schema()) == 1


def test_wire_schema_markers_are_required(tmp_path, monkeypatch):
    doc = _schema_doc(tmp_path, monkeypatch, "")
    doc.write_text("No block here.\n", encoding="utf-8")
    assert check_docs.check_wire_schema() == [
        "wire_schema.md: wire schema markers not found"]


def test_live_tree_wire_schema_is_current():
    assert check_docs.check_wire_schema() == []


def test_wire_layout_table_drift_is_reported(tmp_path, monkeypatch):
    doc = _generated_doc(tmp_path, monkeypatch, "WIRE_LAYOUTS",
                         '| `[name, dtype, shape, "bp"]` | hand-edited |')
    [error] = check_docs.check_wire_layouts()
    assert error.startswith("wire_layouts.md: the wire layout block drifted "
                            "from repro/system/messages.py")
    assert check_docs.main(["--write"]) == 0
    assert check_docs.check_wire_layouts() == []
    text = doc.read_text(encoding="utf-8")
    assert text.startswith("Intro.") and text.endswith("Outro.\n")
    for tag in ("zp", "bp", "dp"):
        assert f'`[name, dtype, shape, "{tag}"]`' in text
    # A layout declared without regenerating fails too.
    monkeypatch.setitem(messages._LAYOUTS, "dp", dataclasses.replace(
        messages._LAYOUTS["dp"], min_elements=8192))
    assert len(check_docs.check_wire_layouts()) == 1


def test_wire_layout_markers_are_required(tmp_path, monkeypatch):
    doc = _generated_doc(tmp_path, monkeypatch, "WIRE_LAYOUTS", "")
    doc.write_text("No table here.\n", encoding="utf-8")
    assert check_docs.check_wire_layouts() == [
        "wire_layouts.md: wire layout markers not found"]


def test_live_tree_wire_layouts_are_current():
    assert check_docs.check_wire_layouts() == []


def test_stale_private_name_is_reported(tmp_path, monkeypatch):
    for directory in ("src", "tools", "benchmarks", "docs"):
        (tmp_path / directory).mkdir()
    (tmp_path / "src" / "module.py").write_text(
        "class _Live:\n    def __init__(self):\n        self._slot = 1\n",
        encoding="utf-8")
    (tmp_path / "tools" / "tool.py").write_text("_CONSTANT = 2\n",
                                                encoding="utf-8")
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "def _helper():\n    pass\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "`_Live` keeps `_slot`; `__init__` is Python's.\n", encoding="utf-8")
    (tmp_path / "docs" / "guide.md").write_text(
        "Intro.\n\n`_CONSTANT`, `_helper` and `_slot_table`.\n",
        encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.check_private_names() == [
        "docs/guide.md:3: names _slot_table, which nothing under src, "
        "tools, benchmarks defines"]


def test_live_tree_private_names_are_defined():
    assert check_docs.check_private_names() == []
