"""``tools/check_docs.py``: a cited root document that does not exist
fails, and so does a wire schema block that drifted from its declaration."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # tools lives off the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_docs
from repro.core import executor

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


def _schema_doc(tmp_path, monkeypatch, body: str):
    doc = tmp_path / "architecture.md"
    doc.write_text(f"Intro.\n\n{check_docs.WIRE_SCHEMA_BEGIN}\n{body}\n"
                   f"{check_docs.WIRE_SCHEMA_END}\n\nOutro.\n",
                   encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "WIRE_SCHEMA_DOC", doc)
    return doc


def test_wire_schema_block_drift_is_reported(tmp_path, monkeypatch):
    doc = _schema_doc(tmp_path, monkeypatch, "| `x` | hand-edited |")
    [error] = check_docs.check_wire_schema()
    assert "architecture.md: the wire schema block drifted" in error
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
        "architecture.md: wire schema markers not found"]


def test_live_tree_wire_schema_is_current():
    assert check_docs.check_wire_schema() == []
