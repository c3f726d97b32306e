"""``tools/check_docs.py``: a cited root document that does not exist fails."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # tools lives off the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools import check_docs

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
