"""Documentation consistency: every file the docs reference must exist."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs_links import missing_references, referenced_paths  # noqa: E402


def test_readme_exists_with_quickstart():
    readme = REPO_ROOT / "README.md"
    assert readme.exists()
    text = readme.read_text()
    assert 'qspr-map run --benchmark "[[5,1,3]]"' in text
    assert "qspr-map sweep" in text


def test_architecture_doc_covers_every_pipeline_stage():
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    for stage in (
        "qasm", "circuits", "qidg", "fabric", "placement",
        "routing", "scheduling", "sim", "mapper", "analysis", "runner",
    ):
        assert f"repro/{stage}" in text, f"stage {stage!r} missing from ARCHITECTURE.md"


def test_all_documentation_references_exist():
    documents = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("**/*.md"))]
    assert missing_references(documents) == []


def test_reference_extraction_finds_links_and_backtick_paths():
    markdown = (
        "See [the guide](docs/ARCHITECTURE.md) and `src/repro/cli.py`, "
        "but not [external](https://example.com) nor `pip install`."
    )
    targets = referenced_paths(markdown)
    assert targets == {"docs/ARCHITECTURE.md", "src/repro/cli.py"}
