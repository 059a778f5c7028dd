"""The documented metric catalog and span taxonomy match the code.

``docs/observability.md`` (and the runbook's series table in
``docs/operations.md``) are the operator's reference.  A series or stage
that the docs name but no code emits is a stale row, and a stage the code
emits without a row is an undocumented one; both fail here, so deleting a
code path cannot leave its catalog entries behind.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.obs.trace import STAGE_HELP

ROOT = Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs"
SOURCE = "\n".join(
    path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))
)
ROW_NAME = re.compile(r"^\| `([a-z_]+)`")
EMITTED_STAGE = re.compile(r"\b(?:trace_span|observe_stage)\(\s*\"([a-z_]+)\"")


def _section_rows(path: Path, heading: str) -> "set[str]":
    """The backticked first-cell names of the table rows under ``heading``."""
    text = path.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(1)
        for line in section.splitlines()
        if (match := ROW_NAME.match(line))
    }


DOCUMENTED_SERIES = _section_rows(
    DOCS / "observability.md", "Metric catalog"
) | _section_rows(DOCS / "operations.md", "Resilience metric catalog")
DOCUMENTED_STAGES = _section_rows(DOCS / "observability.md", "Span taxonomy")


def test_tables_were_found():
    assert "seesaw_stage_seconds" in DOCUMENTED_SERIES
    assert {"score", "lock_wait"} <= DOCUMENTED_STAGES


@pytest.mark.parametrize("name", sorted(DOCUMENTED_SERIES | DOCUMENTED_STAGES))
def test_documented_name_is_a_source_literal(name):
    assert re.search(f"[\"']{name}[\"']", SOURCE), (
        f"docs name '{name}', which no code under src/ emits"
    )


def test_every_emitted_stage_has_a_row():
    emitted = set(EMITTED_STAGE.findall(SOURCE))
    assert {"score", "pool", "select", "merge"} <= emitted
    undocumented = emitted - DOCUMENTED_STAGES
    assert not undocumented, f"stages without a span-taxonomy row: {sorted(undocumented)}"


def test_every_stage_help_stage_has_a_row():
    listed = set(re.search(r"\(([^)]*)\)", STAGE_HELP).group(1).split("/"))
    assert listed <= DOCUMENTED_STAGES, sorted(listed - DOCUMENTED_STAGES)
