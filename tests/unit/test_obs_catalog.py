"""The documented metric catalog, span taxonomy and knobs match the code.

``docs/observability.md`` (and the runbook's series table in
``docs/operations.md``) are the operator's reference.  A series or stage
that the docs name but no code emits is a stale row, and a stage the code
emits (or a series a live scrape shows) without a row is an undocumented
one; both fail here, so deleting a code path cannot leave its catalog
entries behind, and adding one cannot skip its row.  Likewise every knob
the runbook's configuration table names must be a ``SeeSawConfig`` field.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.config import SeeSawConfig
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.obs.trace import STAGE_HELP
from repro.server import (
    FeedbackRequest,
    InProcessClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
)

ROOT = Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs"
SOURCE = "\n".join(
    path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))
)
FIRST_CELL = re.compile(r"^\| (`[^|]*)\|")
CELL_NAME = re.compile(r"`([a-z_]+)`")
EMITTED_STAGE = re.compile(r"\b(?:trace_span|observe_stage)\(\s*\"([a-z_]+)\"")
SCRAPED_FAMILY = re.compile(r"^# TYPE (seesaw_[a-z_]+) ", re.MULTILINE)


def _section_rows(path: Path, heading: str) -> "set[str]":
    """Every backticked name in the first cell of the table rows under ``heading``."""
    text = path.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return {
        name
        for line in section.splitlines()
        if (match := FIRST_CELL.match(line))
        for name in CELL_NAME.findall(match.group(1))
    }


DOCUMENTED_SERIES = _section_rows(
    DOCS / "observability.md", "Metric catalog"
) | _section_rows(DOCS / "operations.md", "Resilience metric catalog")
DOCUMENTED_STAGES = _section_rows(DOCS / "observability.md", "Span taxonomy")
DOCUMENTED_KNOBS = _section_rows(DOCS / "operations.md", "Configuration at a glance")


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


def test_every_documented_knob_is_a_config_field():
    assert {"max_in_flight", "drain_timeout_s", "rate_limit_burst"} <= DOCUMENTED_KNOBS
    stale = DOCUMENTED_KNOBS - {item.name for item in fields(SeeSawConfig)}
    assert not stale, f"knobs documented but not on SeeSawConfig: {sorted(stale)}"


def test_every_scraped_family_has_a_row(tiny_dataset, tiny_clip):
    """A short session, an upsert and a merge on a live dataset, then a scrape."""
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7, live_datasets=True))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    client = InProcessClient(SeeSawApp(SessionManager(service)))
    try:
        info = client.start_session(
            StartSessionRequest(
                dataset=tiny_dataset.name, text_query="a cat_easy", batch_size=2
            )
        )
        for _ in range(2):
            for item in client.next_results(info.session_id).items:
                client.give_feedback(
                    FeedbackRequest(
                        session_id=info.session_id,
                        image_id=item.image_id,
                        relevant=False,
                    )
                )
        client.upsert_images(
            tiny_dataset.name,
            [
                SyntheticImage(
                    image_id=10**6,
                    width=640,
                    height=480,
                    context="indoor",
                    objects=(
                        ObjectInstance("cat_easy", BoundingBox(40.0, 30.0, 200.0, 180.0)),
                    ),
                )
            ],
        )
        client.merge_dataset(tiny_dataset.name)
        scraped = set(SCRAPED_FAMILY.findall(client.metrics_text()))
    finally:
        service.live.close()
    assert {"seesaw_requests_total", "seesaw_merges_total", "seesaw_delta_rows"} <= scraped
    undocumented = scraped - DOCUMENTED_SERIES
    assert not undocumented, f"scraped series without a catalog row: {sorted(undocumented)}"
