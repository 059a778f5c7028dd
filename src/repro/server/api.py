"""Request/response dataclasses of the SeeSaw service.

The paper's deployment has a browser UI talking to a server layer (the "query
aligner", Figure 3).  This reproduction keeps that layer in-process, but the
message shapes are preserved so a thin HTTP wrapper could be added without
touching the core library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.data.geometry import BoundingBox

PROTOCOL_VERSION = "v1"
"""URL prefix of the versioned wire protocol (``GET /v1/...``).  Bumped only
on breaking changes; within a version, additions are announced through the
``revision`` counter and ``GET /v1/capabilities``."""

PROTOCOL_REVISION = 5
"""Monotonic feature counter within the protocol version.  Clients that need
a newly added capability compare against this instead of sniffing routes.

Revision history: 1 — initial /v1 surface (streaming, idempotency, paging,
a multi-session next route); 2 — metrics exposition (``GET /v1/metrics``),
``tracing`` and ``metrics_exposition`` capability flags,
``seconds_per_round`` in the session-listing telemetry; 3 — resilience surface: ``X-Deadline-Ms``
propagation with the typed 504 (``deadline_exceeded``), ``Retry-After`` on
429/503 (mirrored as ``retry_after_seconds`` in envelope details),
admission-control shedding, the drain state in ``/healthz``
(``state``/``uptime_seconds``/``in_flight``), and the
``deadline_propagation``/``admission_control``/``graceful_drain``/
``retry_hints`` capability flags; 4 — live datasets: the ``/v1/datasets``
routes (list, describe, upsert, delete, force-merge), the
``dataset_version`` pin on session start, ``dataset_versions`` plus the
``live_datasets`` flag in capabilities, and ``dataset_generations`` in
``/healthz``; 5 — a removal: the multi-session next route (now the
structured 404) with its capability and ``/healthz`` keys, so every
``next`` is one session's round (``docs/api.md``, "Removed in this
release")."""


@dataclass(frozen=True)
class StartSessionRequest:
    """Start a new search session on a registered dataset."""

    dataset: str
    text_query: str
    batch_size: int = 3
    multiscale: bool = True
    dataset_version: "int | None" = None
    """Pin the session to one retained dataset version for reproducibility.
    ``None`` (the default) follows the newest version.  Pinning requires the
    multiscale index (the live tier maintains only that path) and fails with
    a typed 404 once the version ages out of the retention window."""


@dataclass(frozen=True)
class DatasetInfo:
    """One row of ``GET /v1/datasets``: the registry manifest view."""

    name: str
    version: int
    generation: int
    image_count: int
    delta_rows: int
    tombstones: int
    merges_completed: int
    retained_versions: "tuple[int, ...]" = ()


@dataclass(frozen=True)
class ResultItem:
    """One image returned to the UI, with the patch that matched."""

    image_id: int
    score: float
    box_x: float
    box_y: float
    box_width: float
    box_height: float

    @staticmethod
    def from_box(image_id: int, score: float, box: BoundingBox) -> "ResultItem":
        """Build an item from an internal bounding box."""
        return ResultItem(
            image_id=image_id,
            score=score,
            box_x=box.x,
            box_y=box.y,
            box_width=box.width,
            box_height=box.height,
        )


@dataclass(frozen=True)
class NextResultsResponse:
    """A batch of results for the UI to render."""

    session_id: str
    items: Sequence[ResultItem]
    total_shown: int
    positives_found: int


@dataclass(frozen=True)
class BoxPayload:
    """One user-drawn box, in image pixel coordinates."""

    x: float
    y: float
    width: float
    height: float

    def to_bounding_box(self) -> BoundingBox:
        """Convert to the internal geometry type."""
        return BoundingBox(self.x, self.y, self.width, self.height)


@dataclass(frozen=True)
class FeedbackRequest:
    """Feedback for one image of the current batch."""

    session_id: str
    image_id: int
    relevant: bool
    boxes: Sequence[BoxPayload] = field(default_factory=tuple)


@dataclass(frozen=True)
class SessionInfo:
    """Summary of a session's progress."""

    session_id: str
    dataset: str
    text_query: str
    total_shown: int
    positives_found: int
    rounds: int


@dataclass(frozen=True)
class SessionListEntry:
    """One row of ``GET /v1/sessions``: progress summary plus telemetry."""

    info: SessionInfo
    idle_seconds: float
    lookup_seconds: float
    update_seconds: float
    seconds_per_round: float = 0.0
    """Mean round latency this session has observed (lookup + update credit
    per completed round) — the per-session cumulative stat the obs PR
    surfaces; 0.0 before the first round completes."""


@dataclass(frozen=True)
class SessionPage:
    """One cursor-delimited page of the session listing.

    ``next_cursor`` is an opaque token; ``None`` means this page reaches the
    end of the listing *as of this request* (sessions started later appear
    on a fresh listing, never retroactively inside an already-read page).
    """

    sessions: Sequence[SessionListEntry]
    next_cursor: "str | None"
