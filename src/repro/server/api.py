"""The `/v1` wire schema: one frozen dataclass per message.

These declarations are the only statement of the messages between the UI
and the server layer (the "query aligner", Figure 3 of the paper);
:mod:`repro.server.codec` compiles them into its JSON encode and decode.

* A field's annotation is its wire type: ``str``, ``int``, ``float``,
  ``bool``, ``X | None``, a nested dataclass (a JSON object), a
  ``tuple``/``Sequence`` of one of these (a JSON array), or ``dict`` (an
  object passed through as is).
* A field with a default may be absent from a payload.
* ``field(metadata=...)`` carries the rest: ``"max"`` bounds an integer,
  ``"nonempty"`` rejects an empty array, and ``"revision"`` names the
  protocol revision that added the field.  A field added after revision 1
  whose default is ``None`` is left out of the payload while unset, so
  servers older than the field keep accepting the message.

:data:`ROUTES` states the routes that carry them, once: the router, the
metric labels, both clients and the fault transport read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Sequence
from urllib.parse import unquote

from repro.data.image import ObjectInstance, SyntheticImage

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

MAX_RESULT_COUNT = 1024
"""Upper bound on one ``next``'s count, explicit (``?count=``) or a session's
``batch_size``: a count in the millions would pin a worker on one top-k over
the whole corpus."""


@dataclass(frozen=True)
class StartSessionRequest:
    """Start a new search session on a registered dataset."""

    dataset: str
    text_query: str
    batch_size: int = field(default=3, metadata={"max": MAX_RESULT_COUNT})
    multiscale: bool = True
    dataset_version: "int | None" = field(default=None, metadata={"revision": 4})
    """Pin the session to one retained dataset version for reproducibility.
    ``None`` (the default) follows the newest version.  Pinning requires the
    multiscale index (the live tier maintains only that path) and fails with
    a typed 404 once the version ages out of the retention window."""


@dataclass(frozen=True)
class BoxPayload:
    """One box, in image pixel coordinates: user-drawn, or a result's patch."""

    x: float
    y: float
    width: float
    height: float


@dataclass(frozen=True)
class ResultItem:
    """One image returned to the UI, with the patch that matched."""

    image_id: int
    score: float
    box: BoxPayload


@dataclass(frozen=True)
class NextResultsResponse:
    """A batch of results for the UI to render."""

    session_id: str
    items: Sequence[ResultItem]
    total_shown: int
    positives_found: int


@dataclass(frozen=True)
class StreamRecord:
    """One NDJSON line of a streamed ``next``: a ``meta`` line, one ``item``
    line per result, then ``end``."""

    kind: str
    item: "ResultItem | None" = None


@dataclass(frozen=True)
class FeedbackRequest:
    """Feedback for one image of the current batch."""

    session_id: str
    image_id: int
    relevant: bool
    boxes: Sequence[BoxPayload] = ()


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
class SessionTelemetry:
    """A session's cumulative latency accounting."""

    idle_seconds: float
    lookup_seconds: float
    update_seconds: float
    seconds_per_round: float = field(default=0.0, metadata={"revision": 2})
    """Mean round latency this session has observed (lookup + update credit
    per completed round); 0.0 before the first round completes."""


@dataclass(frozen=True)
class SessionListEntry(SessionInfo):
    """One row of ``GET /v1/sessions``: progress summary plus telemetry."""

    telemetry: SessionTelemetry


@dataclass(frozen=True)
class SessionPage:
    """One cursor-delimited page of the session listing.

    ``next_cursor`` is an opaque token; ``None`` means this page reaches the
    end of the listing *as of this request* (sessions started later appear
    on a fresh listing, never retroactively inside an already-read page).
    """

    sessions: Sequence[SessionListEntry]
    next_cursor: "str | None" = None


@dataclass(frozen=True)
class DatasetList:
    """``GET /v1/datasets``: every registry manifest (``docs/datasets.md``)."""

    datasets: "tuple[dict, ...]"


@dataclass(frozen=True)
class UpsertRequest:
    """Add or replace images in a live dataset (protocol revision 4)."""

    images: "tuple[SyntheticImage, ...]" = field(metadata={"nonempty": True})


@dataclass(frozen=True)
class DeleteRequest:
    """Delete images from a live dataset (protocol revision 4)."""

    image_ids: "tuple[int, ...]" = field(metadata={"nonempty": True})


CONTEXT_NAMES: "dict[type, str]" = {BoxPayload: "Box", SyntheticImage: "Image"}
"""Names in "<name> must be a JSON object" errors; the rest go by class."""

DATASET_RECORDS: "dict[type, str]" = {
    SyntheticImage: "image",
    ObjectInstance: "object instance",
}
"""Dataset records whose own validation (a :class:`DatasetError`) surfaces
as ``Invalid <name>: ...`` when a request carries a bad one."""


@dataclass(frozen=True)
class Route:
    """One `/v1` route."""

    method: str
    template: str
    """The path, ``{name}`` for each parameter; also the ``route`` label."""
    operation: str
    """The ``SessionManager`` method that serves the route, by name: the
    router looks it up on every call, so a wrapper set on the class after
    import (a tracer) is the one that runs."""
    label: str
    """The client's ``operation`` label (retry counters, error messages)."""
    request: "type | None" = None
    response: type = dict
    """What the reply decodes as: a declaration, ``dict`` for an open JSON
    object, or ``str`` for text."""
    idempotent: bool = True
    """Whether a client may replay the call after an ambiguous failure.  A
    call that sends an ``Idempotency-Key`` may be replayed either way."""
    probe: bool = False
    """Admission control (and the tests' chaos injectors) let a probe through."""
    status: int = 200


ROUTES: "tuple[Route, ...]" = (
    Route("GET", "/v1/healthz", "health", "healthz", probe=True),
    Route("GET", "/v1/capabilities", "capabilities", "capabilities", probe=True),
    Route("GET", "/v1/metrics", "metrics_text", "metrics", response=str, probe=True),
    Route("GET", "/v1/sessions", "list_sessions", "list_sessions", response=SessionPage),
    # A replay after the connection died mid-request could start a second,
    # orphaned session; a clean 429/503 refusal still retries.
    Route(
        "POST", "/v1/sessions", "start_session", "start_session",
        StartSessionRequest, SessionInfo, idempotent=False, status=201,
    ),
    Route("GET", "/v1/sessions/{id}", "session_info", "session_info", response=SessionInfo),
    Route("DELETE", "/v1/sessions/{id}", "close_session", "close_session"),
    # GET in shape only: each call advances the session's result cursor.
    Route(
        "GET", "/v1/sessions/{id}/next", "next_results", "next",
        response=NextResultsResponse, idempotent=False,
    ),
    Route(
        "POST", "/v1/sessions/{id}/feedback", "give_feedback", "feedback",
        FeedbackRequest, SessionInfo, idempotent=False,
    ),
    Route("GET", "/v1/datasets", "list_datasets", "list_datasets", response=DatasetList),
    Route("GET", "/v1/datasets/{name}", "describe_dataset", "describe_dataset"),
    # A replay after an ambiguous outcome would publish another version.
    Route(
        "POST", "/v1/datasets/{name}/upsert", "upsert_images", "upsert_images",
        UpsertRequest, idempotent=False,
    ),
    Route(
        "POST", "/v1/datasets/{name}/delete", "delete_images", "delete_images",
        DeleteRequest, idempotent=False,
    ),
    Route("POST", "/v1/datasets/{name}/merge", "force_merge", "merge_dataset", idempotent=False),
)
"""Every `/v1` route."""


def _index() -> "dict[int, list[tuple[itemgetter, dict[Any, tuple]]]]":
    """The templates by segment count, grouped by where their literal
    segments sit.  A group is a getter of those segments and, by their
    values, each template with the positions of its parameters and its rows
    by method; a path is matched with one dict lookup per group."""
    groups: "dict[tuple[int, tuple[int, ...]], dict[Any, tuple]]" = {}
    for route in ROUTES:
        parts = route.template[1:].split("/")
        literals = tuple(i for i, part in enumerate(parts) if part[0] != "{")
        params = [i for i in range(len(parts)) if i not in literals]
        table = groups.setdefault((len(parts), literals), {})
        key = itemgetter(*literals)(parts)
        table.setdefault(key, (route.template, params, {}))[2][route.method] = route
    index: "dict[int, list[tuple[itemgetter, dict[Any, tuple]]]]" = {}
    for (count, literals), table in groups.items():
        index.setdefault(count, []).append((itemgetter(*literals), table))
    return index


_INDEX = _index()


def resolve(method: str, path: str) -> "tuple[str, Route | None, tuple[str, ...]]":
    """The route label of ``path``, the row serving ``method`` on it, and its
    path parameters, each percent-decoded.

    The label follows the path alone, so a wrong method on a known path
    keeps the path's template (and no row).  Empty segments do not count;
    an unknown path under `/v1` is ``/v1/other``, anything else ``/other``.
    """
    segments = [segment for segment in path.split("/") if segment]
    if not segments or segments[0] != PROTOCOL_VERSION:
        return "/other", None, ()
    for literals, table in _INDEX.get(len(segments), ()):
        match = table.get(literals(segments))
        if match is not None:
            template, params, rows = match
            return template, rows.get(method.upper()), tuple([unquote(segments[i]) for i in params])
    return ("/v1" if len(segments) == 1 else "/v1/other"), None, ()


PROBE_ROUTES = frozenset(route.template for route in ROUTES if route.probe)
"""The labels admission control (and the tests' chaos middleware) let through
(any method)."""
