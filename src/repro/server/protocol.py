"""The transport-agnostic SeeSaw client API.

:class:`SeeSawClientProtocol` is the one client surface every caller — the
browser UI's backend, the benchmark harness, the contract and load suites —
programs against.  Both implementations live in :mod:`repro.server.client`
and share one body of `/v1` calls; they differ only in how a request
reaches :meth:`SeeSawApp.handle_request
<repro.server.app.SeeSawApp.handle_request>`:

* :class:`~repro.server.client.InProcessClient` calls it on an app in this
  process — no socket, the embedding deployment mode;
* :class:`~repro.server.client.HTTPClient` speaks the `/v1` wire protocol
  over a real socket.

The contract suite (``tests/contract/test_client_protocol.py``) runs the
same scenario scripts through both and asserts identical results and
identical typed errors, which is the guarantee that makes "develop against
in-process, deploy against HTTP" safe.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Sequence

from repro.server.api import (
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    SessionListEntry,
    SessionPage,
    StartSessionRequest,
)


class SeeSawClientProtocol(abc.ABC):
    """Everything a SeeSaw client can do, independent of transport."""

    # -- discovery -----------------------------------------------------
    @abc.abstractmethod
    def capabilities(self) -> "dict[str, Any]":
        """The server's negotiated features, limits, and compute topology."""

    @abc.abstractmethod
    def healthz(self) -> "dict[str, Any]":
        """Liveness plus live registry/telemetry counters."""

    @abc.abstractmethod
    def metrics_json(self) -> "dict[str, Any]":
        """The metrics registry in the JSON exposition shape.

        Every family with its series: counter/gauge values, histogram
        buckets with p50/p99/p999 estimates — ``GET /v1/metrics?format=json``.
        """

    @abc.abstractmethod
    def metrics_text(self) -> str:
        """The metrics registry in the Prometheus text exposition format."""

    # -- session lifecycle ---------------------------------------------
    @abc.abstractmethod
    def start_session(self, request: StartSessionRequest) -> SessionInfo:
        """Start a session; returns its summary (with the new session id)."""

    @abc.abstractmethod
    def session_info(self, session_id: str) -> SessionInfo:
        """Progress summary for one session."""

    @abc.abstractmethod
    def list_sessions(
        self, cursor: "str | None" = None, limit: "int | None" = None
    ) -> SessionPage:
        """One cursor-delimited page of live sessions, with telemetry."""

    @abc.abstractmethod
    def close_session(self, session_id: str) -> None:
        """Close a session."""

    # -- the search loop -----------------------------------------------
    @abc.abstractmethod
    def next_results(
        self, session_id: str, count: "int | None" = None
    ) -> NextResultsResponse:
        """Fetch the next result batch for a session."""

    @abc.abstractmethod
    def stream_next_results(
        self, session_id: str, count: "int | None" = None
    ) -> "Iterator[ResultItem]":
        """Fetch the next batch, yielding items as they arrive.

        Same results as :meth:`next_results`, incrementally: over HTTP the
        items decode straight off the chunked NDJSON stream, so a UI can
        render the first image of a large batch before the last one is on
        the wire.
        """

    @abc.abstractmethod
    def give_feedback(
        self, request: FeedbackRequest, idempotency_key: "str | None" = None
    ) -> SessionInfo:
        """Submit feedback for one image of the session's current batch.

        Passing an ``idempotency_key`` makes retries safe: a replay of the
        same key and payload returns the original result without applying
        the feedback twice.
        """

    # -- live datasets (protocol revision 4) ---------------------------
    # Concrete defaults, not abstract methods: pre-revision-4 protocol
    # implementations (including test fakes) must keep constructing without
    # changes, and an implementation that never touches datasets should not
    # be forced to stub five methods.
    def list_datasets(self) -> "list[dict[str, Any]]":
        """All registered datasets' manifests (name, version, generation...)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the dataset surface"
        )

    def describe_dataset(self, name: str) -> "dict[str, Any]":
        """The registry manifest of one dataset."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the dataset surface"
        )

    def upsert_images(
        self, name: str, images: "Sequence[Any]"
    ) -> "dict[str, Any]":
        """Add or replace images in a live dataset; returns the new manifest."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the dataset surface"
        )

    def delete_images(
        self, name: str, image_ids: "Sequence[int]"
    ) -> "dict[str, Any]":
        """Delete images from a live dataset; returns the new manifest."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the dataset surface"
        )

    def merge_dataset(self, name: str) -> "dict[str, Any]":
        """Force a synchronous delta-segment compaction; returns the manifest."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the dataset surface"
        )

    # -- conveniences shared by every transport ------------------------
    def iter_sessions(
        self, page_size: "int | None" = None
    ) -> "Iterator[SessionListEntry]":
        """Walk the full session listing, following cursors page by page."""
        cursor: "str | None" = None
        while True:
            page = self.list_sessions(cursor=cursor, limit=page_size)
            yield from page.sessions
            if page.next_cursor is None:
                return
            cursor = page.next_cursor

    def close(self) -> None:
        """Release any transport resources (no-op by default)."""

    def __enter__(self) -> "SeeSawClientProtocol":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
