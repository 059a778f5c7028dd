"""Client-side fault injection: :class:`FaultyClient`.

Wraps any :class:`~repro.server.protocol.SeeSawClientProtocol` and makes it
misbehave the way a real network does, per the plan's probabilities.  All
five fault families live here (the server-side
:class:`~repro.faults.middleware.ChaosMiddleware` can only honestly fake
latency and 500s):

* **latency** — sleeps before the call, simulating a slow path;
* **error** — raises :class:`~repro.exceptions.InternalServiceError`
  without touching the wrapped client, as if the server's envelope decoded
  to a 500;
* **reset** — raises :class:`~repro.exceptions.ConnectionFailedError`; the
  opportunity index's parity decides ``request_sent``, so the run exercises
  both retry branches (pre-send resets are always retryable, mid-flight
  resets only for idempotent calls);
* **truncate** — for streaming calls, yields a strict prefix of the real
  batch then raises the same "truncated response"
  :class:`~repro.exceptions.TransportError` the HTTP client raises when an
  NDJSON stream stops without its terminal ``end`` record (non-streaming
  calls treat a truncate draw as a reset that happened mid-read);
* **skew** — runs the call under an already-expired
  :func:`~repro.server.deadlines.deadline_scope`, modelling a clock-skewed
  client shipping a dead budget: the layer below (HTTP header or in-process
  contextvar) must surface the typed
  :class:`~repro.exceptions.DeadlineExceededError`, never do the work.

Faults are injected *around* the wrapped client, so a retry policy wired
into that client sees and absorbs them exactly like real failures.  Probe
surfaces (``capabilities``/``healthz``/``metrics``) pass through untouched
— the harness reads those to judge the run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.exceptions import (
    ConnectionFailedError,
    InternalServiceError,
    TransportError,
)
from repro.faults.inject import (
    KIND_ERROR,
    KIND_RESET,
    KIND_SKEW,
    KIND_TRUNCATE,
    FaultDecider,
    FaultOutcome,
)
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry, get_registry
from repro.server.api import (
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    SessionPage,
    StartSessionRequest,
)
from repro.server.deadlines import Deadline, deadline_scope
from repro.server.protocol import SeeSawClientProtocol

_T = TypeVar("_T")


class FaultyClient(SeeSawClientProtocol):
    """A protocol client whose transport suffers the plan's faults."""

    def __init__(
        self,
        inner: SeeSawClientProtocol,
        plan: FaultPlan,
        clock: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.decider = FaultDecider(plan, clock=clock)
        self._sleep = sleep
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def arm(self) -> None:
        """Restart the plan's fault window from now (see :meth:`FaultDecider.arm`)."""
        self.decider.arm()

    def in_window(self) -> bool:
        return self.decider.in_window()

    # ------------------------------------------------------------------
    # injection plumbing
    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        self.registry.counter(
            "seesaw_faults_injected_total",
            "Faults injected by the chaos layer, by kind.",
            labels=("kind",),
        ).labels(kind).inc()

    def _raise_for(self, outcome: FaultOutcome) -> None:
        """Raise the typed failure for a non-truncate fault kind."""
        if outcome.kind == KIND_ERROR:
            self._count("error")
            raise InternalServiceError(
                f"chaos: injected client-observed 500 (opportunity {outcome.index})"
            )
        if outcome.kind == KIND_RESET:
            self._count("reset")
            raise ConnectionFailedError(
                f"chaos: injected connection reset (opportunity {outcome.index})",
                request_sent=outcome.index % 2 == 1,
            )

    def _call(self, fn: "Callable[[], _T]") -> _T:
        outcome = self.decider.decide()
        if outcome.latency_seconds > 0.0:
            self._count("latency")
            self._sleep(outcome.latency_seconds)
        if outcome.kind == KIND_SKEW:
            # A zero budget is the skewed-clock wire shape: the header (or
            # contextvar) arrives already expired and the layer below must
            # answer with the typed 504.
            self._count("skew")
            with deadline_scope(Deadline(0.0)):
                return fn()
        if outcome.kind == KIND_TRUNCATE:
            # No stream to cut short on a unary call: the closest honest
            # failure is a connection that died mid-read of the response.
            self._count("truncate")
            raise ConnectionFailedError(
                f"chaos: connection lost mid-response (opportunity {outcome.index})",
                request_sent=True,
            )
        self._raise_for(outcome)
        return fn()

    # ------------------------------------------------------------------
    # probe surfaces: never perturbed
    # ------------------------------------------------------------------
    def capabilities(self) -> "dict[str, Any]":
        return self.inner.capabilities()

    def healthz(self) -> "dict[str, Any]":
        return self.inner.healthz()

    def metrics_json(self) -> "dict[str, Any]":
        return self.inner.metrics_json()

    def metrics_text(self) -> str:
        return self.inner.metrics_text()

    # ------------------------------------------------------------------
    # the faulted surface
    # ------------------------------------------------------------------
    def start_session(self, request: StartSessionRequest) -> SessionInfo:
        return self._call(lambda: self.inner.start_session(request))

    def session_info(self, session_id: str) -> SessionInfo:
        return self._call(lambda: self.inner.session_info(session_id))

    def list_sessions(
        self, cursor: "str | None" = None, limit: "int | None" = None
    ) -> SessionPage:
        return self._call(
            lambda: self.inner.list_sessions(cursor=cursor, limit=limit)
        )

    def close_session(self, session_id: str) -> None:
        self._call(lambda: self.inner.close_session(session_id))

    def next_results(
        self, session_id: str, count: "int | None" = None
    ) -> NextResultsResponse:
        return self._call(lambda: self.inner.next_results(session_id, count))

    def stream_next_results(
        self, session_id: str, count: "int | None" = None
    ) -> "Iterator[ResultItem]":
        outcome = self.decider.decide()
        if outcome.latency_seconds > 0.0:
            self._count("latency")
            self._sleep(outcome.latency_seconds)
        self._raise_for(outcome)
        if outcome.kind == KIND_SKEW:
            self._count("skew")
            with deadline_scope(Deadline(0.0)):
                # Materialize inside the scope so the typed 504 raises here,
                # not lazily after the scope closed.
                yield from list(self.inner.stream_next_results(session_id, count))
            return
        if outcome.kind == KIND_TRUNCATE:
            self._count("truncate")
            items = list(self.inner.stream_next_results(session_id, count))
            yield from items[: max(0, len(items) - 1)]
            raise TransportError(
                "NDJSON stream ended without the terminal 'end' record "
                "(truncated response)"
            )
        yield from self.inner.stream_next_results(session_id, count)

    def give_feedback(
        self, request: FeedbackRequest, idempotency_key: "str | None" = None
    ) -> SessionInfo:
        return self._call(
            lambda: self.inner.give_feedback(request, idempotency_key=idempotency_key)
        )

    # -- live datasets (faulted like any other mutating surface) --------
    def list_datasets(self) -> "list[dict[str, Any]]":
        return self._call(self.inner.list_datasets)

    def describe_dataset(self, name: str) -> "dict[str, Any]":
        return self._call(lambda: self.inner.describe_dataset(name))

    def upsert_images(
        self, name: str, images: "Sequence[Any]"
    ) -> "dict[str, Any]":
        return self._call(lambda: self.inner.upsert_images(name, images))

    def delete_images(
        self, name: str, image_ids: "Sequence[int]"
    ) -> "dict[str, Any]":
        return self._call(lambda: self.inner.delete_images(name, image_ids))

    def merge_dataset(self, name: str) -> "dict[str, Any]":
        return self._call(lambda: self.inner.merge_dataset(name))

    def close(self) -> None:
        self.inner.close()
