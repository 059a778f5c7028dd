"""App-layer middleware pipeline for the SeeSaw service.

The `/v1` redesign moved cross-cutting transport concerns out of the route
handlers and into a small composable pipeline that wraps the router:

* :class:`RequestIdMiddleware` — every request gets a request id (the
  client's ``X-Request-Id`` when supplied, else a generated one), echoed on
  the response, bound to the tracing context
  (:func:`repro.obs.set_request_id`) and threaded into error envelopes and
  access logs;
* :class:`AccessLogMiddleware` — one structured log record per request
  (method, path, status, duration, request id, client key, route template,
  pipeline stage) on the ``repro.server.access`` logger; also the
  per-request observability anchor — it opens the span collector, records
  the request counter/latency histograms into the metrics registry, and
  emits the structured slow-request log (``repro.server.slow``) with the
  per-stage span breakdown when a request exceeds the configured threshold;
* :class:`RateLimitMiddleware` — a per-client token bucket; a drained
  bucket raises :class:`~repro.exceptions.RateLimitedError`, which the app
  encodes as the structured 429 envelope (with a ``Retry-After`` refill
  hint);
* :class:`DeadlineMiddleware` — parses the ``X-Deadline-Ms`` budget header
  (or applies the configured default) and binds the resulting
  :class:`~repro.server.deadlines.Deadline` to the request context, so
  every layer below can bound its waits and fail dead requests with the
  typed 504 instead of finishing work nobody is waiting for;
* :class:`AdmissionControlMiddleware` — a bounded in-flight gauge
  (:class:`InFlightTracker`); past ``max_in_flight`` new work is shed with
  a 503 + ``Retry-After`` *before* it queues.

Middlewares see the transport-agnostic :class:`Request`/:class:`Response`
pair, so the pipeline runs identically under the HTTP transport and under
the in-process client: both enter through ``SeeSawApp.handle_request``
(the unit tests drive it without a socket).

Rejections raised *inside* the pipeline (429 from the limiter, 400 from a
decoder) never reach the access-log middleware's normal path — the app's
backstop handler catches them and emits the **same record shape** through
:func:`emit_access_record` / :func:`record_request_metrics`, so every
request produces one complete access record and one counter increment no
matter where in the pipeline it died.  The ``stage`` field says which path
produced the record (``"handler"`` vs ``"middleware"``).
"""

from __future__ import annotations

import json
import logging
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence
from urllib.parse import urlsplit

from repro.exceptions import RateLimitedError, ServiceOverloadedError
from repro.server.api import PROBE_ROUTES, Route, resolve
from repro.server.deadlines import (
    DEADLINE_HEADER,
    Deadline,
    deadline_scope,
    parse_deadline_header,
)
from repro.obs import (
    MetricsRegistry,
    begin_request_trace,
    end_request_trace,
    get_registry,
    reset_request_id,
    set_request_id,
)

ACCESS_LOGGER_NAME = "repro.server.access"
SLOW_LOGGER_NAME = "repro.server.slow"

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""Content type of the Prometheus text exposition format."""


def collapse_leading_slashes(target: str) -> str:
    """``//v1/x`` as ``/v1/x``, as the stdlib's HTTP server reads it: a
    target that starts with ``//`` would split as a scheme-less URL whose
    first segment is a host."""
    return "/" + target.lstrip("/") if target.startswith("//") else target


@dataclass
class Request:
    """One decoded transport request, independent of the socket layer.

    What every layer asks of a request more than once is resolved here,
    once: header names are folded to lower case (``headers`` holds the
    folded mapping), and the target (a leading ``//`` collapsed, as over
    HTTP) is split into ``path`` and ``query``, then resolved against :data:`~repro.server.api.ROUTES`: the
    bounded-cardinality ``route`` label, the ``row`` that serves the
    method there (``None`` for no route) and its path ``params``.
    """

    method: str
    target: str
    body: "bytes | None" = None
    headers: "Mapping[str, str]" = field(default_factory=dict)
    client: "str | None" = None
    request_id: "str | None" = None
    path: str = field(init=False)
    query: str = field(init=False)
    route: str = field(init=False)
    row: "Route | None" = field(init=False)
    params: "tuple[str, ...]" = field(init=False)

    def __post_init__(self) -> None:
        folded: "dict[str, str]" = {}
        for name, value in self.headers.items():
            folded.setdefault(name.lower(), value)
        self.headers = folded
        self.target = collapse_leading_slashes(self.target)
        parts = urlsplit(self.target)
        self.path, self.query = parts.path, parts.query
        self.route, self.row, self.params = resolve(self.method, self.path)

    def header(self, name: str, default: "str | None" = None) -> "str | None":
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def client_key(self) -> str:
        """The identity rate limiting and access logs attribute requests to."""
        return self.headers.get("x-client-id") or self.client or "anonymous"


@dataclass
class Response:
    """One transport response: a JSON payload, an NDJSON stream, or text.

    Exactly one of ``payload`` (single-shot JSON body), ``stream``
    (iterator of JSON-serializable records, one NDJSON line each) and
    ``text`` (a plain-text body — the Prometheus exposition format) is set.
    """

    status: int
    payload: "dict[str, Any] | None" = None
    headers: "dict[str, str]" = field(default_factory=dict)
    stream: "Iterator[dict[str, Any]] | None" = None
    text: "str | None" = None

    def body(self) -> bytes:
        """The single-shot body as it goes on the wire (not for a stream)."""
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(self.payload).encode("utf-8")

    @property
    def content_type(self) -> str:
        if self.stream is not None:
            return "application/x-ndjson"
        if self.text is not None:
            return PROMETHEUS_CONTENT_TYPE
        return "application/json"


Handler = Callable[[Request], Response]
Middleware = Callable[[Request, Handler], Response]


class MiddlewarePipeline:
    """Composes middlewares around an endpoint, outermost first."""

    def __init__(self, middlewares: "Sequence[Middleware]") -> None:
        self.middlewares = tuple(middlewares)

    def bind(self, endpoint: Handler) -> Handler:
        """The whole chain around ``endpoint`` as one handler.

        A server binds its endpoint once and calls the result per request.
        """
        handler = endpoint
        for middleware in reversed(self.middlewares):
            handler = _bind(middleware, handler)
        return handler

    def run(self, request: Request, endpoint: Handler) -> Response:
        return self.bind(endpoint)(request)


def _bind(middleware: Middleware, inner: Handler) -> Handler:
    def handler(request: Request) -> Response:
        return middleware(request, inner)

    return handler


def emit_access_record(
    logger: logging.Logger,
    request: Request,
    status: int,
    duration_ms: float,
    stage: str,
) -> None:
    """The one access-record shape, shared by every request outcome.

    ``stage`` says where the response came from: ``"handler"`` for requests
    that reached the router, ``"middleware"`` for pipeline-raised rejections
    (429/400 before the handler).  Both paths carry the full field set —
    request id, client, status, real measured duration, route template — so
    log consumers never see a partial record.
    """
    logger.info(
        "%s %s -> %d (%.2fms)",
        request.method,
        request.target,
        status,
        duration_ms,
        extra={
            "request_id": request.request_id,
            "client": request.client_key,
            "status": status,
            "duration_ms": duration_ms,
            "route": request.route,
            "stage": stage,
        },
    )


def record_request_metrics(
    registry: MetricsRegistry,
    request: Request,
    status: int,
    duration_seconds: float,
    rejected: bool = False,
) -> None:
    """Count one finished request in the registry (any pipeline outcome)."""
    route = request.route
    registry.counter(
        "seesaw_requests_total",
        "Requests finished, by method, route template and status.",
        labels=("method", "route", "status"),
    ).labels(request.method, route, str(status)).inc()
    registry.histogram(
        "seesaw_request_seconds",
        "End-to-end request latency through the middleware pipeline.",
        labels=("route",),
    ).labels(route).observe(duration_seconds)
    if rejected:
        registry.counter(
            "seesaw_rejections_total",
            "Requests rejected inside the middleware pipeline "
            "(rate limiting, malformed transport), by status.",
            labels=("status",),
        ).labels(str(status)).inc()


class RequestIdMiddleware:
    """Assigns each request an id, echoes it, binds the tracing context."""

    HEADER = "X-Request-Id"

    def __call__(self, request: Request, handler: Handler) -> Response:
        request.request_id = request.header(self.HEADER) or uuid.uuid4().hex
        # Bind the id to the tracing contextvar so any layer below — engine
        # spans, slow logs, future exporters — can tag diagnostics with the
        # originating request without an argument threaded through.
        token = set_request_id(request.request_id)
        try:
            response = handler(request)
        finally:
            reset_request_id(token)
        response.headers.setdefault(self.HEADER, request.request_id)
        return response


class AccessLogMiddleware:
    """Structured access log + request metrics + slow-request detection."""

    def __init__(
        self,
        logger: "logging.Logger | None" = None,
        clock: "Callable[[], float]" = time.perf_counter,
        registry: "MetricsRegistry | None" = None,
        slow_request_ms: float = 0.0,
        slow_logger: "logging.Logger | None" = None,
    ) -> None:
        self.logger = logger or logging.getLogger(ACCESS_LOGGER_NAME)
        self.slow_logger = slow_logger or logging.getLogger(SLOW_LOGGER_NAME)
        self._clock = clock
        self._registry = registry
        self.slow_request_ms = float(slow_request_ms)
        self.requests_served = 0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def __call__(self, request: Request, handler: Handler) -> Response:
        start = self._clock()
        # Open the per-request span collector: every trace_span the handler
        # opens below lands here (contextvars isolate concurrent requests).
        trace_token = begin_request_trace()
        try:
            response = handler(request)
        finally:
            trace = end_request_trace(trace_token)
        elapsed_ms = (self._clock() - start) * 1000.0
        self.requests_served += 1
        emit_access_record(
            self.logger, request, response.status, elapsed_ms, stage="handler"
        )
        record_request_metrics(
            self.registry, request, response.status, elapsed_ms / 1000.0
        )
        if self.slow_request_ms > 0.0 and elapsed_ms >= self.slow_request_ms:
            stages = trace.stage_millis() if trace is not None else {}
            self.registry.counter(
                "seesaw_slow_requests_total",
                "Requests slower than telemetry.slow_request_ms, by route.",
                labels=("route",),
            ).labels(request.route).inc()
            self.slow_logger.warning(
                "slow request %s %s -> %d (%.2fms >= %.2fms) stages=%s",
                request.method,
                request.target,
                response.status,
                elapsed_ms,
                self.slow_request_ms,
                stages,
                extra={
                    "request_id": request.request_id,
                    "client": request.client_key,
                    "status": response.status,
                    "duration_ms": elapsed_ms,
                    "route": request.route,
                    "threshold_ms": self.slow_request_ms,
                    "stages": stages,
                },
            )
        return response


class RateLimitMiddleware:
    """Token-bucket rate limiting per client key.

    Each client (``X-Client-Id`` header, else remote address) owns a bucket
    of ``burst`` tokens refilled at ``rate_per_second``.  A request with no
    token available raises :class:`RateLimitedError` — the app layer maps it
    to the structured 429 envelope (``retryable: true``, with a retry hint
    in the message).

    The bucket table is bounded: past ``max_clients`` the least-recently
    seen bucket is dropped (a dropped client simply starts a fresh, full
    bucket — bias towards availability, not towards punishing returners).
    """

    def __init__(
        self,
        rate_per_second: float,
        burst: int,
        clock: "Callable[[], float]" = time.monotonic,
        max_clients: int = 1024,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be > 0; gate construction "
                             "on the config knob instead of passing 0")
        self.rate_per_second = float(rate_per_second)
        self.burst = max(1, int(burst))
        self.max_clients = int(max_clients)
        self._clock = clock
        self._lock = threading.Lock()
        # client key -> [tokens, last_refill]; dict order doubles as the
        # recency order (entries are re-inserted on every touch).
        self._buckets: "dict[str, list[float]]" = {}
        self.rejected_requests = 0

    def __call__(self, request: Request, handler: Handler) -> Response:
        self._take_token(request.client_key)
        return handler(request)

    def _take_token(self, client_key: str) -> None:
        now = self._clock()
        with self._lock:
            bucket = self._buckets.pop(client_key, None)
            if bucket is None:
                bucket = [float(self.burst), now]
            tokens, last_refill = bucket
            tokens = min(
                float(self.burst),
                tokens + (now - last_refill) * self.rate_per_second,
            )
            if tokens < 1.0:
                # Re-insert before raising so the drained state (and its
                # refill clock) survives the rejected request.
                self._buckets[client_key] = [tokens, now]
                self.rejected_requests += 1
                # The limiter knows exactly when the next token lands, so
                # the 429 carries a real refill time, not a guess — the app
                # turns it into the Retry-After header and both clients
                # surface it as ``exc.retry_after_seconds``.
                retry_after = (1.0 - tokens) / self.rate_per_second
                raise RateLimitedError(
                    f"Rate limit exceeded for client '{client_key}': "
                    f"{self.rate_per_second:g} requests/s sustained "
                    f"(burst {self.burst}); retry in {retry_after:.2f}s",
                    retry_after_seconds=retry_after,
                )
            self._buckets[client_key] = [tokens - 1.0, now]
            while len(self._buckets) > self.max_clients:
                self._buckets.pop(next(iter(self._buckets)))


class DeadlineMiddleware:
    """Binds each request's deadline budget to the request context.

    The budget comes from the client's ``X-Deadline-Ms`` header when
    present, else from the configured server default (``0`` = none).  A
    request that arrives already expired (a clock-skewed client shipping a
    dead budget) is rejected here with the typed 504 before any routing or
    session work happens; a malformed header is a 400.
    """

    HEADER = DEADLINE_HEADER

    def __init__(self, default_deadline_ms: float = 0.0) -> None:
        self.default_deadline_ms = float(default_deadline_ms)

    def __call__(self, request: Request, handler: Handler) -> Response:
        raw = request.header(self.HEADER)
        if raw is not None:
            deadline = parse_deadline_header(raw)
        elif self.default_deadline_ms > 0.0:
            deadline = Deadline(self.default_deadline_ms)
        else:
            return handler(request)
        with deadline_scope(deadline):
            deadline.check("routing")
            return handler(request)


class InFlightTracker:
    """The service's bounded in-flight gauge.

    One instance is shared by the :class:`AdmissionControlMiddleware`
    (admit or shed), ``/healthz`` and the manager's drain (the count).
    """

    def __init__(self, limit: int = 0) -> None:
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def try_enter(self) -> bool:
        """Admit one request, or refuse at the bound."""
        with self._lock:
            if 0 < self.limit <= self._count:
                return False
            self._count += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._count = max(0, self._count - 1)


class AdmissionControlMiddleware:
    """Sheds load with a cheap 503 before queueing collapse.

    Every request an unbounded server accepts past its concurrency knee
    still costs a thread, a session-lock wait, and queue time that inflates
    everyone else's latency; rejecting at the door costs one envelope.
    Health, capabilities and metrics stay exempt — overload is exactly when
    operators need them.

    The 503 carries ``Retry-After: retry_after_hint_s`` — a deliberate
    flat hint (the shedder cannot know when load will drain the way the
    rate limiter knows its refill time) that still gives well-behaved
    clients a jitter anchor better than hammering.
    """

    def __init__(
        self,
        tracker: InFlightTracker,
        registry: "MetricsRegistry | None" = None,
        retry_after_hint_s: float = 1.0,
    ) -> None:
        self.tracker = tracker
        self._registry = registry
        self.retry_after_hint_s = float(retry_after_hint_s)
        self.registry.gauge(
            "seesaw_in_flight",
            "Requests currently being processed (admission-control gauge).",
            callback=lambda: float(tracker.count),
        )

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def __call__(self, request: Request, handler: Handler) -> Response:
        if request.route in PROBE_ROUTES:
            return handler(request)
        if not self.tracker.try_enter():
            self.registry.counter(
                "seesaw_shed_total",
                "Requests shed before processing, by reason.",
                labels=("reason",),
            ).labels("in_flight").inc()
            raise ServiceOverloadedError(
                f"Service is at its in-flight limit "
                f"({self.tracker.limit} requests); shedding to protect "
                f"latency of admitted work",
                retry_after_seconds=self.retry_after_hint_s,
            )
        try:
            return handler(request)
        finally:
            self.tracker.release()
