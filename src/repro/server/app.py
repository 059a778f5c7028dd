"""Transport-agnostic request router for the SeeSaw service.

The :class:`SeeSawApp` maps a decoded transport request to a
:class:`~repro.server.middleware.Response`.  It owns URL parsing, codec
invocation, the middleware pipeline, and the exception→envelope mapping; it
knows nothing about sockets, which keeps the whole routing layer
unit-testable without binding a port.

The `/v1` wire protocol
-----------------------
``GET  /v1/healthz``                    liveness + registry summary
``GET  /v1/capabilities``               negotiated features, limits, topology
``GET  /v1/metrics``                    metrics exposition (Prometheus text,
                                        ``?format=json`` for JSON)
``GET  /v1/sessions``                   cursor-paged session listing
``POST /v1/sessions``                   start a session
``GET  /v1/sessions/{id}``              session progress summary
``GET  /v1/sessions/{id}/next``         next result batch (``?count=N``)
``POST /v1/sessions/{id}/feedback``     submit feedback (idempotency keys)
``DELETE /v1/sessions/{id}``            close a session
``GET  /v1/datasets``                   registry manifests of every dataset
``GET  /v1/datasets/{name}``            one dataset's manifest
``POST /v1/datasets/{name}/upsert``     add/replace images (live tier)
``POST /v1/datasets/{name}/delete``     delete images (live tier)
``POST /v1/datasets/{name}/merge``      force a delta-segment compaction

Every error uses the structured envelope of :mod:`repro.server.errors`
(``{code, message, retryable, details}``) — a path outside `/v1` is the
structured 404; ``next`` streams chunked NDJSON when the client asks for it
(``Accept: application/x-ndjson`` or ``?stream=ndjson``).
"""

from __future__ import annotations

import logging
import time
from typing import Any, Iterator, Sequence
from urllib.parse import parse_qs

import math

from repro.exceptions import (
    DeadlineExceededError,
    TransportError,
    UnknownResourceError,
)
from repro.server.api import (
    PROTOCOL_VERSION,
    DatasetList,
    DeleteRequest,
    FeedbackRequest,
    NextResultsResponse,
    StartSessionRequest,
    UpsertRequest,
)
from repro.server.codec import decode, encode, parse_json, validate_count
from repro.server.errors import encode_error
from repro.server.manager import SessionManager
from repro.server.middleware import (
    ACCESS_LOGGER_NAME,
    AccessLogMiddleware,
    AdmissionControlMiddleware,
    DeadlineMiddleware,
    InFlightTracker,
    Middleware,
    MiddlewarePipeline,
    RateLimitMiddleware,
    Request,
    RequestIdMiddleware,
    Response,
    emit_access_record,
    record_request_metrics,
)


def default_middlewares(manager: SessionManager) -> "list[Middleware]":
    """The standard pipeline: ids, logs, limits, deadlines, admission, chaos.

    Outermost first.  Rate limiting sits before deadlines and admission —
    a client over its own budget is rejected by the cheapest check; the
    deadline scope opens before admission so even the shed path observes
    the request's budget.  The admission tracker is registered with the
    manager (``/v1/healthz`` reports the live in-flight count).
    """
    config = manager.service.config
    middlewares: "list[Middleware]" = [
        RequestIdMiddleware(),
        AccessLogMiddleware(
            registry=manager.service.metrics,
            slow_request_ms=config.telemetry.slow_request_ms,
        ),
    ]
    if config.rate_limit_rps > 0:
        middlewares.append(
            RateLimitMiddleware(config.rate_limit_rps, config.rate_limit_burst)
        )
    middlewares.append(DeadlineMiddleware(config.request_deadline_ms))
    tracker = InFlightTracker(limit=config.max_in_flight)
    manager.attach_inflight_tracker(tracker)
    middlewares.append(
        AdmissionControlMiddleware(tracker, registry=manager.service.metrics)
    )
    if config.faults is not None and config.faults.any_faults:
        from repro.faults.middleware import ChaosMiddleware

        middlewares.append(
            ChaosMiddleware(config.faults, registry=manager.service.metrics)
        )
    return middlewares


class SeeSawApp:
    """Routes decoded transport requests into a :class:`SessionManager`."""

    def __init__(
        self,
        manager: SessionManager,
        middlewares: "Sequence[Middleware] | None" = None,
    ) -> None:
        self.manager = manager
        if middlewares is None:
            middlewares = default_middlewares(manager)
        self.pipeline = MiddlewarePipeline(middlewares)
        self._handler = self.pipeline.bind(self._endpoint)

    # ------------------------------------------------------------------
    # the entry point
    # ------------------------------------------------------------------
    def handle_request(self, request: Request) -> Response:
        """The one entry point: middleware pipeline around the router.

        The HTTP handler and :class:`~repro.server.client.InProcessClient`
        both call it; HTTP adds only the socket.
        """
        started = time.perf_counter()
        try:
            return self._handler(request)
        except Exception as exc:
            # Errors raised by the pipeline itself (rate limiting, a broken
            # custom middleware) — everything the router raises is already
            # mapped inside _endpoint.  The pipeline was abandoned
            # mid-flight, so the observability middlewares never saw a
            # response: restore the request-id echo and emit the same
            # complete access record and registry counts a handled request
            # gets, or exactly the throttled traffic would be the part
            # missing from the logs and the metrics.
            duration_ms = (time.perf_counter() - started) * 1000.0
            response = self._error_response(request, exc)
            if request.request_id is not None:
                response.headers.setdefault(
                    RequestIdMiddleware.HEADER, request.request_id
                )
            emit_access_record(
                logging.getLogger(ACCESS_LOGGER_NAME),
                request,
                response.status,
                duration_ms,
                stage="middleware",
            )
            record_request_metrics(
                self.manager.service.metrics,
                request,
                response.status,
                duration_ms / 1000.0,
                rejected=True,
            )
            return response

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _endpoint(self, request: Request) -> Response:
        segments = [segment for segment in request.path.split("/") if segment]
        query = parse_qs(request.query)
        method = request.method.upper()
        try:
            if segments[:1] != [PROTOCOL_VERSION]:
                raise UnknownResourceError(f"No route for {method} {request.path}")
            return self._route_v1(request, method, segments[1:], query)
        except Exception as exc:
            return self._error_response(request, exc)

    def _error_response(self, request: Request, exc: BaseException) -> Response:
        """The structured envelope, plus the Retry-After header and 504 counter."""
        status, payload = encode_error(exc, request_id=request.request_id)
        response = Response(status, payload)
        retry_after = getattr(exc, "retry_after_seconds", None)
        if retry_after is not None and response.status in (429, 503):
            # HTTP Retry-After is whole seconds; round up so a client that
            # honours it exactly never lands before the hinted instant.
            response.headers.setdefault(
                "Retry-After", str(max(1, math.ceil(float(retry_after))))
            )
        if isinstance(exc, DeadlineExceededError):
            self.manager.service.metrics.counter(
                "seesaw_deadline_exceeded_total",
                "Requests failed with the typed 504: the propagated budget "
                "ran out before the work finished, by route.",
                labels=("route",),
            ).labels(request.route).inc()
        return response

    def _route_v1(
        self,
        request: Request,
        method: str,
        segments: "list[str]",
        query: "dict[str, list[str]]",
    ) -> Response:
        """The versioned `/v1` routes."""
        if segments == ["healthz"] and method == "GET":
            return Response(200, self.manager.health())

        if segments == ["capabilities"] and method == "GET":
            return Response(200, self.manager.capabilities())

        if segments == ["metrics"] and method == "GET":
            if _wants_metrics_json(request, query):
                return Response(200, self.manager.metrics_json())
            return Response(200, text=self.manager.metrics_text())

        if segments == ["sessions"] and method == "GET":
            page = self.manager.list_sessions(
                cursor=_str_param(query, "cursor"),
                limit=_int_param(query, "limit"),
            )
            return Response(200, encode(page))

        if segments == ["sessions"] and method == "POST":
            info = self.manager.start_session(
                decode(StartSessionRequest, parse_json(request.body))
            )
            return Response(201, encode(info))

        if len(segments) == 2 and segments[0] == "sessions":
            session_id = segments[1]
            if method == "GET":
                return Response(200, encode(self.manager.session_info(session_id)))
            if method == "DELETE":
                self.manager.close_session(session_id)
                return Response(200, {"closed": session_id})

        if len(segments) == 3 and segments[0] == "sessions":
            session_id = segments[1]
            if segments[2] == "next" and method == "GET":
                count = _int_param(query, "count")
                if count is not None:
                    validate_count(count)
                response = self.manager.next_results(session_id, count)
                if _wants_ndjson(request, query):
                    return Response(200, stream=_next_stream(response))
                return Response(200, encode(response))
            if segments[2] == "feedback" and method == "POST":
                feedback = decode(
                    FeedbackRequest, parse_json(request.body), session_id=session_id
                )
                info = self.manager.give_feedback(
                    feedback, idempotency_key=request.header("Idempotency-Key")
                )
                return Response(200, encode(info))

        if segments == ["datasets"] and method == "GET":
            listing = DatasetList(tuple(self.manager.list_datasets()))
            return Response(200, encode(listing))

        if len(segments) == 2 and segments[0] == "datasets" and method == "GET":
            return Response(200, self.manager.describe_dataset(segments[1]))

        if len(segments) == 3 and segments[0] == "datasets" and method == "POST":
            name, action = segments[1], segments[2]
            if action == "upsert":
                upsert = decode(UpsertRequest, parse_json(request.body))
                return Response(200, self.manager.upsert_images(name, upsert.images))
            if action == "delete":
                delete = decode(DeleteRequest, parse_json(request.body))
                return Response(200, self.manager.delete_images(name, delete.image_ids))
            if action == "merge":
                return Response(200, self.manager.force_merge(name))

        raise UnknownResourceError(
            f"No route for {method} /v1/{'/'.join(segments)}"
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _str_param(query: "dict[str, list[str]]", name: str) -> "str | None":
    values = query.get(name)
    return values[-1] if values else None


def _int_param(query: "dict[str, list[str]]", name: str) -> "int | None":
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[-1])
    except ValueError as exc:
        raise TransportError(
            f"Query parameter '{name}' must be an integer, got '{values[-1]}'"
        ) from exc


def _wants_metrics_json(request: Request, query: "dict[str, list[str]]") -> bool:
    """Format negotiation for `/v1/metrics`: Prometheus text by default.

    ``?format=json`` (or an ``Accept: application/json`` header) selects the
    JSON exposition; ``?format=prometheus`` forces the text format.
    """
    fmt = _str_param(query, "format")
    if fmt is not None:
        if fmt not in ("prometheus", "json"):
            raise TransportError(
                f"Query parameter 'format' must be 'prometheus' or 'json', "
                f"got '{fmt}'"
            )
        return fmt == "json"
    return "application/json" in (request.header("Accept") or "")


def _wants_ndjson(request: Request, query: "dict[str, list[str]]") -> bool:
    stream = _str_param(query, "stream")
    if stream is not None:
        if stream not in ("ndjson", "json"):
            raise TransportError(
                f"Query parameter 'stream' must be 'ndjson' or 'json', "
                f"got '{stream}'"
            )
        return stream == "ndjson"
    return "application/x-ndjson" in (request.header("Accept") or "")


def _next_stream(response: NextResultsResponse) -> "Iterator[dict[str, Any]]":
    """NDJSON records for one result batch: meta, one line per item, end.

    The engine computes the whole batch before the first byte is written
    (errors therefore still arrive as plain JSON envelopes with a real
    status code); streaming buys incremental *rendering* — a UI paints the
    first result while the rest of a large batch is still on the wire.
    """
    yield {
        "kind": "meta",
        "session_id": response.session_id,
        "item_count": len(response.items),
        "total_shown": response.total_shown,
        "positives_found": response.positives_found,
    }
    for item in response.items:
        yield {"kind": "item", "item": encode(item)}
    yield {"kind": "end"}
