"""Transport-agnostic request router for the SeeSaw service.

The :class:`SeeSawApp` maps a decoded transport request to a
:class:`~repro.server.middleware.Response`.  It owns URL parsing, codec
invocation, the middleware pipeline, and the exception→envelope mapping; it
knows nothing about sockets, which keeps the whole routing layer
unit-testable without binding a port.

The `/v1` routes are the rows of :data:`repro.server.api.ROUTES`.  Every
error uses the structured envelope of :mod:`repro.server.errors`
(``{code, message, retryable, details}``): a path outside `/v1`, or a
method a path does not serve, is the structured 404; ``next`` streams
chunked NDJSON when the client asks for it (``Accept:
application/x-ndjson`` or ``?stream=ndjson``).
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
    DatasetList,
    FeedbackRequest,
    NextResultsResponse,
    Route,
    StartSessionRequest,
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
        try:
            if request.row is None:
                raise UnknownResourceError(f"No route for {request.method.upper()} {_shown(request)}")
            return self._serve(request, request.row)
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

    def _serve(self, request: Request, row: Route) -> Response:
        """Call ``row``'s manager operation on the path parameters, then the
        decoded body or the query, and wrap its result as ``row`` declares.

        The operation is looked up by name on each call, so a wrapper set on
        the manager's class after import (a tracer) is the one that runs.
        """
        query = parse_qs(request.query)
        operation, args, kwargs = row.operation, list(request.params), {}
        if row.request is FeedbackRequest:
            # The session id comes from the URL, the replay key from a header.
            args = [decode(FeedbackRequest, parse_json(request.body), session_id=args[0])]
            kwargs["idempotency_key"] = request.header("Idempotency-Key")
        elif row.request is StartSessionRequest:
            args.append(decode(StartSessionRequest, parse_json(request.body)))
        elif row.request is not None:
            # upsert and delete: the operation takes the message's one field
            args += vars(decode(row.request, parse_json(request.body))).values()
        elif operation == "list_sessions":
            kwargs = {"cursor": _str_param(query, "cursor"), "limit": _int_param(query, "limit")}
        elif operation == "next_results":
            count = _int_param(query, "count")
            args.append(None if count is None else validate_count(count))
        elif row.response is str and _asks_for(
            request, query, "format", ("prometheus", "json"), "json", "application/json"
        ):
            return Response(row.status, self.manager.metrics_json())
        result = getattr(self.manager, operation)(*args, **kwargs)
        if row.response is str:
            return Response(row.status, text=result)
        if operation == "next_results" and _asks_for(
            request, query, "stream", ("ndjson", "json"), "ndjson", "application/x-ndjson"
        ):
            return Response(row.status, stream=_next_stream(result))
        if operation == "close_session":
            result = {"closed": args[0]}
        elif row.response is DatasetList:
            result = DatasetList(tuple(result))
        return Response(row.status, result if row.response is dict else encode(result))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _shown(request: Request) -> str:
    """The path a 404 names: under `/v1`, without its empty segments."""
    if request.route == "/other":
        return request.path
    return "/v1/" + "/".join([segment for segment in request.path.split("/") if segment][1:])


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


def _asks_for(
    request: Request,
    query: "dict[str, list[str]]",
    name: str,
    choices: "tuple[str, str]",
    wanted: str,
    media_type: str,
) -> bool:
    """Whether the request asks for ``media_type``: by ``?name=wanted`` (one
    of ``choices``, any other value is a 400), else by its ``Accept``."""
    value = _str_param(query, name)
    if value is None:
        return media_type in (request.header("Accept") or "")
    if value not in choices:
        raise TransportError(
            f"Query parameter '{name}' must be '{choices[0]}' or '{choices[1]}', got '{value}'"
        )
    return value == wanted


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
