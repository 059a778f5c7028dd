"""Transport-agnostic request path for the SeeSaw service.

The :class:`SeeSawApp` maps a decoded transport request to a
:class:`~repro.server.middleware.Response`.  :meth:`SeeSawApp.handle_request`
is the one request path: request id, access record and metrics, rate
limiting, the deadline scope, admission, routing and the exception→envelope
mapping, in that order, once per request.  It knows nothing about sockets,
which keeps the whole routing layer unit-testable without binding a port.

The `/v1` routes are the rows of :data:`repro.server.api.ROUTES`.  Every
error uses the structured envelope of :mod:`repro.server.errors`
(``{code, message, retryable, details}``): a path outside `/v1`, or a
method a path does not serve, is the structured 404; ``next`` streams
chunked NDJSON when the client asks for it (``Accept:
application/x-ndjson`` or ``?stream=ndjson``).
"""

from __future__ import annotations

import logging
import math
import time
import uuid
from contextlib import nullcontext
from typing import Any, Iterator
from urllib.parse import parse_qs

from repro.exceptions import (
    DeadlineExceededError,
    TransportError,
    UnknownResourceError,
)
from repro.obs import (
    begin_request_trace,
    end_request_trace,
    reset_request_id,
    set_request_id,
)
from repro.server.api import (
    PROBE_ROUTES,
    DatasetList,
    FeedbackRequest,
    NextResultsResponse,
    Route,
    StartSessionRequest,
)
from repro.server.codec import decode, encode, parse_json, validate_count
from repro.server.deadlines import (
    DEADLINE_HEADER,
    Deadline,
    deadline_scope,
    parse_deadline_header,
)
from repro.server.errors import encode_error
from repro.server.manager import SessionManager
from repro.server.middleware import Request, Response

REQUEST_ID_HEADER = "X-Request-Id"

_access_log = logging.getLogger("repro.server.access")
_slow_log = logging.getLogger("repro.server.slow")


class SeeSawApp:
    """Routes decoded transport requests into a :class:`SessionManager`.

    Several apps may serve one manager (an HTTP server beside an
    in-process client): the admission state is the manager's, so they
    shed, throttle and drain together.
    """

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager
        config = manager.service.config
        self._default_deadline_ms = float(config.request_deadline_ms)
        self._slow_request_ms = float(config.telemetry.slow_request_ms)

    # ------------------------------------------------------------------
    # the entry point
    # ------------------------------------------------------------------
    def handle_request(self, request: Request) -> Response:
        """The one entry point; HTTP adds only the socket.

        The HTTP handler and :class:`~repro.server.client.InProcessClient`
        both call it.  Every outcome, from a 429 to a handled 200, leaves
        one access record and one count in the request metrics; ``stage``
        in the record says whether the request was rejected before routing
        (``"middleware"``: rate limited, a malformed or spent deadline,
        shed) or reached the router (``"handler"``).
        """
        request.request_id = request.header(REQUEST_ID_HEADER) or uuid.uuid4().hex
        # Bound to a contextvar so any layer below (engine spans, slow logs)
        # can tag diagnostics with the originating request.
        id_token = set_request_id(request.request_id)
        try:
            # Every trace_span the router opens below lands in this collector.
            trace_token = begin_request_trace()
            started = time.perf_counter()
            stage = "middleware"
            try:
                # A client over its own budget is rejected by the cheapest check.
                limiter = self.manager.rate_limiter
                if limiter is not None:
                    limiter.take(request.client_key)
                deadline = self._deadline(request)
                # The scope opens before admission, so even a shed observes it.
                with nullcontext() if deadline is None else deadline_scope(deadline):
                    if deadline is not None:
                        deadline.check("routing")
                    # Probes stay exempt: overload is when operators need them.
                    gated = request.route not in PROBE_ROUTES
                    if gated:
                        self.manager.admit()
                    try:
                        stage = "handler"
                        response = self._route(request)
                    finally:
                        if gated:
                            self.manager.release()
            except Exception as exc:
                response = self._error_response(request, exc)
            finally:
                trace = end_request_trace(trace_token)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            response.headers.setdefault(REQUEST_ID_HEADER, request.request_id)
            self._record(request, response.status, elapsed_ms, stage, trace)
            return response
        finally:
            reset_request_id(id_token)

    def _deadline(self, request: Request) -> "Deadline | None":
        """The request's budget: its ``X-Deadline-Ms`` header (a malformed
        one is a 400), else the configured default, else none."""
        raw = request.header(DEADLINE_HEADER)
        if raw is not None:
            return parse_deadline_header(raw)
        if self._default_deadline_ms > 0.0:
            return Deadline(self._default_deadline_ms)
        return None

    def _record(
        self, request: Request, status: int, elapsed_ms: float, stage: str, trace: Any
    ) -> None:
        """One access record, the request metrics and, past
        ``telemetry.slow_request_ms``, the slow-request log."""
        _access_log.info(
            "%s %s -> %d (%.2fms)",
            request.method,
            request.target,
            status,
            elapsed_ms,
            extra={
                "request_id": request.request_id,
                "client": request.client_key,
                "status": status,
                "duration_ms": elapsed_ms,
                "route": request.route,
                "stage": stage,
            },
        )
        registry = self.manager.service.metrics
        route = request.route
        registry.counter(
            "seesaw_requests_total",
            "Requests finished, by method, route template and status.",
            labels=("method", "route", "status"),
        ).labels(request.method, route, str(status)).inc()
        registry.histogram(
            "seesaw_request_seconds",
            "End-to-end request latency through the app.",
            labels=("route",),
        ).labels(route).observe(elapsed_ms / 1000.0)
        if stage == "middleware":
            registry.counter(
                "seesaw_rejections_total",
                "Requests rejected before routing (rate limited, a malformed "
                "or spent deadline, shed), by status.",
                labels=("status",),
            ).labels(str(status)).inc()
        if 0.0 < self._slow_request_ms <= elapsed_ms:
            stages = trace.stage_millis() if trace is not None else {}
            registry.counter(
                "seesaw_slow_requests_total",
                "Requests slower than telemetry.slow_request_ms, by route.",
                labels=("route",),
            ).labels(route).inc()
            _slow_log.warning(
                "slow request %s %s -> %d (%.2fms >= %.2fms) stages=%s",
                request.method,
                request.target,
                status,
                elapsed_ms,
                self._slow_request_ms,
                stages,
                extra={
                    "request_id": request.request_id,
                    "client": request.client_key,
                    "status": status,
                    "duration_ms": elapsed_ms,
                    "route": route,
                    "threshold_ms": self._slow_request_ms,
                    "stages": stages,
                },
            )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, request: Request) -> Response:
        """The routing step: serve the request's row, or the structured 404."""
        if request.row is None:
            raise UnknownResourceError(f"No route for {request.method.upper()} {_shown(request)}")
        return self._serve(request, request.row)

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
