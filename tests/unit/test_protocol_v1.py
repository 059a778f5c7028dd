"""Unit tests for the `/v1` wire protocol layer.

Covers the pieces the redesign introduced below the transport: the
structured error envelope and its exception mapping, paging cursors, count
bounds, the request path (request ids, access records, token-bucket rate
limiting), capability discovery, idempotent feedback, and the paged
session listing — all driven through ``SeeSawApp.handle_request`` or the
manager directly, no sockets.  One grid of every request outcome runs over
both transports: each leaves exactly one access record and one count.
"""

from __future__ import annotations

import http.client
import json
import logging
from typing import NamedTuple
from urllib.parse import urlsplit

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import (
    ConfigurationError,
    IdempotencyConflictError,
    InternalServiceError,
    RateLimitedError,
    ServiceOverloadedError,
    SessionError,
    TransportError,
    UnknownResourceError,
)
from repro.obs import MetricsRegistry
from repro.server import (
    PROTOCOL_REVISION,
    FeedbackRequest,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    serve_in_background,
)
from repro.server.codec import (
    MAX_RESULT_COUNT,
    decode_cursor,
    encode_cursor,
    validate_count,
)
from repro.server.errors import decode_error, encode_error, error_spec
from repro.server.manager import IDEMPOTENCY_KEYS_PER_SESSION
from repro.server.middleware import RateLimiter, Request


# ---------------------------------------------------------------------------
# error envelope
# ---------------------------------------------------------------------------
class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "exc, status, code, retryable",
        [
            (TransportError("bad"), 400, "invalid_request", False),
            (UnknownResourceError("gone"), 404, "not_found", False),
            (ServiceOverloadedError("full"), 503, "overloaded", True),
            (RateLimitedError("slow down"), 429, "rate_limited", True),
            (IdempotencyConflictError("reused"), 409, "idempotency_conflict", False),
            (SessionError("pending batch"), 400, "session_state", False),
            (ConfigurationError("bad knob"), 400, "bad_request", False),
            (InternalServiceError("crashed"), 500, "internal", True),
            (RuntimeError("boom"), 500, "internal", True),
        ],
    )
    def test_exception_mapping(self, exc, status, code, retryable):
        spec = error_spec(exc)
        assert (spec.status, spec.code, spec.retryable) == (status, code, retryable)

    def test_encode_shape(self):
        status, payload = encode_error(
            UnknownResourceError("Unknown session 'x'"), request_id="req-1"
        )
        assert status == 404
        error = payload["error"]
        assert error["code"] == "not_found"
        assert error["message"] == "Unknown session 'x'"
        assert error["retryable"] is False
        assert error["details"]["type"] == "UnknownResourceError"
        assert error["details"]["request_id"] == "req-1"

    @pytest.mark.parametrize(
        "exc",
        [
            TransportError("a"),
            UnknownResourceError("b"),
            ServiceOverloadedError("c"),
            RateLimitedError("d"),
            IdempotencyConflictError("e"),
            SessionError("f"),
            InternalServiceError("g"),
        ],
    )
    def test_encode_decode_round_trip(self, exc):
        status, payload = encode_error(exc)
        rebuilt = decode_error(status, payload)
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)

    def test_decode_garbage_falls_back_to_transport_error(self):
        rebuilt = decode_error(502, "<html>bad gateway</html>")
        assert isinstance(rebuilt, TransportError)
        assert "502" in str(rebuilt)


# ---------------------------------------------------------------------------
# cursors and count bounds
# ---------------------------------------------------------------------------
class TestCursorsAndBounds:
    def test_cursor_round_trip(self):
        for sequence in (0, 1, 7, 123456789):
            assert decode_cursor(encode_cursor(sequence)) == sequence

    def test_cursor_is_opaque_not_numeric(self):
        assert encode_cursor(42) != "42"

    @pytest.mark.parametrize("garbage", ["", "42", "not-base64!", "czo0Mg", "cQ=="])
    def test_malformed_cursor_rejected(self, garbage):
        with pytest.raises(TransportError, match="cursor"):
            decode_cursor(garbage)

    def test_count_bounds(self):
        assert validate_count(1) == 1
        assert validate_count(MAX_RESULT_COUNT) == MAX_RESULT_COUNT
        with pytest.raises(TransportError, match=">= 1"):
            validate_count(0)
        with pytest.raises(TransportError, match="<="):
            validate_count(MAX_RESULT_COUNT + 1)


# ---------------------------------------------------------------------------
# the request path: request ids, access records, token buckets
# ---------------------------------------------------------------------------
def _bare_app(**config) -> SeeSawApp:
    """An app over a service with no datasets: the probes and the session
    list route answer, which is all these cases need."""
    service = SeeSawService(SeeSawConfig(**config), registry=MetricsRegistry())
    return SeeSawApp(SessionManager(service))


class TestRequestPath:
    def test_request_id_generated_and_echoed(self):
        response = _bare_app().handle_request(Request("GET", "/v1/nowhere"))
        generated = response.headers["X-Request-Id"]
        assert generated
        assert response.payload["error"]["details"]["request_id"] == generated

    def test_client_supplied_request_id_wins(self):
        response = _bare_app().handle_request(
            Request("GET", "/v1/nowhere", headers={"x-request-id": "mine"})
        )
        assert response.headers["X-Request-Id"] == "mine"
        assert response.payload["error"]["details"]["request_id"] == "mine"

    def test_access_log_emits_one_record(self, caplog):
        app = _bare_app()
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            app.handle_request(Request("GET", "/v1/healthz", client="1.2.3.4"))
        [record] = caplog.records
        assert record.client == "1.2.3.4"
        assert record.status == 200
        assert record.request_id
        assert record.duration_ms >= 0.0
        requests = app.manager.service.metrics.get("seesaw_requests_total")
        assert requests.labels("GET", "/v1/healthz", "200").value == 1.0

    def test_token_bucket_burst_then_refill(self):
        clock = FakeClock()
        app = _bare_app(rate_limit_rps=1.0, rate_limit_burst=3)
        app.manager.rate_limiter = RateLimiter(rate_per_second=1.0, burst=3, clock=clock)
        rejections = app.manager.service.metrics.counter(
            "seesaw_rejections_total", "", labels=("status",)
        ).labels("429")

        def status() -> int:
            return app.handle_request(Request("GET", "/v1/healthz", client="a")).status

        assert [status() for _ in range(3)] == [200, 200, 200]
        response = app.handle_request(Request("GET", "/v1/healthz", client="a"))
        assert response.status == 429
        assert "client 'a'" in response.payload["error"]["message"]
        assert rejections.value == 1.0
        clock.advance(1.0)  # one token refills
        assert [status(), status()] == [200, 429]
        assert rejections.value == 2.0

    def test_clients_have_independent_buckets(self):
        limiter = RateLimiter(rate_per_second=1.0, burst=1, clock=FakeClock())
        limiter.take("a")
        # Client a is drained; client b still has its own burst.
        with pytest.raises(RateLimitedError):
            limiter.take("a")
        limiter.take("b")

    def test_x_client_id_header_overrides_remote_address(self):
        limiter = RateLimiter(rate_per_second=1.0, burst=1, clock=FakeClock())
        first = Request("GET", "/x", headers={"X-Client-Id": "shared"}, client="1.1.1.1")
        second = Request("GET", "/x", headers={"X-Client-Id": "shared"}, client="2.2.2.2")
        limiter.take(first.client_key)
        with pytest.raises(RateLimitedError, match="shared"):
            limiter.take(second.client_key)

    def test_bucket_table_is_bounded(self):
        limiter = RateLimiter(
            rate_per_second=1.0, burst=1, clock=FakeClock(), max_clients=4
        )
        for index in range(10):
            limiter.take(f"c{index}")
        assert len(limiter._buckets) <= 4

    @pytest.mark.parametrize(
        "config, limited",
        [({}, False), ({"rate_limit_rps": 5.0}, True)],
        ids=["default", "rate-limited"],
    )
    def test_rate_limiter_only_when_configured(self, config, limited):
        limiter = _bare_app(**config).manager.rate_limiter
        assert (limiter is not None) is limited
        if limited:
            assert (limiter.rate_per_second, limiter.burst) == (5.0, 20)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# the app boundary (no sockets)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def manager(tiny_dataset, tiny_clip):
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    return SessionManager(service)


@pytest.fixture(scope="module")
def app(manager):
    return SeeSawApp(manager)


def handle(app, method, target, body=None, headers=None, client=None):
    """One request through ``app.handle_request`` as ``(status, payload)``.

    A stream is materialized as ``{"stream": [record, ...]}`` and a text
    body as ``{"text": ...}``.
    """
    response = app.handle_request(
        Request(method, target, body, headers or {}, client=client)
    )
    if response.stream is not None:
        return response.status, {"stream": list(response.stream)}
    if response.text is not None:
        return response.status, {"text": response.text}
    return response.status, response.payload


def start_body(batch_size: int = 2) -> bytes:
    return json.dumps(
        {"dataset": "tiny", "text_query": "a cat_easy", "batch_size": batch_size}
    ).encode()


class TestV1AppBoundary:
    def test_capabilities_payload(self, app):
        status, payload = handle(app, "GET", "/v1/capabilities")
        assert status == 200
        assert payload["protocol"] == {
            "version": "v1",
            "revision": PROTOCOL_REVISION,
        }
        assert payload["features"]["idempotent_feedback"] is True
        assert payload["features"]["streaming_ndjson"] is True
        assert payload["features"]["rate_limiting"] is False
        assert payload["features"]["metrics_exposition"] is True
        assert payload["features"]["tracing"] is True
        assert payload["limits"]["max_count"] == MAX_RESULT_COUNT
        assert payload["datasets"] == ["tiny"]

    def test_v1_not_found_uses_structured_envelope(self, app):
        status, payload = handle(app, "GET", "/v1/sessions/no-such-session")
        assert status == 404
        error = payload["error"]
        assert error["code"] == "not_found"
        assert error["retryable"] is False
        assert error["details"]["type"] == "UnknownResourceError"
        assert error["details"]["request_id"]

    @pytest.mark.parametrize("target", ["/sessions/x", "/healthz"])
    def test_unversioned_path_is_the_structured_404(self, app, target):
        status, payload = handle(app, "GET", target)
        assert status == 404
        error = payload["error"]
        assert error["code"] == "not_found"
        assert error["message"] == f"No route for GET {target}"
        assert error["details"]["request_id"]

    def test_nonpositive_count_is_structured_400(self, app):
        status, payload = handle(app, "POST", "/v1/sessions", start_body())
        session_id = payload["session_id"]
        for bad in ("0", "-3"):
            status, payload = handle(
                app, "GET", f"/v1/sessions/{session_id}/next?count={bad}"
            )
            assert status == 400
            assert payload["error"]["code"] == "invalid_request"
            assert "count" in payload["error"]["message"]
        handle(app, "DELETE", f"/v1/sessions/{session_id}")

    def test_absurdly_large_count_is_structured_400(self, app):
        status, payload = handle(app, "POST", "/v1/sessions", start_body())
        session_id = payload["session_id"]
        status, payload = handle(
            app,
            "GET",
            f"/v1/sessions/{session_id}/next?count={MAX_RESULT_COUNT + 1}",
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        handle(app, "DELETE", f"/v1/sessions/{session_id}")

    def test_v1_streaming_materializes_via_handle(self, app):
        status, payload = handle(app, "POST", "/v1/sessions", start_body())
        session_id = payload["session_id"]
        status, payload = handle(
            app, "GET", f"/v1/sessions/{session_id}/next?stream=ndjson"
        )
        assert status == 200
        records = payload["stream"]
        assert records[0]["kind"] == "meta"
        assert records[0]["item_count"] == 2
        assert [r["kind"] for r in records[1:-1]] == ["item", "item"]
        assert records[-1]["kind"] == "end"
        handle(app, "DELETE", f"/v1/sessions/{session_id}")

    def test_rate_limited_app_returns_429_envelope(self, tiny_dataset, tiny_clip):
        service = SeeSawService(
            SeeSawConfig(
                embedding_dim=64, seed=7, rate_limit_rps=1.0, rate_limit_burst=2
            )
        )
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        limited = SeeSawApp(SessionManager(service))
        statuses = [
            handle(limited, "GET", "/v1/healthz", client="c")[0] for _ in range(3)
        ]
        assert statuses[:2] == [200, 200]
        status, payload = handle(limited, "GET", "/v1/healthz", client="c")
        assert status == 429
        assert payload["error"]["code"] == "rate_limited"
        assert payload["error"]["retryable"] is True
        # The limiter runs before routing: an unversioned path is throttled
        # with the same structured envelope, not answered with its 404.
        status, payload = handle(limited, "GET", "/healthz", client="c")
        assert status == 429
        assert payload["error"]["code"] == "rate_limited"

    def test_rate_limited_response_keeps_request_id_and_access_log(
        self, tiny_dataset, tiny_clip, caplog
    ):
        """A rejection before routing must not lose observability: the 429
        still echoes X-Request-Id and still produces an access record."""
        service = SeeSawService(
            SeeSawConfig(
                embedding_dim=64, seed=7, rate_limit_rps=1.0, rate_limit_burst=1
            )
        )
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        limited = SeeSawApp(SessionManager(service))
        from repro.server import Request

        limited.handle_request(Request("GET", "/v1/healthz", client="c"))
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            response = limited.handle_request(
                Request(
                    "GET",
                    "/v1/healthz",
                    headers={"X-Request-Id": "trace-429"},
                    client="c",
                )
            )
        assert response.status == 429
        assert response.headers["X-Request-Id"] == "trace-429"
        assert response.payload["error"]["details"]["request_id"] == "trace-429"
        assert any(record.status == 429 for record in caplog.records)


# ---------------------------------------------------------------------------
# /v1/metrics exposition
# ---------------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_prometheus_text_is_the_default(self, app):
        status, payload = handle(app, "GET", "/v1/healthz")  # generate traffic
        status, payload = handle(app, "GET", "/v1/metrics")
        assert status == 200
        text = payload["text"]
        assert "# TYPE seesaw_requests_total counter" in text
        assert 'route="/v1/healthz"' in text
        assert "seesaw_request_seconds_bucket" in text
        assert "seesaw_active_sessions" in text

    def test_format_json_selects_json_exposition(self, app):
        handle(app, "GET", "/v1/healthz")
        status, payload = handle(app, "GET", "/v1/metrics?format=json")
        assert status == 200
        names = {metric["name"] for metric in payload["metrics"]}
        assert "seesaw_requests_total" in names
        assert "seesaw_request_seconds" in names
        histogram = next(
            metric
            for metric in payload["metrics"]
            if metric["name"] == "seesaw_request_seconds"
        )
        for series in histogram["series"]:
            assert {"labels", "count", "sum", "buckets", "p50", "p99", "p999"} <= set(
                series
            )

    def test_accept_header_selects_json(self, app):
        status, payload = handle(
            app, "GET", "/v1/metrics", headers={"Accept": "application/json"}
        )
        assert status == 200
        assert "metrics" in payload

    def test_format_prometheus_forces_text_despite_accept(self, app):
        status, payload = handle(
            app,
            "GET",
            "/v1/metrics?format=prometheus",
            headers={"Accept": "application/json"},
        )
        assert status == 200
        assert "text" in payload

    def test_unknown_format_is_structured_400(self, app):
        status, payload = handle(app, "GET", "/v1/metrics?format=xml")
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "format" in payload["error"]["message"]

    def test_session_traffic_populates_stage_spans(self, app):
        status, payload = handle(app, "POST", "/v1/sessions", start_body())
        session_id = payload["session_id"]
        handle(app, "GET", f"/v1/sessions/{session_id}/next")
        handle(app, "DELETE", f"/v1/sessions/{session_id}")
        _, payload = handle(app, "GET", "/v1/metrics")
        text = payload["text"]
        assert 'seesaw_stage_seconds_bucket{stage="score"' in text
        assert 'seesaw_stage_seconds_count{stage="select"}' in text
        assert 'seesaw_stage_seconds_count{stage="lock_wait"}' in text


# ---------------------------------------------------------------------------
# rejection/handled record parity (one record shape for every outcome)
# ---------------------------------------------------------------------------
class TestRejectionRecordParity:
    RECORD_FIELDS = ("request_id", "client", "status", "duration_ms", "route", "stage")

    def test_429_record_matches_handled_record_shape(
        self, tiny_dataset, tiny_clip, caplog
    ):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        service = SeeSawService(
            SeeSawConfig(
                embedding_dim=64, seed=7, rate_limit_rps=1.0, rate_limit_burst=1
            ),
            registry=registry,
        )
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        limited = SeeSawApp(SessionManager(service))
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            limited.handle_request(Request("GET", "/v1/healthz", client="c"))
            limited.handle_request(Request("GET", "/v1/healthz", client="c"))
        handled, rejected = caplog.records
        # Same complete field set on both paths — no partial records.
        for record in (handled, rejected):
            for field in self.RECORD_FIELDS:
                assert hasattr(record, field), f"missing {field}"
            assert record.route == "/v1/healthz"
            assert record.client == "c"
            assert record.request_id
            assert record.duration_ms >= 0.0
        assert (handled.status, handled.stage) == (200, "handler")
        assert (rejected.status, rejected.stage) == (429, "middleware")
        # Both outcomes counted in the registry, the rejection twice over.
        requests = registry.get("seesaw_requests_total")
        assert requests.labels("GET", "/v1/healthz", "200").value == 1.0
        assert requests.labels("GET", "/v1/healthz", "429").value == 1.0
        assert registry.get("seesaw_rejections_total").labels("429").value == 1.0
        # The latency histogram saw both requests too.
        latency = registry.get("seesaw_request_seconds")
        assert latency.labels("/v1/healthz").count == 2


class Outcome(NamedTuple):
    method: str
    target: str
    body: "bytes | None"
    headers: "dict[str, str]"
    status: int
    code: "str | None"
    retry_after: "str | None"
    stage: str


OUTCOMES = {
    "ok": Outcome("GET", "/v1/sessions", None, {}, 200, None, None, "handler"),
    "no_route": Outcome("GET", "/v1/nowhere", None, {}, 404, "not_found", None, "handler"),
    "malformed_body": Outcome(
        "POST", "/v1/sessions", b"{not json", {}, 400, "invalid_request", None, "handler"
    ),
    "malformed_deadline": Outcome(
        "GET", "/v1/sessions", None, {"X-Deadline-Ms": "soon"},
        400, "invalid_request", None, "middleware",
    ),
    "dead_on_arrival": Outcome(
        "GET", "/v1/sessions", None, {"X-Deadline-Ms": "-5"},
        504, "deadline_exceeded", None, "middleware",
    ),
    "rate_limited": Outcome(
        "GET", "/v1/sessions", None, {}, 429, "rate_limited", "1", "middleware"
    ),
    "shed": Outcome("GET", "/v1/sessions", None, {}, 503, "overloaded", "1", "middleware"),
    "draining_start": Outcome(
        "POST", "/v1/sessions", start_body(), {}, 503, "overloaded", "10", "handler"
    ),
}
"""Every way a request can finish, with what the client sees and the stage
its access record names: ``"middleware"`` for a rejection before routing."""


def _series_total(registry: MetricsRegistry, name: str) -> float:
    for metric in registry.to_json()["metrics"]:
        if metric["name"] == name:
            return sum(series["value"] for series in metric["series"])
    return 0.0


class TestOneAccessRecordPerOutcome:
    FIELDS = ("request_id", "client", "status", "duration_ms", "route", "stage")

    @pytest.mark.parametrize("transport", ["inprocess", "http"])
    @pytest.mark.parametrize("name", OUTCOMES)
    def test_outcome(self, name, transport, caplog):
        case = OUTCOMES[name]
        app = _bare_app(rate_limit_rps=1.0, rate_limit_burst=1, max_in_flight=1)
        manager = app.manager
        manager.rate_limiter = RateLimiter(rate_per_second=1.0, burst=1, clock=FakeClock())
        registry = manager.service.metrics
        headers = {**case.headers, "X-Client-Id": "grid", "X-Request-Id": f"rid-{name}"}

        with serve_in_background(app) as server:

            def send(request_headers):
                if transport == "inprocess":
                    response = app.handle_request(
                        Request(case.method, case.target, case.body, request_headers)
                    )
                    return response.status, response.headers, response.body()
                address = urlsplit(server.url)
                connection = http.client.HTTPConnection(address.hostname, address.port)
                try:
                    connection.request(case.method, case.target, case.body, request_headers)
                    reply = connection.getresponse()
                    return reply.status, dict(reply.getheaders()), reply.read()
                finally:
                    connection.close()

            if name == "rate_limited":
                send({**headers, "X-Request-Id": "spends-the-token"})
            elif name == "shed":
                manager.admit()  # another request holds the one slot
            elif name == "draining_start":
                manager.begin_drain()
            requests = _series_total(registry, "seesaw_requests_total")
            rejections = _series_total(registry, "seesaw_rejections_total")
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="repro.server.access"):
                status, reply_headers, body = send(headers)

        reply_headers = {key.lower(): value for key, value in reply_headers.items()}
        assert status == case.status
        code = json.loads(body)["error"]["code"] if status >= 400 else None
        assert code == case.code
        assert reply_headers.get("retry-after") == case.retry_after
        assert reply_headers["x-request-id"] == f"rid-{name}"
        [record] = caplog.records
        for field in self.FIELDS:
            assert hasattr(record, field), f"missing {field}"
        assert (record.request_id, record.client, record.status) == (f"rid-{name}", "grid", status)
        assert record.route == Request(case.method, case.target).route
        assert record.duration_ms >= 0.0
        assert record.stage == case.stage
        assert _series_total(registry, "seesaw_requests_total") == requests + 1
        rejected = case.stage == "middleware"
        assert _series_total(registry, "seesaw_rejections_total") == rejections + rejected


# ---------------------------------------------------------------------------
# idempotent feedback (manager level)
# ---------------------------------------------------------------------------
@pytest.fixture()
def own_manager(tiny_dataset, tiny_clip):
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    return SessionManager(service)


def _start_and_fetch(manager, batch_size=2):
    info = manager.start_session(
        StartSessionRequest(dataset="tiny", text_query="a cat_easy", batch_size=batch_size)
    )
    batch = manager.next_results(info.session_id)
    return info, batch


class TestIdempotentFeedback:
    def test_replay_returns_same_info_without_double_apply(self, own_manager):
        info, batch = _start_and_fetch(own_manager)
        request = FeedbackRequest(
            session_id=info.session_id,
            image_id=batch.items[0].image_id,
            relevant=True,
        )
        first = own_manager.give_feedback(request, idempotency_key="key-1")
        replay = own_manager.give_feedback(request, idempotency_key="key-1")
        assert replay == first
        # Applied once: exactly one positive recorded, not two.
        assert own_manager.session_info(info.session_id).positives_found == 1

    def test_same_key_different_payload_conflicts(self, own_manager):
        info, batch = _start_and_fetch(own_manager)
        first = FeedbackRequest(
            session_id=info.session_id, image_id=batch.items[0].image_id, relevant=True
        )
        own_manager.give_feedback(first, idempotency_key="key-1")
        different = FeedbackRequest(
            session_id=info.session_id, image_id=batch.items[1].image_id, relevant=False
        )
        with pytest.raises(IdempotencyConflictError, match="key-1"):
            own_manager.give_feedback(different, idempotency_key="key-1")

    def test_no_key_never_records(self, own_manager):
        info, batch = _start_and_fetch(own_manager)
        request = FeedbackRequest(
            session_id=info.session_id, image_id=batch.items[0].image_id, relevant=False
        )
        own_manager.give_feedback(request)
        with pytest.raises(SessionError, match="not awaiting feedback"):
            own_manager.give_feedback(request)

    def test_key_store_is_bounded_fifo(self, own_manager):
        info, batch = _start_and_fetch(own_manager, batch_size=1)
        request = FeedbackRequest(
            session_id=info.session_id, image_id=batch.items[0].image_id, relevant=False
        )
        own_manager.give_feedback(request, idempotency_key="key-0")
        cache = own_manager._idempotency[info.session_id]
        record = cache["key-0"]
        # Simulate a long retry history: the cache caps and evicts FIFO.
        for index in range(1, IDEMPOTENCY_KEYS_PER_SESSION + 10):
            cache[f"key-{index}"] = record
            while len(cache) > IDEMPOTENCY_KEYS_PER_SESSION:
                cache.popitem(last=False)
        assert len(cache) == IDEMPOTENCY_KEYS_PER_SESSION
        assert "key-0" not in cache

    def test_records_released_on_close(self, own_manager):
        info, batch = _start_and_fetch(own_manager)
        request = FeedbackRequest(
            session_id=info.session_id, image_id=batch.items[0].image_id, relevant=False
        )
        own_manager.give_feedback(request, idempotency_key="key-1")
        assert info.session_id in own_manager._idempotency
        own_manager.close_session(info.session_id)
        assert info.session_id not in own_manager._idempotency
        assert info.session_id not in own_manager._created_seq


# ---------------------------------------------------------------------------
# paged session listing (manager level)
# ---------------------------------------------------------------------------
class TestSessionListing:
    def _start_many(self, manager, count):
        return [
            manager.start_session(
                StartSessionRequest(
                    dataset="tiny", text_query="a cat_easy", batch_size=1
                )
            ).session_id
            for _ in range(count)
        ]

    def test_pages_walk_in_creation_order(self, own_manager):
        ids = self._start_many(own_manager, 7)
        seen: list[str] = []
        cursor = None
        pages = 0
        while True:
            page = own_manager.list_sessions(cursor=cursor, limit=3)
            seen.extend(entry.session_id for entry in page.sessions)
            pages += 1
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert seen == ids
        assert pages == 3

    def test_cursor_survives_deletion_at_the_boundary(self, own_manager):
        ids = self._start_many(own_manager, 5)
        page = own_manager.list_sessions(limit=2)
        assert [e.session_id for e in page.sessions] == ids[:2]
        # Delete the session the cursor points at, and one after it.
        own_manager.close_session(ids[1])
        own_manager.close_session(ids[2])
        rest = own_manager.list_sessions(cursor=page.next_cursor, limit=10)
        assert [e.session_id for e in rest.sessions] == ids[3:]
        assert rest.next_cursor is None

    def test_entries_carry_telemetry(self, own_manager):
        info, batch = _start_and_fetch(own_manager)
        for item in batch.items:
            own_manager.give_feedback(
                FeedbackRequest(
                    session_id=info.session_id, image_id=item.image_id, relevant=False
                )
            )
        [entry] = own_manager.list_sessions().sessions
        assert entry.session_id == info.session_id
        assert entry.rounds == 1
        assert entry.telemetry.idle_seconds >= 0.0
        assert entry.telemetry.lookup_seconds > 0.0
        assert entry.telemetry.update_seconds > 0.0

    def test_bad_limit_rejected(self, own_manager):
        with pytest.raises(TransportError, match="limit"):
            own_manager.list_sessions(limit=0)
        with pytest.raises(TransportError, match="limit"):
            own_manager.list_sessions(limit=10_000)

    def test_bad_cursor_rejected(self, own_manager):
        with pytest.raises(TransportError, match="cursor"):
            own_manager.list_sessions(cursor="garbage!")


# ---------------------------------------------------------------------------
# HTTP client stream robustness (no sockets: _stream is substituted)
# ---------------------------------------------------------------------------
class TestStreamTruncation:
    def _client_with_records(self, records):
        from repro.server import HTTPClient

        client = HTTPClient("http://example.invalid")
        client._stream = lambda path: iter(records)
        return client

    def test_missing_end_record_is_a_typed_error(self):
        client = self._client_with_records(
            [
                {"kind": "meta", "item_count": 2},
                {
                    "kind": "item",
                    "item": {
                        "image_id": 1,
                        "score": 0.5,
                        "box": {"x": 0.0, "y": 0.0, "width": 1.0, "height": 1.0},
                    },
                },
                # connection died here: no "end" record
            ]
        )
        items = []
        with pytest.raises(TransportError, match="truncated"):
            for item in client.stream_next_results("session-1"):
                items.append(item)
        assert len(items) == 1  # partial items were delivered before the error

    def test_complete_stream_passes(self):
        client = self._client_with_records(
            [
                {"kind": "meta", "item_count": 1},
                {
                    "kind": "item",
                    "item": {
                        "image_id": 7,
                        "score": 0.9,
                        "box": {"x": 0.0, "y": 0.0, "width": 1.0, "height": 1.0},
                    },
                },
                {"kind": "end"},
            ]
        )
        [item] = list(client.stream_next_results("session-1"))
        assert item.image_id == 7
