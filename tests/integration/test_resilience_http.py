"""The resilience layer over a real socket.

What only real HTTP shows: the ``X-Deadline-Ms`` header crossing the wire
into a typed 504 envelope, ``Retry-After`` on 429/503 responses, the
client-side retry policy absorbing live rejections, admission-control
shedding while a request genuinely occupies a server thread, the drain
lifecycle flipping ``/healthz`` mid-flight, and a server-side fault plan's
typed 500s (``tests/chaos.py``'s ``ChaosMiddleware``, mounted through the
app's ``middlewares=`` seam).  The client-side chaos run over a real socket is
``test_scripted_load.py::test_chaos_window_is_typed_and_every_call_outside_it_succeeds``.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import (
    DeadlineExceededError,
    InternalServiceError,
    RateLimitedError,
    ServiceOverloadedError,
)
from repro.obs import MetricsRegistry
from repro.server import (
    HTTPClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    default_middlewares,
    serve_in_background,
)
from repro.server.deadlines import DEADLINE_HEADER, Deadline, deadline_scope
from repro.server.retry import RetryPolicy

from chaos import ChaosMiddleware, FaultPlan

QUERY = "a cat_easy"


def _service(tiny_dataset, tiny_clip, **config_kwargs) -> SeeSawService:
    service = SeeSawService(
        SeeSawConfig(embedding_dim=64, seed=7, **config_kwargs),
        registry=MetricsRegistry(),
    )
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    return service


def _start(client: HTTPClient, batch_size: int = 2):
    return client.start_session(
        StartSessionRequest(dataset="tiny", text_query=QUERY, batch_size=batch_size)
    )


@pytest.fixture(scope="module")
def plain_server(tiny_dataset, tiny_clip):
    service = _service(tiny_dataset, tiny_clip)
    with serve_in_background(SeeSawApp(SessionManager(service))) as server:
        yield server


class TestDeadlineOverHTTP:
    def test_expired_header_is_the_typed_504(self, plain_server):
        client = HTTPClient(plain_server.url, client_id="deadline-dead")
        info = _start(client)
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(DeadlineExceededError, match="routing"):
                client.next_results(info.session_id)

    def test_504_envelope_shape_on_the_wire(self, plain_server):
        request = urllib.request.Request(
            f"{plain_server.url}/v1/sessions",
            headers={DEADLINE_HEADER: "-10"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 504
        import json

        envelope = json.loads(excinfo.value.read())["error"]
        assert envelope["code"] == "deadline_exceeded"
        assert envelope["retryable"] is False

    def test_generous_budget_flows_through_untouched(self, plain_server):
        client = HTTPClient(plain_server.url, client_id="deadline-live")
        info = _start(client)
        with deadline_scope(Deadline(30_000.0)):
            response = client.next_results(info.session_id)
        assert len(response.items) == 2

    def test_malformed_header_is_a_400(self, plain_server):
        request = urllib.request.Request(
            f"{plain_server.url}/v1/sessions",
            headers={DEADLINE_HEADER: "whenever"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    def test_deadline_exceeded_counter_moves(self, plain_server):
        client = HTTPClient(plain_server.url, client_id="deadline-count")
        metrics = client.metrics_json()

        def total(payload) -> float:
            for metric in payload["metrics"]:
                if metric["name"] == "seesaw_deadline_exceeded_total":
                    return sum(s["value"] for s in metric["series"])
            return 0.0

        before = total(metrics)
        info = _start(client)
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(DeadlineExceededError):
                client.next_results(info.session_id)
        assert total(client.metrics_json()) == before + 1


class TestRetryAfterOnTheWire:
    def test_rate_limited_429_carries_retry_after(self, tiny_dataset, tiny_clip):
        service = _service(
            tiny_dataset, tiny_clip, rate_limit_rps=1.0, rate_limit_burst=1
        )
        with serve_in_background(SeeSawApp(SessionManager(service))) as server:
            # Exhaust the single-token bucket, then read the raw response.
            urllib.request.urlopen(
                f"{server.url}/v1/capabilities", timeout=30.0
            ).read()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    urllib.request.Request(f"{server.url}/v1/sessions"),
                    timeout=30.0,
                )
            assert excinfo.value.code == 429
            retry_after = excinfo.value.headers.get("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1

    def test_client_surfaces_the_hint_on_the_typed_error(
        self, tiny_dataset, tiny_clip
    ):
        service = _service(
            tiny_dataset, tiny_clip, rate_limit_rps=1.0, rate_limit_burst=1
        )
        with serve_in_background(SeeSawApp(SessionManager(service))) as server:
            client = HTTPClient(server.url, client_id="hint-reader")
            client.capabilities()
            with pytest.raises(RateLimitedError) as excinfo:
                client.list_sessions()
            assert excinfo.value.retry_after_seconds is not None
            assert excinfo.value.retry_after_seconds > 0


class TestRetryPolicyOverHTTP:
    def test_retry_absorbs_a_429_and_succeeds(self, tiny_dataset, tiny_clip):
        service = _service(
            tiny_dataset, tiny_clip, rate_limit_rps=50.0, rate_limit_burst=1
        )
        registry = MetricsRegistry()
        policy = RetryPolicy(
            max_attempts=4, base_ms=30.0, max_ms=120.0, registry=registry
        )
        with serve_in_background(SeeSawApp(SessionManager(service))) as server:
            client = HTTPClient(
                server.url, client_id="retrier", retry_policy=policy
            )
            # Back-to-back calls against a one-token bucket refilled at
            # 50/s: most calls 429 first, and the policy's backoff (floored
            # by the limiter's ~20ms refill hint) absorbs every one.
            for _ in range(3):
                page = client.list_sessions()
                assert list(page.sessions) == []
        counter = registry.counter(
            "seesaw_retries_total", "", labels=("operation", "error")
        )
        assert counter.labels("list_sessions", "RateLimitedError").value >= 1.0


class TestAdmissionControlOverHTTP:
    def test_sheds_503_with_retry_after_while_slot_is_held(
        self, tiny_dataset, tiny_clip, monkeypatch
    ):
        service = _service(tiny_dataset, tiny_clip, max_in_flight=1)
        manager = SessionManager(service)
        entered = threading.Event()
        release = threading.Event()
        original = type(service).next_results

        def slow_next(self, session_id, count=None):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(self, session_id, count)

        monkeypatch.setattr(type(service), "next_results", slow_next)
        with serve_in_background(SeeSawApp(manager)) as server:
            client = HTTPClient(server.url, client_id="shed-victim")
            info = _start(client)
            holder = threading.Thread(
                target=lambda: HTTPClient(server.url).next_results(info.session_id)
            )
            holder.start()
            assert entered.wait(timeout=10.0)
            try:
                # The slot is genuinely occupied by a server thread: the
                # next request must shed at the door with the typed 503.
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    client.session_info(info.session_id)
                assert excinfo.value.retry_after_seconds is not None
                # Probes stay exempt even while shedding.
                health = client.healthz()
                assert health["in_flight"] >= 1
            finally:
                release.set()
                holder.join(timeout=10.0)

    def test_raw_503_response_carries_retry_after_header(
        self, tiny_dataset, tiny_clip, monkeypatch
    ):
        service = _service(tiny_dataset, tiny_clip, max_in_flight=1)
        manager = SessionManager(service)
        entered = threading.Event()
        release = threading.Event()
        original = type(service).next_results

        def slow_next(self, session_id, count=None):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(self, session_id, count)

        monkeypatch.setattr(type(service), "next_results", slow_next)
        with serve_in_background(SeeSawApp(manager)) as server:
            client = HTTPClient(server.url, client_id="shed-raw")
            info = _start(client)
            holder = threading.Thread(
                target=lambda: HTTPClient(server.url).next_results(info.session_id)
            )
            holder.start()
            assert entered.wait(timeout=10.0)
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{server.url}/v1/sessions/{info.session_id}",
                        timeout=30.0,
                    )
                assert excinfo.value.code == 503
                assert int(excinfo.value.headers["Retry-After"]) >= 1
            finally:
                release.set()
                holder.join(timeout=10.0)


class TestHealthAndDrain:
    def test_healthz_reports_state_uptime_and_in_flight(self, plain_server):
        client = HTTPClient(plain_server.url, client_id="health-reader")
        health = client.healthz()
        assert health["state"] == "serving"
        assert health["uptime_seconds"] >= 0.0
        assert health["in_flight"] >= 0

    def test_drain_flips_health_rejects_sessions_finishes_inflight(
        self, tiny_dataset, tiny_clip, monkeypatch
    ):
        service = _service(tiny_dataset, tiny_clip, drain_timeout_s=5.0)
        manager = SessionManager(service)
        entered = threading.Event()
        release = threading.Event()
        original = type(service).next_results

        def slow_next(self, session_id, count=None):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(self, session_id, count)

        monkeypatch.setattr(type(service), "next_results", slow_next)
        server = serve_in_background(SeeSawApp(manager)).start()
        client = HTTPClient(server.url, client_id="drain-test")
        info = _start(client)
        outcome: "list[object]" = []
        inflight = threading.Thread(
            target=lambda: outcome.append(
                HTTPClient(server.url).next_results(info.session_id)
            )
        )
        inflight.start()
        assert entered.wait(timeout=10.0)
        manager.begin_drain()
        # New sessions are refused with the typed 503 + retry hint...
        with pytest.raises(ServiceOverloadedError) as excinfo:
            _start(client)
        assert excinfo.value.retry_after_seconds == pytest.approx(5.0)
        # ...the health probe says draining...
        health = client.healthz()
        assert health["state"] == "draining"
        # ...and the in-flight round is allowed to finish before stop.
        release.set()
        drained = server.drain(timeout_s=5.0)
        inflight.join(timeout=10.0)
        assert drained is True
        assert outcome and len(outcome[0].items) == 2

    def test_capabilities_announce_the_resilience_surface(self, plain_server):
        client = HTTPClient(plain_server.url, client_id="caps-reader")
        capabilities = client.capabilities()
        features = capabilities["features"]
        assert features["deadline_propagation"] is True
        assert features["graceful_drain"] is True
        assert features["retry_hints"] is True
        assert capabilities["protocol"]["revision"] >= 3
        assert "drain_timeout_s" in capabilities["limits"]


@pytest.fixture()
def chaos_server(tiny_dataset, tiny_clip):
    """A server whose pipeline ends in an always-failing ChaosMiddleware,
    mounted through the app's ``middlewares=`` seam."""
    manager = SessionManager(_service(tiny_dataset, tiny_clip))
    chaos = ChaosMiddleware(
        FaultPlan(seed=21, error_probability=1.0), registry=manager.service.metrics
    )
    app = SeeSawApp(manager, middlewares=[*default_middlewares(manager), chaos])
    with serve_in_background(app) as server:
        yield server


class TestChaosOverHTTP:
    def test_server_side_fault_plan_injects_typed_500s(self, chaos_server):
        client = HTTPClient(chaos_server.url, client_id="chaos-500")
        with pytest.raises(InternalServiceError, match="chaos"):
            _start(client)
        # Probes stay exempt from chaos.
        assert client.healthz()["state"] == "serving"

    def test_injections_show_on_the_servers_own_metrics(self, chaos_server):
        client = HTTPClient(chaos_server.url, client_id="chaos-count")
        for _ in range(2):
            with pytest.raises(InternalServiceError):
                _start(client)
        assert 'seesaw_faults_injected_total{kind="error"} 2' in client.metrics_text()
