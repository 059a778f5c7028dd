"""The chaos harness (``tests/chaos.py``): plan, decider, and both injectors.

Determinism is the load-bearing property — a chaos run that cannot be
replayed is a flake generator, not a test — so the decider assertions pin
the decision stream to ``(seed, opportunity-index)`` exactly.  The injector
tests drive a fake transport / handler and a fake clock, so every fault
family is exercised without sockets or sleeps.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import (
    ConfigurationError,
    ConnectionFailedError,
    DeadlineExceededError,
    InternalServiceError,
    TransportError,
)
from repro.obs import MetricsRegistry
from repro.server.api import BoxPayload, FeedbackRequest, ResultItem, resolve
from repro.server import SeeSawService, SessionManager
from repro.server.client import SeeSawClientProtocol
from repro.server.codec import encode
from repro.server.deadlines import check_deadline, current_deadline
from repro.server.retry import RetryPolicy
from repro.server.middleware import Request, Response

from chaos import (
    KIND_ERROR,
    KIND_NONE,
    KIND_RESET,
    KIND_SKEW,
    KIND_TRUNCATE,
    ChaosApp,
    FaultDecider,
    FaultPlan,
    FaultyClient,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"error_probability": 1.5}, "error_probability"),
            ({"reset_probability": -0.1}, "reset_probability"),
            ({"latency_ms": -1.0}, "latency_ms"),
            ({"window_start_seconds": -1.0}, "window_start_seconds"),
            (
                {"window_start_seconds": 2.0, "window_stop_seconds": 1.0},
                "window_stop_seconds",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan(**kwargs)


# ----------------------------------------------------------------------
# the decider
# ----------------------------------------------------------------------
class TestFaultDecider:
    def test_decision_stream_is_deterministic_in_seed_and_index(self):
        plan = FaultPlan(
            seed=42,
            error_probability=0.3,
            reset_probability=0.2,
            latency_ms=10.0,
            latency_probability=0.4,
        )
        first = [FaultDecider(plan, clock=FakeClock()).decide() for _ in range(1)]
        a = FaultDecider(plan, clock=FakeClock())
        b = FaultDecider(plan, clock=FakeClock())
        stream_a = [a.decide() for _ in range(64)]
        stream_b = [b.decide() for _ in range(64)]
        assert stream_a == stream_b
        assert stream_a[0] == first[0]
        assert any(outcome.injects for outcome in stream_a)

    def test_different_seed_different_stream(self):
        kinds = {}
        for seed in (1, 2):
            decider = FaultDecider(
                FaultPlan(seed=seed, error_probability=0.5), clock=FakeClock()
            )
            kinds[seed] = [decider.decide().kind for _ in range(64)]
        assert kinds[1] != kinds[2]

    def test_window_gates_faults(self):
        clock = FakeClock()
        plan = FaultPlan(
            seed=3,
            error_probability=1.0,
            window_start_seconds=1.0,
            window_stop_seconds=2.0,
        )
        decider = FaultDecider(plan, clock=clock)
        assert decider.decide().kind == KIND_NONE  # before the window
        clock.advance(1.5)
        assert decider.in_window()
        assert decider.decide().kind == KIND_ERROR
        clock.advance(1.0)
        assert not decider.in_window()
        assert decider.decide().kind == KIND_NONE  # after the window

    def test_arm_restarts_window_and_counter(self):
        clock = FakeClock()
        plan = FaultPlan(seed=3, error_probability=1.0, window_stop_seconds=1.0)
        decider = FaultDecider(plan, clock=clock)
        first = decider.decide()
        assert first.index == 0 and first.kind == KIND_ERROR
        clock.advance(2.0)
        assert decider.decide().kind == KIND_NONE  # window closed
        decider.arm()
        rearmed = decider.decide()
        assert rearmed.index == 0 and rearmed.kind == KIND_ERROR

    def test_priority_order_one_kind_per_opportunity(self):
        # All probabilities 1.0: the priority chain must always pick skew.
        plan = FaultPlan(
            seed=9,
            error_probability=1.0,
            reset_probability=1.0,
            truncate_probability=1.0,
            skew_probability=1.0,
        )
        decider = FaultDecider(plan, clock=FakeClock())
        assert all(decider.decide().kind == KIND_SKEW for _ in range(16))


# ----------------------------------------------------------------------
# server-side injector
# ----------------------------------------------------------------------
def _plan_only(kind: str, **extra) -> FaultPlan:
    field = {
        KIND_ERROR: "error_probability",
        KIND_RESET: "reset_probability",
        KIND_TRUNCATE: "truncate_probability",
        KIND_SKEW: "skew_probability",
    }[kind]
    return FaultPlan(seed=5, **{field: 1.0}, **extra)


def _chaos_app(plan: FaultPlan, **kwargs) -> ChaosApp:
    service = SeeSawService(SeeSawConfig(), registry=MetricsRegistry())
    return ChaosApp(SessionManager(service), plan, **kwargs)


def _get(app: ChaosApp, target: str = "/v1/sessions") -> Response:
    return app.handle_request(Request(method="GET", target=target))


class TestChaosApp:
    def test_error_kind_answers_the_typed_500_from_the_handler_stage(self, caplog):
        app = _chaos_app(_plan_only(KIND_ERROR))
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            response = _get(app)
        assert response.status == 500
        assert response.payload["error"]["code"] == "internal"
        assert "chaos" in response.payload["error"]["message"]
        [record] = caplog.records
        assert record.stage == "handler"
        counter = app.manager.service.metrics.counter(
            "seesaw_faults_injected_total", "", labels=("kind",)
        )
        assert counter.labels("error").value == 1.0

    def test_latency_sleeps_before_routing(self):
        sleeps: "list[float]" = []
        plan = FaultPlan(seed=5, latency_ms=70.0, latency_probability=1.0)
        response = _get(_chaos_app(plan, sleep=sleeps.append))
        assert response.status == 200
        assert sleeps == [pytest.approx(0.07)]

    def test_connection_level_kinds_are_not_the_servers_to_fake(self):
        assert _get(_chaos_app(_plan_only(KIND_RESET))).status == 200

    @pytest.mark.parametrize("target", ["/v1/healthz", "/v1/metrics", "/v1/capabilities"])
    def test_probe_routes_exempt(self, target):
        assert _get(_chaos_app(_plan_only(KIND_ERROR)), target).status == 200

    def test_window_respected(self):
        clock = FakeClock()
        app = _chaos_app(_plan_only(KIND_ERROR, window_start_seconds=1.0), clock=clock)
        assert _get(app).status == 200
        clock.advance(1.5)
        assert _get(app).status == 500


# ----------------------------------------------------------------------
# client-side injector
# ----------------------------------------------------------------------
class FakeTransport(SeeSawClientProtocol):
    """A transport stub that answers every route and honours the deadline
    contextvar like the manager; ``calls`` records each row's label."""

    REPLIES = {
        "healthz": {"state": "serving"},
        "capabilities": {"features": {}},
        "metrics": {"metrics": []},
        "next": {"session_id": "s1", "items": [], "total_shown": 0, "positives_found": 0},
        "close_session": {"closed": "s1"},
        "list_sessions": {"sessions": []},
    }
    INFO = {
        "session_id": "s1",
        "dataset": "tiny",
        "text_query": "q",
        "total_shown": 0,
        "positives_found": 0,
        "rounds": 0,
    }

    def __init__(self) -> None:
        self.calls: "list[str]" = []

    def _exchange(self, method, path, body=None, headers=None) -> bytes:
        _, route, _ = resolve(method, path.partition("?")[0])
        if not route.probe:
            check_deadline(route.label)
        self.calls.append(route.label)
        return json.dumps(self.REPLIES.get(route.label, self.INFO)).encode()

    def _stream(self, path):
        check_deadline("stream")
        self.calls.append("stream")
        yield {"kind": "meta"}
        for i in range(3):
            item = ResultItem(image_id=i, score=0.5, box=BoxPayload(0, 0, 1, 1))
            yield {"kind": "item", "item": encode(item)}
        yield {"kind": "end"}


def _faulty(kind: "str | None", **plan_extra) -> "tuple[FaultyClient, FakeTransport]":
    inner = FakeTransport()
    plan = (
        _plan_only(kind, **plan_extra)
        if kind is not None
        else FaultPlan(seed=5, **plan_extra)
    )
    return (
        FaultyClient(inner, plan, registry=MetricsRegistry(), sleep=lambda s: None),
        inner,
    )


class TestFaultyClient:
    def test_error_kind_raises_without_touching_inner(self):
        client, inner = _faulty(KIND_ERROR)
        with pytest.raises(InternalServiceError, match="chaos"):
            client.next_results("s1")
        assert inner.calls == []

    def test_reset_kind_alternates_request_sent_by_index(self):
        client, inner = _faulty(KIND_RESET)
        sent: "list[bool]" = []
        for _ in range(4):
            with pytest.raises(ConnectionFailedError) as excinfo:
                client.next_results("s1")
            sent.append(excinfo.value.request_sent)
        assert sent == [False, True, False, True]
        assert inner.calls == []

    def test_truncate_on_unary_call_is_a_mid_read_reset(self):
        client, inner = _faulty(KIND_TRUNCATE)
        with pytest.raises(ConnectionFailedError) as excinfo:
            client.session_info("s1")
        assert excinfo.value.request_sent is True
        assert inner.calls == []

    def test_truncate_on_stream_yields_prefix_then_typed_error(self):
        client, inner = _faulty(KIND_TRUNCATE)
        items = []
        with pytest.raises(TransportError, match="truncated response"):
            for item in client.stream_next_results("s1"):
                items.append(item)
        assert len(items) == 2  # strict prefix of the 3-item batch
        assert inner.calls == ["stream"]

    def test_skew_runs_the_call_under_an_expired_deadline(self):
        client, inner = _faulty(KIND_SKEW)
        with pytest.raises(DeadlineExceededError):
            client.next_results("s1")
        assert inner.calls == []  # FakeTransport's check fired before recording
        assert current_deadline() is None  # the scope did not leak

    def test_latency_decorates_without_failing(self):
        sleeps: "list[float]" = []
        inner = FakeTransport()
        plan = FaultPlan(seed=5, latency_ms=30.0, latency_probability=1.0)
        client = FaultyClient(
            inner, plan, registry=MetricsRegistry(), sleep=sleeps.append
        )
        client.next_results("s1")
        assert sleeps == [pytest.approx(0.03)]
        assert inner.calls == ["next"]

    def test_probe_surfaces_never_perturbed(self):
        client, inner = _faulty(KIND_ERROR)
        assert client.healthz() == {"state": "serving"}
        assert client.metrics_json() == {"metrics": []}
        assert client.capabilities() == {"features": {}}
        assert client.metrics_text() == '{"metrics": []}'
        assert inner.calls == ["healthz", "metrics", "capabilities", "metrics"]

    def test_no_faults_is_a_clean_passthrough(self):
        client, inner = _faulty(None)
        client.next_results("s1")
        client.give_feedback(FeedbackRequest(session_id="s1", image_id=1, relevant=True))
        assert inner.calls == ["next", "feedback"]

    def test_injections_counted_by_kind(self):
        registry = MetricsRegistry()
        inner = FakeTransport()
        client = FaultyClient(
            inner, _plan_only(KIND_ERROR), registry=registry, sleep=lambda s: None
        )
        for _ in range(3):
            with pytest.raises(InternalServiceError):
                client.next_results("s1")
        counter = registry.counter(
            "seesaw_faults_injected_total", "", labels=("kind",)
        )
        assert counter.labels("error").value == 3.0

    def test_the_inner_retry_policy_absorbs_a_pre_send_reset(self):
        clock, registry = FakeClock(), MetricsRegistry()
        inner = FakeTransport()
        inner.retry_policy = RetryPolicy(
            sleep=lambda seconds: clock.advance(1.0), registry=registry
        )
        plan = _plan_only(KIND_RESET, window_stop_seconds=0.5)
        client = FaultyClient(inner, plan, clock=clock, registry=registry)
        assert client.session_info("s1").session_id == "s1"
        assert inner.calls == ["session_info"]  # the second attempt, outside the window
        faults = registry.counter("seesaw_faults_injected_total", "", labels=("kind",))
        retries = registry.counter(
            "seesaw_retries_total", "", labels=("operation", "error")
        )
        assert faults.labels("reset").value == 1.0
        assert retries.labels("session_info", "ConnectionFailedError").value == 1.0

    def test_a_mid_flight_reset_of_a_non_idempotent_call_is_not_retried(self):
        clock, registry = FakeClock(), MetricsRegistry()
        inner = FakeTransport()
        inner.retry_policy = RetryPolicy(sleep=lambda seconds: None, registry=registry)
        plan = _plan_only(KIND_RESET, window_start_seconds=1.0)
        client = FaultyClient(inner, plan, clock=clock, registry=registry)
        client.next_results("s1")  # opportunity 0, before the window
        clock.advance(1.0)
        with pytest.raises(ConnectionFailedError) as excinfo:
            client.next_results("s1")  # opportunity 1: after sending
        assert excinfo.value.request_sent is True
        assert inner.calls == ["next"]

