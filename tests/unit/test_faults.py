"""The fault-injection subsystem: plan, decider, and both injectors.

Determinism is the load-bearing property — a chaos run that cannot be
replayed is a flake generator, not a test — so the decider assertions pin
the decision stream to ``(seed, opportunity-index)`` exactly.  The injector
tests drive a fake inner client / handler and a fake clock, so every fault
family is exercised without sockets or sleeps.
"""

from __future__ import annotations

import pytest

from repro.bench.scenarios import TailGates, TrafficScenario, get_scenario
from repro.exceptions import (
    ConfigurationError,
    ConnectionFailedError,
    DeadlineExceededError,
    InternalServiceError,
    TransportError,
)
from repro.faults import FaultDecider, FaultPlan
from repro.faults.client import FaultyClient
from repro.faults.inject import (
    KIND_ERROR,
    KIND_NONE,
    KIND_RESET,
    KIND_SKEW,
    KIND_TRUNCATE,
)
from repro.faults.middleware import ChaosMiddleware
from repro.obs import MetricsRegistry
from repro.server.api import (
    BoxPayload,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    StartSessionRequest,
)
from repro.server.deadlines import check_deadline, current_deadline
from repro.server.middleware import Request, Response
from repro.server.protocol import SeeSawClientProtocol


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
    def test_round_trips_through_json(self):
        plan = FaultPlan(
            seed=11,
            latency_ms=40.0,
            latency_probability=0.2,
            error_probability=0.1,
            reset_probability=0.05,
            truncate_probability=0.03,
            skew_probability=0.02,
            window_start_seconds=1.0,
            window_stop_seconds=3.0,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

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

    def test_unknown_key_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="Malformed fault plan"):
            FaultPlan.from_json({"surprise": 1})

    def test_any_faults(self):
        assert not FaultPlan(seed=1, latency_ms=100.0).any_faults
        assert FaultPlan(seed=1, error_probability=0.1).any_faults
        assert FaultPlan(seed=1, latency_ms=10.0, latency_probability=0.5).any_faults


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


class TestChaosMiddleware:
    def _handler(self, request: Request) -> Response:
        return Response(status=200, payload={})

    def test_error_kind_raises_typed_500(self):
        registry = MetricsRegistry()
        middleware = ChaosMiddleware(_plan_only(KIND_ERROR), registry=registry)
        with pytest.raises(InternalServiceError, match="chaos"):
            middleware(Request(method="GET", target="/v1/x"), self._handler)
        counter = registry.counter(
            "seesaw_faults_injected_total", "", labels=("kind",)
        )
        assert counter.labels("error").value == 1.0

    def test_latency_sleeps_before_the_handler(self):
        sleeps: "list[float]" = []
        plan = FaultPlan(seed=5, latency_ms=70.0, latency_probability=1.0)
        middleware = ChaosMiddleware(
            plan, registry=MetricsRegistry(), sleep=sleeps.append
        )
        response = middleware(Request(method="GET", target="/v1/x"), self._handler)
        assert response.status == 200
        assert sleeps == [pytest.approx(0.07)]

    def test_connection_level_kinds_are_not_the_servers_to_fake(self):
        middleware = ChaosMiddleware(
            _plan_only(KIND_RESET), registry=MetricsRegistry()
        )
        response = middleware(Request(method="GET", target="/v1/x"), self._handler)
        assert response.status == 200

    @pytest.mark.parametrize("target", ["/v1/healthz", "/v1/metrics", "/v1/capabilities"])
    def test_probe_routes_exempt(self, target):
        middleware = ChaosMiddleware(
            _plan_only(KIND_ERROR), registry=MetricsRegistry()
        )
        assert middleware(Request(method="GET", target=target), self._handler).status == 200

    def test_window_respected(self):
        clock = FakeClock()
        middleware = ChaosMiddleware(
            _plan_only(KIND_ERROR, window_start_seconds=1.0),
            registry=MetricsRegistry(),
            clock=clock,
        )
        assert middleware(Request(method="GET", target="/v1/x"), self._handler).status == 200
        clock.advance(1.5)
        with pytest.raises(InternalServiceError):
            middleware(Request(method="GET", target="/v1/x"), self._handler)


# ----------------------------------------------------------------------
# client-side injector
# ----------------------------------------------------------------------
class FakeInnerClient(SeeSawClientProtocol):
    """A protocol stub that honours the deadline contextvar like the manager."""

    def __init__(self) -> None:
        self.calls: "list[str]" = []
        self.info = SessionInfo(
            session_id="s1",
            dataset="tiny",
            text_query="q",
            total_shown=0,
            positives_found=0,
            rounds=0,
        )

    def _record(self, op: str) -> None:
        check_deadline(op)
        self.calls.append(op)

    def capabilities(self):
        self.calls.append("capabilities")
        return {"features": {}}

    def healthz(self):
        self.calls.append("healthz")
        return {"status": "ok"}

    def metrics_json(self):
        self.calls.append("metrics_json")
        return {"metrics": []}

    def metrics_text(self):
        self.calls.append("metrics_text")
        return ""

    def start_session(self, request: StartSessionRequest) -> SessionInfo:
        self._record("start")
        return self.info

    def session_info(self, session_id: str) -> SessionInfo:
        self._record("info")
        return self.info

    def list_sessions(self, cursor=None, limit=None):
        self._record("list")
        raise NotImplementedError

    def close_session(self, session_id: str) -> None:
        self._record("close")

    def next_results(self, session_id: str, count=None) -> NextResultsResponse:
        self._record("next")
        return NextResultsResponse(
            session_id=session_id, items=(), total_shown=0, positives_found=0
        )

    def stream_next_results(self, session_id: str, count=None):
        self._record("stream")
        for i in range(3):
            yield ResultItem(image_id=i, score=0.5, box=BoxPayload(0, 0, 1, 1))

    def give_feedback(self, request, idempotency_key=None) -> SessionInfo:
        self._record("feedback")
        return self.info


def _faulty(kind: "str | None", **plan_extra) -> "tuple[FaultyClient, FakeInnerClient]":
    inner = FakeInnerClient()
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
        assert inner.calls == []  # FakeInner's check fired before recording
        assert current_deadline() is None  # the scope did not leak

    def test_latency_decorates_without_failing(self):
        sleeps: "list[float]" = []
        inner = FakeInnerClient()
        plan = FaultPlan(seed=5, latency_ms=30.0, latency_probability=1.0)
        client = FaultyClient(
            inner, plan, registry=MetricsRegistry(), sleep=sleeps.append
        )
        client.next_results("s1")
        assert sleeps == [pytest.approx(0.03)]
        assert inner.calls == ["next"]

    def test_probe_surfaces_never_perturbed(self):
        client, inner = _faulty(KIND_ERROR)
        assert client.healthz() == {"status": "ok"}
        assert client.metrics_json() == {"metrics": []}
        assert client.capabilities() == {"features": {}}
        assert inner.calls == ["healthz", "metrics_json", "capabilities"]

    def test_no_faults_is_a_clean_passthrough(self):
        client, inner = _faulty(None)
        client.next_results("s1")
        client.give_feedback(object())
        assert inner.calls == ["next", "feedback"]

    def test_injections_counted_by_kind(self):
        registry = MetricsRegistry()
        inner = FakeInnerClient()
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


# ----------------------------------------------------------------------
# chaos scenario plumbing
# ----------------------------------------------------------------------
class TestChaosScenario:
    def test_pack_scenario_round_trips_with_its_fault_plan(self):
        scenario = get_scenario("chaos")
        assert scenario.faults is not None and scenario.faults.any_faults
        rebuilt = TrafficScenario.from_json(scenario.to_json())
        assert rebuilt == scenario

    def test_scaled_rescales_the_fault_window(self):
        scenario = get_scenario("chaos")
        scaled = scenario.scaled(duration_seconds=scenario.duration_seconds / 2)
        assert scaled.faults.window_start_seconds == pytest.approx(
            scenario.faults.window_start_seconds / 2
        )
        assert scaled.faults.window_stop_seconds == pytest.approx(
            scenario.faults.window_stop_seconds / 2
        )
        # Probabilities are per opportunity — scaling time must not touch them.
        assert scaled.faults.error_probability == scenario.faults.error_probability

    def test_recovery_gate_requires_post_window_successes(self):
        from repro.bench.traffic import TrafficSummary, gate_violations

        gates = TailGates(p99_ms=1000.0, recovery_p99_ms=200.0)

        def summary(recovery: "float | None") -> TrafficSummary:
            return TrafficSummary(
                scenario="chaos",
                transport="inprocess",
                duration_seconds=4.0,
                elapsed_seconds=4.0,
                arrivals=10,
                offered_rps=2.5,
                achieved_rps=2.5,
                achieved_ratio=1.0,
                requests=10,
                ok_requests=10,
                failed_requests=0,
                p50_ms=10.0,
                p99_ms=20.0,
                p999_ms=20.0,
                max_ms=20.0,
                recovery_p99_ms=recovery,
            )

        assert gate_violations(summary(150.0), gates) == []
        assert any(
            "recovery" in violation
            for violation in gate_violations(summary(350.0), gates)
        )
        assert any(
            "recovery percentile undefined" in violation
            for violation in gate_violations(summary(None), gates)
        )
