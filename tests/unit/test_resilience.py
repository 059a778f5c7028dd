"""The resilience layer's state machines, under fake clocks.

Deadline arithmetic and propagation, the retry policy's backoff/budget
rules, the per-host circuit breaker, admission control's bounded in-flight
gauge — every timing-sensitive transition
driven by a manually advanced clock so the assertions are exact, never
sleep-and-hope.  Admission and the request deadline are driven through
``SeeSawApp.handle_request``, the one entry point both clients use.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import (
    CircuitOpenError,
    ConnectionFailedError,
    DeadlineExceededError,
    InternalServiceError,
    RateLimitedError,
    ServiceOverloadedError,
    TransportError,
    UnknownResourceError,
)
from repro.obs import MetricsRegistry
from repro.server.deadlines import (
    DEADLINE_HEADER,
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
    parse_deadline_header,
)
from repro.server import SeeSawApp, SeeSawService, SessionManager
from repro.server.manager import SHED_RETRY_AFTER_S
from repro.server.middleware import InFlightTracker, Request, Response
from repro.server.retry import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    RetryPolicy,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeRng:
    """uniform() always returns the top of the range — worst-case jitter."""

    def uniform(self, low: float, high: float) -> float:
        return high


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_counts_down_on_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(250.0, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(250.0)
        clock.advance(0.2)
        assert deadline.remaining_ms() == pytest.approx(50.0)
        clock.advance(0.1)
        assert deadline.remaining_ms() < 0

    def test_check_raises_typed_with_stage_name(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        deadline.check("dispatch")  # still alive
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError, match="before dispatch"):
            deadline.check("dispatch")

    def test_parse_header_values(self):
        assert parse_deadline_header("1500").budget_ms == 1500.0
        # Zero and negative budgets are *expired*, not malformed: the
        # clock-skewed client gets the typed 504 downstream, not a 400.
        assert parse_deadline_header("0").remaining_ms() <= 0
        assert parse_deadline_header("-20").remaining_ms() < 0

    @pytest.mark.parametrize("raw", ["soon", "", "nan", "inf", "-inf"])
    def test_parse_header_malformed_is_transport_error(self, raw):
        with pytest.raises(TransportError, match=DEADLINE_HEADER):
            parse_deadline_header(raw)

    def test_scope_binds_and_restores(self):
        assert current_deadline() is None
        with deadline_scope(500.0) as outer:
            assert current_deadline() is outer
            with deadline_scope(None):
                # None clears the inherited deadline (background work).
                assert current_deadline() is None
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_check_deadline_is_noop_without_scope(self):
        assert check_deadline("anything") is None


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
def _policy(clock: FakeClock, sleeps: "list[float]", **kwargs) -> RetryPolicy:
    defaults = dict(
        max_attempts=3,
        base_ms=100.0,
        max_ms=400.0,
        clock=clock,
        sleep=sleeps.append,
        rng=FakeRng(),
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return RetryPolicy(**defaults)


class TestRetryPolicy:
    def test_success_passthrough_no_sleep(self):
        sleeps: "list[float]" = []
        policy = _policy(FakeClock(), sleeps)
        assert policy.call(lambda: 42) == 42
        assert sleeps == []

    def test_retryable_rejection_retried_with_exponential_backoff(self):
        sleeps: "list[float]" = []
        policy = _policy(FakeClock(), sleeps)
        attempts = 0

        def flaky() -> str:
            nonlocal attempts
            attempts += 1
            if attempts < 3:
                raise ServiceOverloadedError("shed")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert attempts == 3
        # FakeRng draws the cap: min(max_ms, base * 2**n) for n = 0, 1.
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_backoff_capped_at_max_ms(self):
        sleeps: "list[float]" = []
        policy = _policy(FakeClock(), sleeps, max_attempts=5)
        assert policy.backoff_seconds(10) == pytest.approx(0.4)  # capped

    def test_retry_after_hint_floors_the_draw(self):
        sleeps: "list[float]" = []
        policy = _policy(FakeClock(), sleeps)
        calls = 0

        def limited() -> str:
            nonlocal calls
            calls += 1
            if calls == 1:
                raise RateLimitedError("slow down", retry_after_seconds=3.0)
            return "ok"

        assert policy.call(limited) == "ok"
        assert sleeps == [pytest.approx(3.0)]  # hint > jittered cap

    def test_attempt_budget_exhausts_with_original_error(self):
        sleeps: "list[float]" = []
        policy = _policy(FakeClock(), sleeps, max_attempts=2)

        def always_shed() -> None:
            raise ServiceOverloadedError("shed")

        with pytest.raises(ServiceOverloadedError):
            policy.call(always_shed)
        assert len(sleeps) == 1  # one retry, then surfaced

    def test_non_retryable_never_retried(self):
        sleeps: "list[float]" = []
        policy = _policy(FakeClock(), sleeps)
        calls = 0

        def missing() -> None:
            nonlocal calls
            calls += 1
            raise UnknownResourceError("no such session")

        with pytest.raises(UnknownResourceError):
            policy.call(missing)
        assert calls == 1 and sleeps == []

    @pytest.mark.parametrize(
        "exc,idempotent,expected",
        [
            (ServiceOverloadedError("x"), False, True),
            (RateLimitedError("x"), False, True),
            (ConnectionFailedError("x", request_sent=False), False, True),
            (ConnectionFailedError("x", request_sent=True), False, False),
            (ConnectionFailedError("x", request_sent=True), True, True),
            (InternalServiceError("x"), False, False),
            (InternalServiceError("x"), True, True),
            (DeadlineExceededError("x"), True, False),
            (CircuitOpenError("x"), True, False),
            (UnknownResourceError("x"), True, False),
        ],
    )
    def test_retryability_matrix(self, exc, idempotent, expected):
        assert RetryPolicy.is_retryable(exc, idempotent) is expected

    def test_deadline_vetoes_a_sleep_that_outlives_the_budget(self):
        clock = FakeClock()
        sleeps: "list[float]" = []
        policy = _policy(clock, sleeps)  # first backoff draw = 100ms

        def shed() -> None:
            raise ServiceOverloadedError("shed")

        with deadline_scope(Deadline(50.0, clock=clock)):
            with pytest.raises(ServiceOverloadedError):
                policy.call(shed)
        assert sleeps == []  # the veto surfaced the original error instead

    def test_deadline_with_room_allows_the_retry(self):
        clock = FakeClock()
        sleeps: "list[float]" = []
        policy = _policy(clock, sleeps)
        calls = 0

        def flaky() -> str:
            nonlocal calls
            calls += 1
            if calls == 1:
                raise ServiceOverloadedError("shed")
            return "ok"

        with deadline_scope(Deadline(5000.0, clock=clock)):
            assert policy.call(flaky) == "ok"
        assert len(sleeps) == 1

    def test_retries_counted_by_operation_and_error(self):
        registry = MetricsRegistry()
        sleeps: "list[float]" = []
        policy = _policy(FakeClock(), sleeps, registry=registry)
        calls = 0

        def flaky() -> str:
            nonlocal calls
            calls += 1
            if calls == 1:
                raise ServiceOverloadedError("shed")
            return "ok"

        policy.call(flaky, operation="next")
        counter = registry.counter(
            "seesaw_retries_total", "", labels=("operation", "error")
        )
        assert counter.labels("next", "ServiceOverloadedError").value == 1.0


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clock: FakeClock, **kwargs) -> CircuitBreaker:
        defaults = dict(
            failure_threshold=3,
            reset_seconds=5.0,
            clock=clock,
            registry=MetricsRegistry(),
        )
        defaults.update(kwargs)
        return CircuitBreaker("example:9000", **defaults)

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == STATE_OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow()
        assert excinfo.value.retry_after_seconds == pytest.approx(5.0)

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # streak broken, never hit 3

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        breaker.allow()  # admitted as the probe
        assert breaker.state == STATE_HALF_OPEN
        # Concurrent call while the probe is in flight fails fast.
        with pytest.raises(CircuitOpenError, match="half-open"):
            breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        breaker.allow()  # and traffic flows again

    def test_half_open_probe_failure_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        breaker.allow()
        breaker.record_failure()  # the probe also failed
        assert breaker.state == STATE_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(5.1)
        breaker.allow()  # next probe window
        assert breaker.state == STATE_HALF_OPEN

    def test_policy_trips_breaker_only_on_connection_failures(self):
        clock = FakeClock()
        sleeps: "list[float]" = []
        policy = _policy(
            clock, sleeps, max_attempts=1, breaker_failure_threshold=2
        )

        def dead() -> None:
            raise ConnectionFailedError("refused", request_sent=False)

        for _ in range(2):
            with pytest.raises(ConnectionFailedError):
                policy.call(dead, host="h:1")
        assert policy.breaker_for("h:1").state == STATE_OPEN
        # Typed server answers prove liveness: they never trip the breaker.
        policy2 = _policy(
            clock, sleeps, max_attempts=1, breaker_failure_threshold=2
        )

        def answered() -> None:
            raise RateLimitedError("429")

        for _ in range(5):
            with pytest.raises(RateLimitedError):
                policy2.call(answered, host="h:2")
        assert policy2.breaker_for("h:2").state == STATE_CLOSED

    def test_open_breaker_fails_fast_without_calling(self):
        clock = FakeClock()
        sleeps: "list[float]" = []
        policy = _policy(
            clock, sleeps, max_attempts=1, breaker_failure_threshold=1
        )
        with pytest.raises(ConnectionFailedError):
            policy.call(
                lambda: (_ for _ in ()).throw(ConnectionFailedError("x")),
                host="h:3",
            )
        calls = 0

        def should_not_run() -> None:
            nonlocal calls
            calls += 1

        with pytest.raises(CircuitOpenError):
            policy.call(should_not_run, host="h:3")
        assert calls == 0


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestInFlightTracker:
    def test_admits_until_the_bound(self):
        tracker = InFlightTracker(limit=2)
        assert tracker.try_enter() and tracker.try_enter()
        assert not tracker.try_enter()
        tracker.release()
        assert tracker.try_enter()

    def test_zero_limit_is_unbounded(self):
        tracker = InFlightTracker(limit=0)
        for _ in range(1000):
            assert tracker.try_enter()

    def test_release_never_goes_negative(self):
        tracker = InFlightTracker(limit=1)
        tracker.release()
        assert tracker.count == 0


class _SpyApp(SeeSawApp):
    """Records the deadline its routing step sees; with ``hold`` set, the
    routing step waits on ``release`` (a request in flight on demand)."""

    def __init__(self, manager: SessionManager, hold: bool = False) -> None:
        super().__init__(manager)
        self.seen: "list[object]" = []
        self.hold = hold
        self.entered = threading.Event()
        self.release = threading.Event()

    def _route(self, request: Request) -> Response:
        self.seen.append(current_deadline())
        if self.hold:
            self.entered.set()
            assert self.release.wait(10.0)
        return super()._route(request)


def _manager(**config) -> SessionManager:
    """A manager over a service with no datasets (probes and the session
    list route answer)."""
    return SessionManager(SeeSawService(SeeSawConfig(**config), registry=MetricsRegistry()))


def _get(app: SeeSawApp, target: str, headers: "dict[str, str] | None" = None) -> Response:
    return app.handle_request(Request("GET", target, headers=headers or {}, client="c"))


class TestAdmission:
    def test_sheds_past_the_bound_with_retry_hint(self):
        manager = _manager(max_in_flight=1)
        manager.admit()  # someone else is in flight
        response = _get(SeeSawApp(manager), "/v1/sessions")
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        error = response.payload["error"]
        assert error["code"] == "overloaded"
        assert error["details"]["retry_after_seconds"] == SHED_RETRY_AFTER_S
        shed = manager.service.metrics.counter("seesaw_shed_total", "", labels=("reason",))
        assert shed.labels("in_flight").value == 1.0

    def test_releases_on_success_and_on_error(self):
        manager = _manager(max_in_flight=1)
        app = SeeSawApp(manager)
        assert _get(app, "/v1/sessions").status == 200
        assert manager.in_flight == 0
        assert _get(app, "/v1/sessions/no-such-session").status == 404
        assert manager.in_flight == 0

    @pytest.mark.parametrize(
        "target", ["/v1/healthz", "/v1/metrics", "/v1/capabilities"]
    )
    def test_probe_routes_exempt_even_at_the_bound(self, target):
        manager = _manager(max_in_flight=1)
        manager.admit()
        assert _get(SeeSawApp(manager), target).status == 200

    def test_in_flight_gauge_tracks_the_count(self):
        manager = _manager(max_in_flight=4)
        manager.admit()
        manager.admit()
        payload = manager.service.metrics.to_json()
        gauge = next(
            metric
            for metric in payload["metrics"]
            if metric["name"] == "seesaw_in_flight"
        )
        assert gauge["series"][0]["value"] == 2.0


class TestTwoAppsShareTheManagersAdmissionState:
    """Regression: each app used to build its own tracker and buckets, and
    the manager kept only the last app's tracker."""

    def test_in_flight_drain_and_shedding_see_the_other_apps_request(self):
        manager = _manager(max_in_flight=1)
        holding, other = _SpyApp(manager, hold=True), SeeSawApp(manager)
        worker = threading.Thread(target=_get, args=(holding, "/v1/sessions"))
        worker.start()
        try:
            assert holding.entered.wait(10.0)
            assert manager.in_flight == 1
            assert _get(other, "/v1/healthz").payload["in_flight"] == 1
            assert _get(other, "/v1/sessions").status == 503
            assert manager.drain(0.2) is False
        finally:
            holding.release.set()
            worker.join(10.0)
        assert manager.in_flight == 0
        assert manager.drain(0.2) is True

    def test_one_bucket_per_client_across_apps(self):
        manager = _manager(rate_limit_rps=0.001, rate_limit_burst=1)
        first, second = SeeSawApp(manager), SeeSawApp(manager)
        statuses = [_get(app, "/v1/healthz").status for app in (first, second, first, second)]
        assert statuses == [200, 429, 429, 429]


class TestRequestDeadline:
    def test_header_binds_the_scope(self):
        app = _SpyApp(_manager())
        _get(app, "/v1/sessions", {DEADLINE_HEADER: "800"})
        assert app.seen[0] is not None and app.seen[0].budget_ms == 800.0
        assert current_deadline() is None  # scope restored

    def test_expired_header_rejected_before_routing(self):
        app = _SpyApp(_manager())
        response = _get(app, "/v1/sessions", {DEADLINE_HEADER: "-5"})
        assert response.status == 504
        assert "before routing" in response.payload["error"]["message"]
        assert app.seen == []  # a dead request is never routed

    def test_malformed_header_is_a_400_before_routing(self):
        app = _SpyApp(_manager())
        response = _get(app, "/v1/sessions", {DEADLINE_HEADER: "soon"})
        assert response.status == 400
        assert DEADLINE_HEADER in response.payload["error"]["message"]
        assert app.seen == []

    def test_default_budget_applies_without_header(self):
        app = _SpyApp(_manager(request_deadline_ms=1234.0))
        _get(app, "/v1/sessions")
        assert app.seen[0].budget_ms == 1234.0

    def test_no_header_no_default_is_passthrough(self):
        app = _SpyApp(_manager())
        _get(app, "/v1/sessions")
        assert app.seen == [None]
