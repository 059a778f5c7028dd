"""Deterministic chaos for the resilience tests: a plan and two injectors.

A test instrument, not part of the served program.  The pieces:

* :class:`FaultPlan` — frozen data naming *what* to inject (latency, typed
  errors, connection resets, truncated streams, clock-skewed deadlines),
  with what probability, inside which time window;
* :class:`FaultDecider` — the seed-driven decision engine both injectors
  share (per-opportunity determinism, fault windowing);
* :class:`ChaosApp` — the server-side injector: a
  :class:`~repro.server.app.SeeSawApp` whose routing step suffers the plan.
  A test serves ``ChaosApp(manager, plan)`` where it would serve
  ``SeeSawApp(manager)``;

* :class:`FaultyClient` — the client-side fault transport: every call of
  another :class:`~repro.server.client.SeeSawClientProtocol`, through that
  client's own transport.

Every injected fault is a *typed* failure the resilience layer is supposed
to absorb — ``tests/integration/test_scripted_load.py``'s chaos-window test
asserts that nothing else (raw socket errors, stranded waiters, hung
sessions) leaks out, and that every call before and after the window
succeeds.  Both injectors count what they fire in
``seesaw_faults_injected_total{kind}``: the chaos app on its manager's
registry, the fault transport on the registry it is given.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.exceptions import (
    ConfigurationError,
    ConnectionFailedError,
    InternalServiceError,
)
from repro.obs import MetricsRegistry, get_registry
from repro.server.api import PROBE_ROUTES, resolve
from repro.server.client import SeeSawClientProtocol
from repro.server.app import SeeSawApp
from repro.server.deadlines import Deadline, deadline_scope
from repro.server.manager import SessionManager
from repro.server.middleware import Request, Response


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """One fault-injection workload, shared by both injectors.

    Probabilities are per *opportunity* (one request routed by the chaos
    app, one protocol call through the fault transport); the window bounds
    when faults fire, so a run has a clean pre-fault baseline and a
    post-fault recovery phase.  :class:`ChaosApp` uses ``latency`` and
    ``error`` (it answers through a healthy socket, so resets and stream
    truncation are not its to fake); :class:`FaultyClient` uses all five
    families.
    """

    seed: int = 0
    latency_ms: float = 0.0
    """Extra latency (milliseconds) an affected call sleeps before running."""
    latency_probability: float = 0.0
    error_probability: float = 0.0
    """Probability of a typed injected failure (the injector raises
    :class:`~repro.exceptions.InternalServiceError` server-side — the
    transient 500 family clients must retry)."""
    reset_probability: float = 0.0
    """Probability the fault transport simulates the connection dying before
    a response arrives (:class:`~repro.exceptions.ConnectionFailedError`)."""
    truncate_probability: float = 0.0
    """Probability a streamed NDJSON response is cut off before its terminal
    ``end`` record (surfaces as the truncation
    :class:`~repro.exceptions.TransportError` the real client raises)."""
    skew_probability: float = 0.0
    """Probability a call is sent with an already-expired deadline (the
    clock-skewed-client workload; the server answers with the typed 504)."""
    window_start_seconds: float = 0.0
    window_stop_seconds: "float | None" = None
    """Faults fire only between ``window_start_seconds`` and
    ``window_stop_seconds`` after the injector is armed; ``None`` keeps the
    window open forever."""

    def __post_init__(self) -> None:
        for name in (
            "latency_probability",
            "error_probability",
            "reset_probability",
            "truncate_probability",
            "skew_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"FaultPlan.{name} must be in [0, 1], got {value}"
                )
        if self.latency_ms < 0:
            raise ConfigurationError(
                f"FaultPlan.latency_ms must be >= 0, got {self.latency_ms}"
            )
        if self.window_start_seconds < 0:
            raise ConfigurationError(
                f"FaultPlan.window_start_seconds must be >= 0, got "
                f"{self.window_start_seconds}"
            )
        if (
            self.window_stop_seconds is not None
            and self.window_stop_seconds <= self.window_start_seconds
        ):
            raise ConfigurationError(
                f"FaultPlan.window_stop_seconds ({self.window_stop_seconds}) "
                f"must exceed window_start_seconds ({self.window_start_seconds})"
            )


# ----------------------------------------------------------------------
# the decider
# ----------------------------------------------------------------------
#: Injection kinds, in decision priority order.
KIND_SKEW = "skew"
KIND_RESET = "reset"
KIND_ERROR = "error"
KIND_TRUNCATE = "truncate"
KIND_NONE = "none"


@dataclass(frozen=True)
class FaultOutcome:
    """What one opportunity should suffer."""

    index: int
    kind: str
    latency_seconds: float = 0.0

    @property
    def injects(self) -> bool:
        return self.kind != KIND_NONE or self.latency_seconds > 0.0


class FaultDecider:
    """Hands out :class:`FaultOutcome` decisions for a :class:`FaultPlan`.

    Every injection opportunity gets a monotonically increasing index, and
    the decision for opportunity ``i`` is a pure function of ``(plan.seed,
    i)`` — a private :class:`random.Random` seeded per opportunity, so the
    decision stream does not depend on how many random draws earlier
    opportunities consumed.  Under concurrency the *assignment* of
    decisions to requests follows arrival order, the strongest guarantee an
    open-loop workload admits.

    Fault families are checked in a fixed priority order (skew, reset,
    error, truncate) and at most one fires per opportunity; latency can
    additionally decorate any of them, since a slow failure is the
    interesting case for deadline propagation.

    The decider is armed at construction (or re-armed with :meth:`arm`):
    the plan's fault window is measured from that instant.
    """

    def __init__(
        self,
        plan: FaultPlan,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        self.plan = plan
        self._clock = clock
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._armed_at = clock()

    def arm(self) -> None:
        """Restart the fault window (and the opportunity counter) from now."""
        with self._lock:
            self._armed_at = self._clock()
            self._counter = itertools.count()

    def in_window(self) -> bool:
        elapsed = self._clock() - self._armed_at
        if elapsed < self.plan.window_start_seconds:
            return False
        stop = self.plan.window_stop_seconds
        return stop is None or elapsed < stop

    def decide(self) -> FaultOutcome:
        """Claim the next opportunity index and decide its fate."""
        with self._lock:
            index = next(self._counter)
        if not self.in_window():
            return FaultOutcome(index=index, kind=KIND_NONE)
        plan = self.plan
        rng = random.Random((plan.seed << 20) ^ index)
        kind = KIND_NONE
        for candidate, probability in (
            (KIND_SKEW, plan.skew_probability),
            (KIND_RESET, plan.reset_probability),
            (KIND_ERROR, plan.error_probability),
            (KIND_TRUNCATE, plan.truncate_probability),
        ):
            if probability > 0.0 and rng.random() < probability:
                kind = candidate
                break
        latency = 0.0
        if plan.latency_probability > 0.0 and rng.random() < plan.latency_probability:
            latency = plan.latency_ms / 1000.0
        return FaultOutcome(index=index, kind=kind, latency_seconds=latency)


def count_injected(registry: MetricsRegistry, kind: str) -> None:
    """Count one injected fault of ``kind`` (both injectors share the series)."""
    registry.counter(
        "seesaw_faults_injected_total",
        "Faults injected by the chaos layer, by kind.",
        labels=("kind",),
    ).labels(kind).inc()


# ----------------------------------------------------------------------
# server-side injector
# ----------------------------------------------------------------------
class ChaosApp(SeeSawApp):
    """A :class:`~repro.server.app.SeeSawApp` whose routing step injects
    plan-driven latency and typed 500s.

    * **latency** — sleeps ``latency_ms`` before routing, which is what
      makes deadline propagation observable: a request whose budget the
      injected sleep consumed must come back as the typed 504, not as a
      late success nobody is waiting for;
    * **error** — raises :class:`~repro.exceptions.InternalServiceError`,
      which the app encodes as the structured 500 envelope.

    The injection runs inside admission and the deadline scope, where the
    router runs, so an injected 500 is a ``"handler"``-stage outcome.  The
    connection-level families (resets, truncated streams, skewed deadlines)
    belong to :class:`FaultyClient` — an app answering through a healthy
    socket cannot fake a dead one honestly.  When the shared decider draws
    one of those kinds here it is treated as no fault, so a single plan
    drives both injectors without double-counting probabilities.  What
    fires is counted on the manager's registry.

    Probe routes (:data:`~repro.server.api.PROBE_ROUTES`) are exempt: the
    test reads them to judge the run, and a load balancer's health checker
    is not part of the experiment.
    """

    def __init__(
        self,
        manager: SessionManager,
        plan: FaultPlan,
        clock: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        super().__init__(manager)
        self.plan = plan
        self.decider = FaultDecider(plan, clock=clock)
        self._sleep = sleep

    def _route(self, request: Request) -> Response:
        if request.route not in PROBE_ROUTES:
            registry = self.manager.service.metrics
            outcome = self.decider.decide()
            if outcome.latency_seconds > 0.0:
                count_injected(registry, "latency")
                self._sleep(outcome.latency_seconds)
            if outcome.kind == KIND_ERROR:
                count_injected(registry, "error")
                raise InternalServiceError(
                    f"chaos: injected server fault (opportunity {outcome.index})"
                )
        return super()._route(request)


# ----------------------------------------------------------------------
# client-side injector
# ----------------------------------------------------------------------
class FaultyClient(SeeSawClientProtocol):
    """``inner``'s calls, over ``inner``'s transport, suffering the plan's faults.

    A faulty *transport*: every `/v1` call sent through the wrapped
    client's transport the way a real network misbehaves:

    * **latency** — sleeps before the exchange, simulating a slow path;
    * **error** — raises :class:`~repro.exceptions.InternalServiceError`
      without touching the wrapped transport, as if the server's envelope
      decoded to a 500;
    * **reset** — raises :class:`~repro.exceptions.ConnectionFailedError`;
      the opportunity index's parity decides ``request_sent``, so the run
      exercises both retry branches (pre-send resets are always retryable,
      mid-flight resets only for idempotent calls);
    * **truncate** — drops the tail of an NDJSON stream (its last item and
      the terminal ``end`` record), so the client's own "truncated response"
      :class:`~repro.exceptions.TransportError` fires (an exchange treats a
      truncate draw as a reset that happened mid-read);
    * **skew** — runs the exchange under an already-expired
      :func:`~repro.server.deadlines.deadline_scope`, modelling a
      clock-skewed client shipping a dead budget: the layer below (HTTP
      header or in-process contextvar) must surface the typed
      :class:`~repro.exceptions.DeadlineExceededError`, never do the work.

    Each attempt is one opportunity, and the wrapped client's retry policy
    runs around it, so the policy sees and absorbs these faults exactly like
    real failures.  Probe routes (``capabilities``/``healthz``/``metrics``)
    pass through untouched — the test reads those to judge the run.
    """

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
        self.retry_policy = inner.retry_policy
        self._host = inner._host

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def arm(self) -> None:
        """Restart the plan's fault window from now (see :meth:`FaultDecider.arm`)."""
        self.decider.arm()

    def close(self) -> None:
        self.inner.close()

    def _exchange(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "Mapping[str, str] | None" = None,
    ) -> bytes:
        _, route, _ = resolve(method, path.partition("?")[0])
        if route is not None and route.probe:
            return self.inner._exchange(method, path, body, headers)
        outcome = self._draw()
        if outcome.kind == KIND_TRUNCATE:
            # No stream to cut short: the closest honest failure is a
            # connection that died mid-read of the response.
            raise ConnectionFailedError(
                f"chaos: connection lost mid-response (opportunity {outcome.index})",
                request_sent=True,
            )
        if outcome.kind == KIND_SKEW:
            # A zero budget is the skewed-clock wire shape: the header (or
            # contextvar) arrives already expired and the layer below must
            # answer with the typed 504.
            with deadline_scope(Deadline(0.0)):
                return self.inner._exchange(method, path, body, headers)
        return self.inner._exchange(method, path, body, headers)

    def _stream(self, path: str) -> "Iterator[dict[str, Any]]":
        kind = self._draw().kind
        if kind == KIND_SKEW:
            with deadline_scope(Deadline(0.0)):
                # Read inside the scope, so the typed 504 raises here, not
                # lazily after the scope closed.
                yield from list(self.inner._stream(path))
        elif kind == KIND_TRUNCATE:
            yield from list(self.inner._stream(path))[:-2]
        else:
            yield from self.inner._stream(path)

    def _draw(self) -> FaultOutcome:
        """Decide one opportunity: sleep its latency, raise its error or
        reset, and return it for a skew or truncate to be applied."""
        outcome = self.decider.decide()
        if outcome.latency_seconds > 0.0:
            count_injected(self.registry, "latency")
            self._sleep(outcome.latency_seconds)
        if outcome.kind != KIND_NONE:
            count_injected(self.registry, outcome.kind)
        if outcome.kind == KIND_ERROR:
            raise InternalServiceError(
                f"chaos: injected client-observed 500 (opportunity {outcome.index})"
            )
        if outcome.kind == KIND_RESET:
            raise ConnectionFailedError(
                f"chaos: injected connection reset (opportunity {outcome.index})",
                request_sent=outcome.index % 2 == 1,
            )
        return outcome
