"""Client-side resilience: retry with backoff, and per-host circuit breaking.

The policy here encodes three hard-won distributed-systems rules:

* **Full jitter.**  Attempt *n* sleeps a uniform draw from ``[0,
  min(max_ms, base_ms * 2**n))``.  Deterministic exponential
  backoff synchronizes a fleet of retrying clients into waves that re-arrive
  together; the uniform draw de-correlates them.  A server ``Retry-After``
  hint (a rate limiter's refill time, a shedder's backoff hint) acts as a
  *floor* on the draw — the server knows something the client does not.

* **At-most-once unless proven otherwise.**  A clean typed rejection (429,
  503) means the server refused *before* acting, so any call may retry it.
  A connection that died after the request was sent
  (:class:`~repro.exceptions.ConnectionFailedError` with ``request_sent``)
  or a mid-flight 500 may have already applied a state change, so only
  calls the caller marked ``idempotent`` retry those — a replayed ``next``
  would silently skip a result batch.

* **Fail fast when the host is down.**  After
  ``breaker_failure_threshold`` consecutive connection failures to a host,
  the :class:`CircuitBreaker` opens and calls raise
  :class:`~repro.exceptions.CircuitOpenError` immediately instead of each
  paying a connect timeout.  After ``breaker_reset_s`` one probe call is
  admitted (half-open); its success closes the breaker, its failure reopens
  the cooldown.

Everything honours the deadline contextvar
(:mod:`repro.server.deadlines`): a retry whose backoff sleep would not fit
in the remaining budget is not attempted — the original error surfaces
instead of a guaranteed-late success.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, TypeVar

from repro.exceptions import (
    CircuitOpenError,
    ConnectionFailedError,
    InternalServiceError,
    RetryableError,
)
from repro.obs import MetricsRegistry, get_registry
from repro.server.deadlines import current_deadline

T = TypeVar("T")

#: Breaker states, in the gauge encoding of ``seesaw_breaker_state``.
STATE_CLOSED = 0
STATE_OPEN = 1
STATE_HALF_OPEN = 2

_STATE_NAMES = {STATE_CLOSED: "closed", STATE_OPEN: "open", STATE_HALF_OPEN: "half-open"}


class CircuitBreaker:
    """One host's closed → open → half-open failure gate.

    Only *connection-level* failures count toward the threshold: a typed
    429/503/404 proves the host is alive and answering, and tripping on
    application errors would turn one bad session id into a blackout.
    """

    def __init__(
        self,
        host: str,
        failure_threshold: int = 5,
        reset_seconds: float = 5.0,
        clock: "Callable[[], float]" = time.monotonic,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.host = host
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def state(self) -> int:
        return self._state

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self._state]

    def _publish_state(self) -> None:
        self.registry.gauge(
            "seesaw_breaker_state",
            "Circuit-breaker state per host: 0 closed, 1 open, 2 half-open.",
            labels=("host",),
        ).labels(self.host).set(float(self._state))

    def allow(self) -> None:
        """Admit the next call, or raise :class:`CircuitOpenError` fast.

        An open breaker past its cooldown flips to half-open and admits
        exactly one probe; concurrent calls keep failing fast until the
        probe reports back.
        """
        with self._lock:
            if self._state == STATE_CLOSED:
                return
            now = self._clock()
            if self._state == STATE_OPEN:
                remaining = self._opened_at + self.reset_seconds - now
                if remaining > 0:
                    raise CircuitOpenError(
                        f"Circuit breaker open for {self.host} after "
                        f"{self._consecutive_failures} consecutive connection "
                        f"failures; probing again in {remaining:.2f}s",
                        retry_after_seconds=remaining,
                    )
                self._state = STATE_HALF_OPEN
                self._probe_in_flight = True
                self._publish_state()
                return
            # Half-open: one probe owns the slot.
            if self._probe_in_flight:
                raise CircuitOpenError(
                    f"Circuit breaker for {self.host} is half-open with a "
                    f"probe in flight; failing fast",
                    retry_after_seconds=self.reset_seconds,
                )
            self._probe_in_flight = True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != STATE_CLOSED:
                self._state = STATE_CLOSED
                self._publish_state()

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            if self._state == STATE_HALF_OPEN:
                # The probe failed: the host is still down, restart cooldown.
                self._state = STATE_OPEN
                self._opened_at = self._clock()
                self._publish_state()
            elif (
                self._state == STATE_CLOSED
                and self.failure_threshold > 0
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = STATE_OPEN
                self._opened_at = self._clock()
                self._publish_state()


class RetryPolicy:
    """Retry budget + backoff schedule + the per-host breaker table.

    One policy instance may be shared by many clients; the breaker table is
    keyed by host so every client talking to the same address shares one
    failure gate.  ``breaker_failure_threshold=0`` disables breaking,
    ``max_attempts=1`` disables retrying — both leave :meth:`call` as a
    plain passthrough with typed errors intact.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_ms: float = 50.0,
        max_ms: float = 2000.0,
        breaker_failure_threshold: int = 5,
        breaker_reset_s: float = 5.0,
        clock: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
        rng: "random.Random | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = int(max_attempts)
        self.base_ms = float(base_ms)
        self.max_ms = float(max_ms)
        self.breaker_failure_threshold = int(breaker_failure_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self._clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._registry = registry
        self._breakers: "dict[str, CircuitBreaker]" = {}
        self._breakers_lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def breaker_for(self, host: str) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(host)
            if breaker is None:
                breaker = self._breakers[host] = CircuitBreaker(
                    host,
                    failure_threshold=self.breaker_failure_threshold,
                    reset_seconds=self.breaker_reset_s,
                    clock=self._clock,
                    registry=self._registry,
                )
            return breaker

    # ------------------------------------------------------------------
    # the schedule
    # ------------------------------------------------------------------
    def backoff_seconds(self, attempt: int, hint: "float | None" = None) -> float:
        """Sleep before retry number ``attempt`` (0-based): full jitter.

        The server's ``Retry-After`` hint floors the draw — sleeping less
        than the hint is a guaranteed second rejection.
        """
        cap_ms = min(self.max_ms, self.base_ms * (2.0 ** attempt))
        delay = self._rng.uniform(0.0, cap_ms / 1000.0)
        if hint is not None:
            delay = max(delay, float(hint))
        return delay

    @staticmethod
    def is_retryable(exc: BaseException, idempotent: bool) -> bool:
        """Whether one failed attempt may be repeated.

        The deciding question is never "is the error transient" alone but
        "could the server have acted before failing":

        * typed transient rejections (429 rate limit, 503 overload/drain)
          were refused *before* any state change — always retryable;
        * a connection that failed before the request went out is always
          retryable; one that died after, only for idempotent calls;
        * a 500 may have happened after the state change — idempotent only;
        * everything else (400s, 404s, 504 deadline, breaker-open) repeats
          to the same answer or a dead budget: never retried.
        """
        if isinstance(exc, CircuitOpenError):
            return False
        if isinstance(exc, RetryableError):
            return True
        if isinstance(exc, ConnectionFailedError):
            return idempotent or not exc.request_sent
        if isinstance(exc, InternalServiceError):
            return idempotent
        return False

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def call(
        self,
        fn: "Callable[[], T]",
        idempotent: bool = False,
        host: "str | None" = None,
        operation: str = "call",
    ) -> T:
        """Run ``fn`` under the attempt budget, breaker, and deadline.

        ``host`` engages that host's circuit breaker (connection failures
        trip it, any success closes it).  The deadline contextvar, when
        set, vetoes both a new attempt after expiry and any backoff sleep
        that would outlive the remaining budget.
        """
        breaker = self.breaker_for(host) if host else None
        attempt = 0
        while True:
            if breaker is not None:
                breaker.allow()
            try:
                result = fn()
            except BaseException as exc:
                if breaker is not None:
                    if isinstance(exc, ConnectionFailedError):
                        breaker.record_failure()
                    elif not isinstance(exc, CircuitOpenError):
                        # Any answer from the host — even an error envelope —
                        # proves the connection path works.
                        breaker.record_success()
                if attempt + 1 >= self.max_attempts or not self.is_retryable(
                    exc, idempotent
                ):
                    raise
                delay = self.backoff_seconds(
                    attempt, hint=getattr(exc, "retry_after_seconds", None)
                )
                deadline = current_deadline()
                if (
                    deadline is not None
                    and deadline.remaining_seconds() <= delay
                ):
                    # The sleep alone would eat the rest of the budget; a
                    # retry could only succeed after the caller stopped
                    # caring.  Surface the real error, not a late answer.
                    raise
                self.registry.counter(
                    "seesaw_retries_total",
                    "Client-side retry attempts, by operation and error type.",
                    labels=("operation", "error"),
                ).labels(operation, type(exc).__name__).inc()
                self._sleep(delay)
                attempt += 1
                continue
            if breaker is not None:
                breaker.record_success()
            return result
