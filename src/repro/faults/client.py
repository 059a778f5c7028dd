"""Client-side fault injection: :class:`FaultyClient`.

A faulty *transport*: every `/v1` call of the client it wraps, sent through
that client's transport the way a real network misbehaves, per the plan's
probabilities.  All five fault families live here (the server-side
:class:`~repro.faults.middleware.ChaosMiddleware` can only honestly fake
latency and 500s):

* **latency** — sleeps before the exchange, simulating a slow path;
* **error** — raises :class:`~repro.exceptions.InternalServiceError`
  without touching the wrapped transport, as if the server's envelope
  decoded to a 500;
* **reset** — raises :class:`~repro.exceptions.ConnectionFailedError`; the
  opportunity index's parity decides ``request_sent``, so the run exercises
  both retry branches (pre-send resets are always retryable, mid-flight
  resets only for idempotent calls);
* **truncate** — drops the tail of an NDJSON stream (its last item and the
  terminal ``end`` record), so the client's own "truncated response"
  :class:`~repro.exceptions.TransportError` fires (an exchange treats a
  truncate draw as a reset that happened mid-read);
* **skew** — runs the exchange under an already-expired
  :func:`~repro.server.deadlines.deadline_scope`, modelling a clock-skewed
  client shipping a dead budget: the layer below (HTTP header or in-process
  contextvar) must surface the typed
  :class:`~repro.exceptions.DeadlineExceededError`, never do the work.

Each attempt is one opportunity, and the wrapped client's retry policy runs
around it, so the policy sees and absorbs these faults exactly like real
failures.  Probe routes (``capabilities``/``healthz``/``metrics``) pass
through untouched — the harness reads those to judge the run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Mapping

from repro.exceptions import ConnectionFailedError, InternalServiceError
from repro.faults.inject import (
    KIND_ERROR,
    KIND_NONE,
    KIND_RESET,
    KIND_SKEW,
    KIND_TRUNCATE,
    FaultDecider,
    FaultOutcome,
    count_injected,
)
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry, get_registry
from repro.server.api import resolve
from repro.server.client import SeeSawClientProtocol
from repro.server.deadlines import Deadline, deadline_scope


class FaultyClient(SeeSawClientProtocol):
    """``inner``'s calls, over ``inner``'s transport, suffering the plan's faults."""

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

    # ------------------------------------------------------------------
    # the faulty transport
    # ------------------------------------------------------------------
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
