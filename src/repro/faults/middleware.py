"""Server-side fault injection: :class:`ChaosMiddleware`.

Sits in the `/v1` middleware pipeline (appended by
:func:`repro.server.app.default_middlewares` when ``SeeSawConfig.faults``
is set) and perturbs requests per the plan's probabilities:

* **latency** — sleeps ``latency_ms`` before letting the request proceed,
  which is what makes deadline propagation observable: a request whose
  budget the injected sleep consumed must come back as the typed 504, not
  as a late success nobody is waiting for;
* **error** — raises :class:`~repro.exceptions.InternalServiceError`, which
  the app encodes as the structured 500 envelope.

The connection-level families (resets, truncated streams, skewed
deadlines) belong to the *client-side* injector
(:class:`repro.faults.client.FaultyClient`) — a middleware answering
through a healthy socket cannot fake a dead one honestly.  When the shared
decider draws one of those kinds here it is treated as no fault, so a
single plan drives both injectors without double-counting probabilities.

Probe routes (:data:`~repro.server.api.PROBE_ROUTES`) are exempt:
the chaos harness reads them to judge the run, and a load balancer's health
checker is not part of the experiment.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.exceptions import InternalServiceError
from repro.faults.inject import KIND_ERROR, FaultDecider, count_injected
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry, get_registry
from repro.server.api import PROBE_ROUTES
from repro.server.middleware import Handler, Request, Response


class ChaosMiddleware:
    """Injects plan-driven latency and typed 500s into the request path."""

    def __init__(
        self,
        plan: FaultPlan,
        registry: "MetricsRegistry | None" = None,
        clock: "Callable[[], float]" = time.monotonic,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        self.plan = plan
        self.decider = FaultDecider(plan, clock=clock)
        self._sleep = sleep
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def __call__(self, request: Request, handler: Handler) -> Response:
        if request.route in PROBE_ROUTES:
            return handler(request)
        outcome = self.decider.decide()
        if outcome.latency_seconds > 0.0:
            count_injected(self.registry, "latency")
            self._sleep(outcome.latency_seconds)
        if outcome.kind == KIND_ERROR:
            count_injected(self.registry, "error")
            raise InternalServiceError(
                f"chaos: injected server fault (opportunity {outcome.index})"
            )
        return handler(request)
