"""The seed-driven decision engine both fault injectors share.

Determinism model: every injection *opportunity* gets a monotonically
increasing index from its decider, and the decision for opportunity ``i`` is
a pure function of ``(plan.seed, i)`` — a private :class:`random.Random`
seeded per opportunity, so the decision stream does not depend on how many
random draws earlier opportunities consumed.  Given the same sequence of
opportunities, two runs inject the same faults; under concurrency the
*assignment* of decisions to requests follows arrival order, which is the
strongest guarantee an open-loop workload admits.

Fault families are checked in a fixed priority order (skew, reset, error,
truncate, then latency) and at most one fires per opportunity — latency can
additionally decorate any of them, since a slow failure is the interesting
case for deadline propagation.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

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

    The decider is armed at construction (or re-armed with :meth:`arm`):
    the plan's fault window is measured from that instant, so the harness
    can give a run a clean pre-fault baseline and a recovery tail.
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


def count_injected(registry: "MetricsRegistry", kind: str) -> None:
    """Count one injected fault of ``kind`` (both injectors share the series)."""
    registry.counter(
        "seesaw_faults_injected_total",
        "Faults injected by the chaos layer, by kind.",
        labels=("kind",),
    ).labels(kind).inc()
