"""Scenario configs for the open-loop traffic harness.

Every workload the harness (:mod:`repro.bench.traffic`) can fire at the
`/v1` service is described by a frozen :class:`TrafficScenario`: the Poisson
arrival rate and duration, the operation mix, an optional burst profile, and
the tail-latency gates CI asserts against the run's summary.  Scenarios are
plain data — JSON round-trippable, hashable, trivially `scaled()` down for
smoke runs — so a CI gate, a local soak, and a full-scale report all name
the exact same workload.

The shipped pack (:data:`SCENARIO_PACK`) covers the load shapes that
historically flushed out serving bugs: steady arrivals, bursts (queueing
collapse and window-latency waste), session churn (registry lock pressure),
mixed next/stream/info ratios, slow-drip streaming consumers (keep-alive
and chunked-writer behaviour), adversarial feedback replays (idempotency
under concurrency), rate-limit storms (the 429 path under fire),
live-ingest runs (queries racing dataset upserts across forced segment-merge
swaps — the mutable tier's zero-downtime proof), and the
``chaos`` scenario — a windowed fault-injection run (injected latency,
typed 500s, connection resets, truncated streams, skewed deadlines) whose
gates assert the resilience layer fails *typed* and recovers after the
window closes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import BenchmarkError
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class OpMix:
    """Relative weights of the interaction kinds an arrival can trigger.

    Weights are relative, not normalized; any subset may be zero as long as
    one is positive.  ``next_results`` is the plain feedback round (one
    ``/next`` plus feedback for every shown item), ``stream`` consumes the
    batch through the NDJSON streaming surface, ``feedback_replay`` is the
    adversarial idempotency workload, ``churn`` closes and restarts the
    session, ``info`` is a cheap read (``GET /sessions/{id}``), and
    ``mutate`` upserts a fresh image into the live dataset tier
    (``POST /datasets/{name}/upsert``).
    """

    next_results: float = 1.0
    stream: float = 0.0
    feedback_replay: float = 0.0
    churn: float = 0.0
    info: float = 0.0
    mutate: float = 0.0

    def __post_init__(self) -> None:
        weights = dataclasses.asdict(self)
        for name, weight in weights.items():
            if weight < 0:
                raise BenchmarkError(f"OpMix weight '{name}' must be >= 0, got {weight}")
        if sum(weights.values()) <= 0:
            raise BenchmarkError("OpMix needs at least one positive weight")

    def weights(self) -> "tuple[tuple[str, float], ...]":
        """The positive (op-name, weight) pairs, in stable field order."""
        pairs = (
            ("next", self.next_results),
            ("stream", self.stream),
            ("replay", self.feedback_replay),
            ("churn", self.churn),
            ("info", self.info),
            ("mutate", self.mutate),
        )
        return tuple((name, weight) for name, weight in pairs if weight > 0)


@dataclass(frozen=True)
class BurstProfile:
    """A periodic on/off burst overlaid on the base Poisson rate.

    For the first ``duty`` fraction of every ``period_seconds`` window the
    arrival rate is ``factor`` times the scenario's base rate; for the rest
    of the window it is the base rate.  The offered *average* rate therefore
    exceeds the base rate — the point is the transient queue the on-phase
    builds, which closed-loop load tests structurally cannot produce.
    """

    factor: float = 4.0
    period_seconds: float = 1.0
    duty: float = 0.25

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise BenchmarkError(f"Burst factor must be >= 1, got {self.factor}")
        if self.period_seconds <= 0:
            raise BenchmarkError(
                f"Burst period must be positive, got {self.period_seconds}"
            )
        if not 0.0 < self.duty < 1.0:
            raise BenchmarkError(f"Burst duty must be in (0, 1), got {self.duty}")

    def rate_at(self, offset_seconds: float, base_rate: float) -> float:
        """The instantaneous arrival rate ``offset_seconds`` into the run."""
        phase = offset_seconds % self.period_seconds
        if phase < self.duty * self.period_seconds:
            return base_rate * self.factor
        return base_rate


@dataclass(frozen=True)
class TailGates:
    """What a run must achieve for CI to pass — tails, never means.

    A mean hides queueing collapse behind a sea of fast requests; the p99
    and p999 are where stranded waiters, full-window sleeps, and keep-alive
    desyncs actually show up.  ``min_achieved_ratio`` bounds achieved/offered
    throughput (an open-loop run that silently falls behind its schedule is
    a failure even if every completed request was fast), and
    ``max_unexpected_errors`` keeps the error taxonomy honest.
    """

    p99_ms: float
    p999_ms: "float | None" = None
    min_achieved_ratio: float = 0.5
    max_unexpected_errors: int = 0
    recovery_p99_ms: "float | None" = None
    """For fault scenarios with a bounded window: p99 over the primaries
    scheduled *after* the fault window closed.  The recovery gate is what
    proves the service healed — breakers re-closed, no stranded
    waiters — instead of merely surviving the chaos."""

    def __post_init__(self) -> None:
        if self.p99_ms <= 0:
            raise BenchmarkError(f"p99 gate must be positive, got {self.p99_ms}")
        if self.p999_ms is not None and self.p999_ms < self.p99_ms:
            raise BenchmarkError(
                f"p999 gate ({self.p999_ms}) must be >= the p99 gate ({self.p99_ms})"
            )
        if not 0.0 < self.min_achieved_ratio <= 1.0:
            raise BenchmarkError(
                f"min_achieved_ratio must be in (0, 1], got {self.min_achieved_ratio}"
            )
        if self.max_unexpected_errors < 0:
            raise BenchmarkError("max_unexpected_errors must be >= 0")
        if self.recovery_p99_ms is not None and self.recovery_p99_ms <= 0:
            raise BenchmarkError(
                f"recovery_p99_ms gate must be positive, got {self.recovery_p99_ms}"
            )


@dataclass(frozen=True)
class TrafficScenario:
    """One open-loop workload: arrival process, op mix, and its tail gates."""

    name: str
    description: str
    duration_seconds: float = 4.0
    rate_rps: float = 30.0
    session_count: int = 8
    batch_size: int = 3
    mix: OpMix = field(default_factory=OpMix)
    burst: "BurstProfile | None" = None
    drip_seconds: float = 0.0
    """Consumer-side sleep between streamed items (the slow-drip workload)."""
    max_inflight: int = 64
    """Worker cap of the open-loop executor.  Arrivals beyond it queue —
    and their queueing time is charged to their open-loop latency, exactly
    like a real listen backlog."""
    seed: int = 1234
    expected_errors: "tuple[str, ...]" = ()
    """Exception class names the workload *intends* to provoke (e.g.
    ``RateLimitedError`` in a storm).  Anything else counts as unexpected
    and trips the gate."""
    server_rate_limit_rps: float = 0.0
    """Hint for the fixture building the app: a positive value asks for
    ``RateLimitMiddleware`` at this sustained rate.  Both transports enter
    through the app's middleware, so it applies to either."""
    faults: "FaultPlan | None" = None
    """A fault plan makes this a chaos scenario: the harness wraps the
    client in :class:`~repro.faults.client.FaultyClient` (armed at the
    run's t0, so the plan's window offsets line up with arrival offsets)
    and every injected failure must land in ``expected_errors``."""
    forced_merges: int = 0
    """How many segment merges to force at evenly spaced offsets during the
    run (``POST /datasets/{name}/merge`` from a background thread).  The
    live-ingest workload uses this to prove generation swaps are invisible
    to in-flight traffic: merge errors land in the taxonomy and trip the
    unexpected-errors gate, but the merges are non-primary so their build
    latency never skews the query tail."""
    gates: TailGates = field(default_factory=lambda: TailGates(p99_ms=500.0))

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise BenchmarkError(
                f"duration_seconds must be positive, got {self.duration_seconds}"
            )
        if self.rate_rps <= 0:
            raise BenchmarkError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.session_count < 1:
            raise BenchmarkError(f"session_count must be >= 1, got {self.session_count}")
        if self.batch_size < 1:
            raise BenchmarkError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.drip_seconds < 0:
            raise BenchmarkError(f"drip_seconds must be >= 0, got {self.drip_seconds}")
        if self.max_inflight < 1:
            raise BenchmarkError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.forced_merges < 0:
            raise BenchmarkError(
                f"forced_merges must be >= 0, got {self.forced_merges}"
            )

    def scaled(
        self,
        duration_seconds: "float | None" = None,
        rate_rps: "float | None" = None,
        session_count: "int | None" = None,
    ) -> "TrafficScenario":
        """The same workload at a different scale (for CI smoke runs).

        Rescaling the duration also rescales a fault plan's window by the
        same ratio, so a smoke run keeps the full baseline → chaos →
        recovery arc instead of compressing the run to before (or entirely
        inside) the fault window.
        """
        overrides: "dict[str, Any]" = {}
        if duration_seconds is not None:
            overrides["duration_seconds"] = duration_seconds
            if self.faults is not None and self.duration_seconds > 0:
                ratio = duration_seconds / self.duration_seconds
                stop = self.faults.window_stop_seconds
                overrides["faults"] = dataclasses.replace(
                    self.faults,
                    window_start_seconds=self.faults.window_start_seconds * ratio,
                    window_stop_seconds=None if stop is None else stop * ratio,
                )
        if rate_rps is not None:
            overrides["rate_rps"] = rate_rps
        if session_count is not None:
            overrides["session_count"] = session_count
        return dataclasses.replace(self, **overrides)

    def to_json(self) -> "dict[str, Any]":
        """A JSON-serializable dict that :meth:`from_json` reconstructs."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(payload: "Mapping[str, Any]") -> "TrafficScenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        data = dict(payload)
        try:
            mix = OpMix(**data.pop("mix"))
            burst_payload = data.pop("burst", None)
            burst = BurstProfile(**burst_payload) if burst_payload else None
            gates = TailGates(**data.pop("gates"))
            expected = tuple(data.pop("expected_errors", ()))
            faults_payload = data.pop("faults", None)
            faults = (
                FaultPlan.from_json(faults_payload) if faults_payload else None
            )
            return TrafficScenario(
                mix=mix,
                burst=burst,
                gates=gates,
                expected_errors=expected,
                faults=faults,
                **data,
            )
        except TypeError as exc:
            raise BenchmarkError(f"Malformed scenario payload: {exc}") from exc


SCENARIO_PACK: "tuple[TrafficScenario, ...]" = (
    TrafficScenario(
        name="steady",
        description="Pure feedback rounds at a steady Poisson rate — the baseline scoreboard row.",
        rate_rps=30.0,
        gates=TailGates(p99_ms=400.0, p999_ms=900.0, min_achieved_ratio=0.6),
    ),
    TrafficScenario(
        name="burst",
        description="5x arrival bursts for 20% of every second — the queueing-collapse probe.",
        rate_rps=24.0,
        burst=BurstProfile(factor=5.0, period_seconds=1.0, duty=0.2),
        gates=TailGates(p99_ms=700.0, p999_ms=1500.0, min_achieved_ratio=0.6),
    ),
    TrafficScenario(
        name="session_churn",
        description="Sessions constantly closed and restarted under live next/info traffic.",
        rate_rps=25.0,
        mix=OpMix(next_results=0.6, churn=0.3, info=0.1),
        gates=TailGates(p99_ms=600.0, min_achieved_ratio=0.6),
    ),
    TrafficScenario(
        name="mixed_ratio",
        description="Blended next / NDJSON-stream / info traffic in one arrival process.",
        rate_rps=25.0,
        mix=OpMix(next_results=0.45, stream=0.35, info=0.2),
        gates=TailGates(p99_ms=600.0, min_achieved_ratio=0.6),
    ),
    TrafficScenario(
        name="slow_drip",
        description="Streaming consumers that sip one item at a time — slow-reader back-pressure.",
        rate_rps=12.0,
        mix=OpMix(next_results=0.0, stream=1.0),
        drip_seconds=0.02,
        gates=TailGates(p99_ms=1200.0, min_achieved_ratio=0.5),
    ),
    TrafficScenario(
        name="feedback_replay",
        description="Adversarial idempotency traffic: duplicate keys, then conflicting payloads.",
        rate_rps=20.0,
        mix=OpMix(next_results=0.4, feedback_replay=0.6),
        expected_errors=("IdempotencyConflictError",),
        gates=TailGates(p99_ms=600.0, min_achieved_ratio=0.6),
    ),
    TrafficScenario(
        name="rate_limit_storm",
        description="Arrivals far above the server's token bucket — the 429 path under fire.",
        rate_rps=80.0,
        burst=BurstProfile(factor=3.0, period_seconds=1.0, duty=0.3),
        server_rate_limit_rps=40.0,
        # A 429 mid-round leaves sessions the harness has to recycle; the
        # close/start/next races that recycling loses under the storm
        # surface as session-liveness errors, which are part of the
        # workload's intended chaos — anything else still trips the gate.
        expected_errors=(
            "RateLimitedError",
            "SessionError",
            "UnknownResourceError",
        ),
        gates=TailGates(p99_ms=800.0, min_achieved_ratio=0.2),
    ),
    TrafficScenario(
        name="live_ingest",
        description=(
            "Queries racing live upserts with forced segment merges mid-run "
            "— the zero-downtime proof for the mutable dataset tier."
        ),
        duration_seconds=6.0,
        rate_rps=20.0,
        mix=OpMix(next_results=0.7, info=0.1, mutate=0.2),
        forced_merges=2,
        # The delta cap backpressures writers with a typed 503 when ingest
        # outruns merging — that is the intended shedding path.  Anything
        # else (a query failing mid-swap, a stale-generation crash) is
        # exactly what this scenario exists to catch.
        expected_errors=("ServiceOverloadedError",),
        gates=TailGates(p99_ms=800.0, p999_ms=2000.0, min_achieved_ratio=0.5),
    ),
    TrafficScenario(
        name="chaos",
        description=(
            "Windowed fault injection over mixed traffic: latency, 500s, "
            "resets, truncated streams, and skewed deadlines — the resilience "
            "layer's proof run."
        ),
        duration_seconds=6.0,
        rate_rps=20.0,
        mix=OpMix(next_results=0.7, stream=0.2, info=0.1),
        faults=FaultPlan(
            seed=97,
            latency_ms=80.0,
            latency_probability=0.15,
            error_probability=0.08,
            reset_probability=0.08,
            truncate_probability=0.05,
            skew_probability=0.05,
            window_start_seconds=1.5,
            window_stop_seconds=4.0,
        ),
        # Every fault family surfaces as its typed error; the session
        # recycling a mid-round failure forces can itself lose close/start
        # races, which shows up as session-liveness errors.  Anything
        # outside this taxonomy (raw socket errors, harness crashes) trips
        # the gate — that is the scenario's whole point.
        expected_errors=(
            "InternalServiceError",
            "ConnectionFailedError",
            "TransportError",
            "DeadlineExceededError",
            "CircuitOpenError",
            "SessionError",
            "UnknownResourceError",
        ),
        gates=TailGates(
            p99_ms=1500.0,
            min_achieved_ratio=0.4,
            recovery_p99_ms=600.0,
        ),
    ),
)
"""The shipped scenario pack — ISSUE/ROADMAP's named load shapes plus the
steady baseline every scaling PR reports against and the ``chaos``
fault-injection run the resilience layer gates on."""


def scenario_names() -> "tuple[str, ...]":
    """The names in :data:`SCENARIO_PACK`, in pack order."""
    return tuple(scenario.name for scenario in SCENARIO_PACK)


def get_scenario(name: str) -> TrafficScenario:
    """Look a pack scenario up by name."""
    for scenario in SCENARIO_PACK:
        if scenario.name == name:
            return scenario
    raise BenchmarkError(
        f"Unknown traffic scenario '{name}'; pack has {', '.join(scenario_names())}"
    )
