"""The fault plan: what to inject, how often, inside which window.

A :class:`FaultPlan` is plain frozen data that JSON-round-trips, so a
config file, a local soak and the chaos-window test
(``tests/integration/test_scripted_load.py``) all name the exact same fault
workload.  Probabilities are per *opportunity* (one request through the
chaos middleware, one protocol call through the fault transport); the
window bounds when faults fire, so a run has a clean pre-fault baseline and
a post-fault recovery phase that test checks call by call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class FaultPlan:
    """One fault-injection workload, shared by both injectors.

    The server-side :class:`~repro.faults.middleware.ChaosMiddleware` uses
    ``latency`` and ``error`` (it sits above the router, so resets and
    stream truncation are not its to fake); the client-side
    :class:`~repro.faults.client.FaultyClient` uses all five families.
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

    @property
    def any_faults(self) -> bool:
        """True when at least one fault family can fire."""
        return any(
            getattr(self, name) > 0.0
            for name in (
                "latency_probability",
                "error_probability",
                "reset_probability",
                "truncate_probability",
                "skew_probability",
            )
        )

    def to_json(self) -> "dict[str, Any]":
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(payload: "Mapping[str, Any]") -> "FaultPlan":
        try:
            return FaultPlan(**dict(payload))
        except TypeError as exc:
            raise ConfigurationError(f"Malformed fault plan: {exc}") from exc
