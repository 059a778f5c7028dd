"""Observability subsystem: metrics registry, tracing spans, exposition.

``repro.obs`` is the measurement layer the serving stack records into —
see :mod:`repro.obs.registry` for the metric model and
:mod:`repro.obs.trace` for hot-path spans.  ``docs/observability.md`` holds
the metric catalog and span taxonomy.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsError,
    MetricsRegistry,
    OVERFLOW_LABEL_VALUE,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    NOOP_SPAN,
    STAGE_METRIC,
    RequestTrace,
    begin_request_trace,
    configure,
    current_request_id,
    current_request_trace,
    end_request_trace,
    observe_stage,
    reset_request_id,
    set_request_id,
    timed_acquire,
    trace_registry,
    trace_span,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsError",
    "MetricsRegistry",
    "OVERFLOW_LABEL_VALUE",
    "get_registry",
    "set_registry",
    "NOOP_SPAN",
    "STAGE_METRIC",
    "RequestTrace",
    "begin_request_trace",
    "configure",
    "current_request_id",
    "current_request_trace",
    "end_request_trace",
    "observe_stage",
    "reset_request_id",
    "set_request_id",
    "timed_acquire",
    "trace_registry",
    "trace_span",
    "tracing_enabled",
]
