"""Span-based tracing: per-stage wall-clock durations on the hot path.

A span is one timed stage of one request: ``score``, ``pool``, ``select``,
``merge``, ``rerank``, ``lock_wait``.  Opening one is a context manager::

    with trace_span("score", shard=3):
        scores = store.score_all(query)

On exit the span's duration is recorded twice:

* into the ``seesaw_stage_seconds{stage=...}`` histogram of the configured
  registry — the cross-request aggregate the ``/v1/metrics`` endpoint
  exposes; and
* into the **per-request trace collector**, a :class:`contextvars.ContextVar`
  the access-log middleware opens around each request.  The HTTP server is
  thread-per-request and the in-process client runs on the caller's thread,
  so context isolation falls out of ``contextvars`` with no plumbing: any
  span opened below the middleware lands in that request's collector.  The
  slow-request log reads the collector to attach a per-stage breakdown to
  the offending request id.

The request id set by ``RequestIdMiddleware`` rides the same mechanism
(:func:`set_request_id` / :func:`current_request_id`), so any layer can tag
diagnostics with the originating request without threading an argument
through five call frames.

**Disabled mode is the default-off cost model**: when telemetry is off
(:func:`configure` with ``enabled=False``), :func:`trace_span` returns one
shared immutable no-op singleton — no span object, no timestamp, no registry
touch.  The only per-call work is a truthiness check and (when keyword attrs
are passed) the ``**attrs`` dict the call site itself creates.  The
``table6_telemetry_overhead`` benchmark gates the *enabled* cost below 5%
per engine round.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from time import perf_counter
from typing import Any

from repro.obs.registry import MetricsRegistry, get_registry

STAGE_METRIC = "seesaw_stage_seconds"
"""Histogram family every span records into, labelled by stage name."""

STAGE_HELP = (
    "Per-stage wall-clock durations from hot-path trace spans "
    "(score/pool/select/merge/rerank/graph_descent/lock_wait/labels/align)."
)


class _Runtime:
    """Process-global tracing switchboard (one instance, module-level)."""

    __slots__ = (
        "enabled",
        "_registry",
        "_stage_registry",
        "_stage_family",
        "_stage_children",
    )

    def __init__(self) -> None:
        self.enabled = True
        self._registry: "MetricsRegistry | None" = None
        self._stage_registry: "MetricsRegistry | None" = None
        self._stage_family = None
        self._stage_children: "dict[str, Any]" = {}

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def stage_family(self):
        registry = self.registry
        if self._stage_registry is not registry:
            self._stage_family = registry.histogram(
                STAGE_METRIC, STAGE_HELP, labels=("stage",)
            )
            self._stage_children = {}
            self._stage_registry = registry
        return self._stage_family

    def stage_child(self, stage: str):
        """The ``{stage=...}`` histogram child, memoized for the hot path.

        A span exit must not take the registry lock, so resolved children
        are cached per stage name; the cache follows registry swaps (both
        :func:`configure` and global :func:`~repro.obs.registry.set_registry`)
        by identity-checking the active registry on every call.
        """
        child = self._stage_children.get(stage)
        if child is not None and self._stage_registry is self.registry:
            return child
        child = self.stage_family().labels(stage)
        self._stage_children[stage] = child
        return child


_RUNTIME = _Runtime()

_request_id_var: "ContextVar[str | None]" = ContextVar(
    "seesaw_request_id", default=None
)
_trace_var: "ContextVar[RequestTrace | None]" = ContextVar(
    "seesaw_request_trace", default=None
)


def configure(
    enabled: "bool | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Point the tracing runtime at a registry and flip the master switch.

    Called by ``SeeSawService`` from ``SeeSawConfig.telemetry``; tests call
    it directly to isolate or silence the runtime.  ``registry=None`` keeps
    following the process-global registry (including later
    :func:`~repro.obs.registry.set_registry` swaps).
    """
    if enabled is not None:
        _RUNTIME.enabled = bool(enabled)
    _RUNTIME._registry = registry
    _RUNTIME._stage_registry = None  # invalidate the memoized children


def tracing_enabled() -> bool:
    return _RUNTIME.enabled


def trace_registry() -> MetricsRegistry:
    """The registry spans currently record into."""
    return _RUNTIME.registry


# ----------------------------------------------------------------------
# request id propagation
# ----------------------------------------------------------------------
def set_request_id(request_id: "str | None") -> "Token[str | None]":
    """Bind the current request id to this context; returns the reset token."""
    return _request_id_var.set(request_id)


def reset_request_id(token: "Token[str | None]") -> None:
    _request_id_var.reset(token)


def current_request_id() -> "str | None":
    """The request id bound by ``RequestIdMiddleware``, if inside a request."""
    return _request_id_var.get()


# ----------------------------------------------------------------------
# per-request span collection
# ----------------------------------------------------------------------
class RequestTrace:
    """Accumulated span durations for one request (stage -> count/total)."""

    __slots__ = ("stages",)

    def __init__(self) -> None:
        self.stages: "dict[str, list[float]]" = {}

    def record(self, stage: str, seconds: float) -> None:
        entry = self.stages.get(stage)
        if entry is None:
            self.stages[stage] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def stage_millis(self) -> "dict[str, float]":
        """Per-stage totals in milliseconds (for the slow-request record)."""
        return {
            stage: round(total * 1000.0, 3)
            for stage, (_, total) in sorted(self.stages.items())
        }


def begin_request_trace() -> "Token[RequestTrace | None]":
    """Open a fresh span collector for the current context."""
    return _trace_var.set(RequestTrace())


def current_request_trace() -> "RequestTrace | None":
    return _trace_var.get()


def end_request_trace(token: "Token[RequestTrace | None]") -> "RequestTrace | None":
    """Close the collector opened by :func:`begin_request_trace`."""
    trace = _trace_var.get()
    _trace_var.reset(token)
    return trace


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def observe_stage(stage: str, seconds: float) -> None:
    """Record an explicitly measured duration as if a span had wrapped it.

    The recording half of a span, for stages a context manager cannot
    bracket (:class:`timed_acquire` times only the wait for a lock).
    """
    if _RUNTIME.enabled:
        _RUNTIME.stage_child(stage).observe(seconds)
    trace = _trace_var.get()
    if trace is not None:
        trace.record(stage, seconds)


class _Span:
    """A live timed span (only allocated when tracing is enabled)."""

    __slots__ = ("name", "attrs", "started", "elapsed")

    def __init__(self, name: str, attrs: "dict[str, Any]") -> None:
        self.name = name
        self.attrs = attrs
        self.started = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        self.started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = perf_counter() - self.started
        observe_stage(self.name, self.elapsed)


class _NoopSpan:
    """The shared disabled-mode span: enter/exit do nothing, record nothing."""

    __slots__ = ()

    name = ""
    attrs: "dict[str, Any]" = {}
    elapsed = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NOOP_SPAN = _NoopSpan()


def trace_span(name: str, **attrs: Any) -> "_Span | _NoopSpan":
    """A context manager timing one named stage of the current request.

    Enabled: returns a fresh :class:`_Span` that records its duration into
    the stage histogram and the per-request collector on exit.  Disabled:
    returns the shared :data:`NOOP_SPAN` singleton — the fast path allocates
    no span and touches no clock.  ``attrs`` are advisory context kept on
    the span object (shard index, row count); they are not exported as
    metric labels, which keeps span cardinality bounded by design.
    """
    if not _RUNTIME.enabled:
        return NOOP_SPAN
    return _Span(name, attrs)


class timed_acquire:
    """Context manager acquiring ``lock`` with the wait timed as a span.

    Only the time spent *waiting for* the lock is recorded (stage
    ``lock_wait`` by default), not the time spent holding it — the wait is
    the contention signal the scatter-gather roadmap item needs.
    """

    __slots__ = ("lock", "stage")

    def __init__(self, lock: Any, stage: str = "lock_wait") -> None:
        self.lock = lock
        self.stage = stage

    def __enter__(self) -> Any:
        if not _RUNTIME.enabled:
            self.lock.acquire()
            return self.lock
        started = perf_counter()
        self.lock.acquire()
        observe_stage(self.stage, perf_counter() - started)
        return self.lock

    def __exit__(self, *exc_info: object) -> None:
        self.lock.release()
