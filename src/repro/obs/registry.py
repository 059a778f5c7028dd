"""Thread-safe metrics registry: counters, gauges, bucketed histograms.

The measurement layer every serving component records into.  Three metric
kinds cover the stack's needs:

* :class:`Counter` — a monotone float (requests served, cache hits);
* :class:`Gauge` — a point-in-time value, either set explicitly or read
  through a callback at collection time (live session count);
* :class:`Histogram` — fixed upper-bound buckets with a running sum and
  count; p50/p99/p999 are *estimated* from the bucket counts by linear
  interpolation, so observation is O(log buckets) with no sample retention.

Labelled metrics go through a :class:`MetricFamily` whose child-series table
is **bounded**: past ``max_series`` distinct label sets, new label values
collapse into one ``_overflow`` series.  A mislabelled caller (say, a raw
URL used as a label) can therefore never grow the registry without bound —
the overflow series grows instead, and the exposition stays scrapeable.

One process-global registry (:func:`get_registry`) is the default sink; the
service layer and the tests can swap in private instances
(:func:`set_registry`, or the ``registry=`` parameters threaded through the
server stack) when isolation matters.

Exposition comes in two formats, both rendered from the same snapshot:
:meth:`MetricsRegistry.to_prometheus_text` (the ``text/plain; version=0.0.4``
scrape format) and :meth:`MetricsRegistry.to_json` (the ``/v1/metrics``
JSON body, quantile estimates included).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Mapping, Sequence

from repro.exceptions import ReproError


class MetricsError(ReproError):
    """Raised on inconsistent metric registration or bad observations."""


DEFAULT_LATENCY_BUCKETS: "tuple[float, ...]" = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)
"""Latency bucket upper bounds (seconds): 100µs to 10s, roughly 1-2.5-5 per
decade.  Wide enough that the same buckets serve both the sub-millisecond
engine stages and full request round trips, so every latency series in the
catalog is directly comparable."""

OVERFLOW_LABEL_VALUE = "_overflow"
"""The label value unseen label sets collapse into once a family reaches its
series bound."""


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    """Prometheus-friendly number rendering (no trailing float noise)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(names: "tuple[str, ...]", values: "tuple[str, ...]") -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value (one series)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricsError(f"Counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value: set explicitly or computed by a callback."""

    __slots__ = ("_lock", "_value", "callback")

    def __init__(self, callback: "Callable[[], float] | None" = None) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self.callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self.callback is not None:
            return float(self.callback())
        return self._value


class Histogram:
    """Fixed-bucket latency/size histogram with interpolated quantiles.

    ``bounds`` are inclusive upper bounds (Prometheus ``le`` semantics: an
    observation equal to a bound lands in that bound's bucket); one implicit
    ``+Inf`` bucket catches everything above the last bound.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: "Sequence[float]" = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise MetricsError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(f"bucket bounds must be strictly increasing: {bounds}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    # -- reads ---------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> "tuple[list[int], float, int]":
        """A consistent ``(bucket_counts, sum, count)`` triple."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the bucket the target rank falls in,
        with the previous bound (or 0) as the bucket's lower edge.  Ranks in
        the ``+Inf`` bucket clamp to the last finite bound — the honest
        answer given no per-sample retention.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        counts, _, total = self.snapshot()
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.bounds[-1]


_KIND_FACTORIES: "dict[str, Callable[..., Any]]" = {
    "counter": lambda bounds: Counter(),
    "gauge": lambda bounds: Gauge(),
    "histogram": lambda bounds: Histogram(bounds),
}


class MetricFamily:
    """One named metric and its labelled child series (bounded)."""

    __slots__ = ("name", "help", "kind", "label_names", "bounds", "max_series",
                 "_lock", "_children")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: "tuple[str, ...]" = (),
        bounds: "Sequence[float] | None" = None,
        max_series: int = 64,
    ) -> None:
        if kind not in _KIND_FACTORIES:
            raise MetricsError(f"Unknown metric kind '{kind}'")
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = tuple(label_names)
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        self.max_series = int(max_series)
        self._lock = threading.Lock()
        self._children: "dict[tuple[str, ...], Any]" = {}
        if not self.label_names:
            # Unlabelled families always expose exactly one series.
            self._children[()] = _KIND_FACTORIES[kind](self.bounds)

    def labels(self, *values: object, **kw: object) -> Any:
        """The child series for one label-value set (created on first use).

        Past ``max_series`` distinct sets, unseen sets collapse into the
        ``_overflow`` series so cardinality mistakes cannot grow the
        registry without bound.
        """
        if kw:
            if values:
                raise MetricsError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kw[name]) for name in self.label_names)
            except KeyError as exc:
                raise MetricsError(
                    f"Metric '{self.name}' labels are {self.label_names}, got {tuple(kw)}"
                ) from exc
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.label_names):
            raise MetricsError(
                f"Metric '{self.name}' expects {len(self.label_names)} label "
                f"values {self.label_names}, got {len(values)}"
            )
        child = self._children.get(values)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(values)
            if child is not None:
                return child
            if len(self._children) >= self.max_series:
                values = (OVERFLOW_LABEL_VALUE,) * len(self.label_names)
                child = self._children.get(values)
                if child is not None:
                    return child
            child = _KIND_FACTORIES[self.kind](self.bounds)
            self._children[values] = child
            return child

    @property
    def series_count(self) -> int:
        return len(self._children)

    # -- unlabelled conveniences ---------------------------------------
    def _solo(self) -> Any:
        if self.label_names:
            raise MetricsError(
                f"Metric '{self.name}' is labelled {self.label_names}; "
                "use .labels(...)"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    @property
    def value(self) -> float:
        return self._solo().value

    def quantile(self, q: float) -> float:
        return self._solo().quantile(q)

    # -- collection ----------------------------------------------------
    def collect(self) -> "list[tuple[tuple[str, ...], Any]]":
        """A stable snapshot of ``(label_values, child)`` pairs."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A named table of metric families with idempotent registration."""

    def __init__(self, max_series_per_metric: int = 64) -> None:
        self._lock = threading.Lock()
        self._families: "dict[str, MetricFamily]" = {}
        self.max_series_per_metric = int(max_series_per_metric)

    # -- registration (get-or-create, so callers need no startup order) --
    def _register(
        self,
        name: str,
        help: str,
        kind: str,
        labels: "Sequence[str]" = (),
        bounds: "Sequence[float] | None" = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(labels):
                    raise MetricsError(
                        f"Metric '{name}' already registered as {family.kind}"
                        f"{family.label_names}, cannot re-register as "
                        f"{kind}{tuple(labels)}"
                    )
                return family
            family = MetricFamily(
                name,
                help,
                kind,
                tuple(labels),
                bounds=bounds,
                max_series=self.max_series_per_metric,
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: "Sequence[str]" = ()
    ) -> MetricFamily:
        return self._register(name, help, "counter", labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: "Sequence[str]" = (),
        callback: "Callable[[], float] | None" = None,
    ) -> MetricFamily:
        family = self._register(name, help, "gauge", labels)
        if callback is not None:
            # Live gauges re-read their source at collection; the latest
            # registrant owns the callback (one live value per name).
            family._solo().callback = callback
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: "Sequence[str]" = (),
        buckets: "Sequence[float]" = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, help, "histogram", labels, bounds=buckets)

    # -- reads ---------------------------------------------------------
    def families(self) -> "list[MetricFamily]":
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> "MetricFamily | None":
        with self._lock:
            return self._families.get(name)

    # -- exposition ----------------------------------------------------
    def to_prometheus_text(self) -> str:
        """The ``text/plain; version=0.0.4`` scrape body."""
        lines: "list[str]" = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.collect():
                labelset = _render_labels(family.label_names, values)
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        f"{family.name}{labelset} {_format_number(child.value)}"
                    )
                    continue
                counts, total_sum, total_count = child.snapshot()
                cumulative = 0
                for bound, bucket_count in zip(child.bounds, counts):
                    cumulative += bucket_count
                    bucket_labels = _render_labels(
                        family.label_names + ("le",),
                        values + (_format_number(bound),),
                    )
                    lines.append(f"{family.name}_bucket{bucket_labels} {cumulative}")
                cumulative += counts[-1]
                inf_labels = _render_labels(
                    family.label_names + ("le",), values + ("+Inf",)
                )
                lines.append(f"{family.name}_bucket{inf_labels} {cumulative}")
                lines.append(f"{family.name}_sum{labelset} {_format_number(total_sum)}")
                lines.append(f"{family.name}_count{labelset} {total_count}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> "dict[str, Any]":
        """The JSON exposition body (same snapshot, quantiles included)."""
        metrics: "list[dict[str, Any]]" = []
        for family in self.families():
            series: "list[dict[str, Any]]" = []
            for values, child in family.collect():
                labels: "Mapping[str, str]" = dict(zip(family.label_names, values))
                if family.kind in ("counter", "gauge"):
                    series.append({"labels": labels, "value": child.value})
                    continue
                counts, total_sum, total_count = child.snapshot()
                series.append(
                    {
                        "labels": labels,
                        "count": total_count,
                        "sum": total_sum,
                        "buckets": [
                            [_format_number(bound), count]
                            for bound, count in zip(child.bounds, counts)
                        ]
                        + [["+Inf", counts[-1]]],
                        "p50": child.quantile(0.50),
                        "p99": child.quantile(0.99),
                        "p999": child.quantile(0.999),
                    }
                )
            metrics.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "series": series,
                }
            )
        return {"metrics": metrics}


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
