"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the registry invariants the rest of the stack leans on: counter
correctness under thread contention, inclusive bucket-edge semantics,
bounded label cardinality (the ``_overflow`` collapse), idempotent
registration with kind/label mismatch errors, both exposition formats, and
the disabled-mode fast path of the tracing runtime (the shared no-op span).
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NOOP_SPAN,
    OVERFLOW_LABEL_VALUE,
    Histogram,
    MetricsError,
    MetricsRegistry,
    RequestTrace,
    begin_request_trace,
    configure,
    current_request_id,
    end_request_trace,
    get_registry,
    observe_stage,
    reset_request_id,
    set_request_id,
    timed_acquire,
    trace_registry,
    trace_span,
    tracing_enabled,
)
from repro.obs.trace import STAGE_METRIC


@pytest.fixture(autouse=True)
def restore_trace_runtime():
    """Leave the process-global tracing runtime as these tests found it."""
    was_enabled = tracing_enabled()
    yield
    configure(enabled=was_enabled, registry=None)


# ---------------------------------------------------------------------------
# counters and gauges
# ---------------------------------------------------------------------------
class TestCounter:
    def test_parallel_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("test_total", "help")
        threads_n, incs_n = 8, 2000

        def hammer() -> None:
            for _ in range(incs_n):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert counter.value == threads_n * incs_n

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("test_total")
        with pytest.raises(MetricsError, match=">= 0"):
            counter.inc(-1.0)

    def test_weighted_increment(self):
        counter = MetricsRegistry().counter("test_total")
        counter.inc(5)
        counter.inc(0)
        assert counter.value == 5.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("test_gauge")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == 7.0

    def test_callback_gauge_reads_live_value(self):
        sessions = ["a", "b"]
        registry = MetricsRegistry()
        gauge = registry.gauge(
            "test_live", callback=lambda: float(len(sessions))
        )
        assert gauge.value == 2.0
        sessions.append("c")
        assert gauge.value == 3.0
        # Exposition reads through the callback too.
        assert "test_live 3" in registry.to_prometheus_text()

    def test_latest_callback_registrant_wins(self):
        registry = MetricsRegistry()
        registry.gauge("test_live", callback=lambda: 1.0)
        gauge = registry.gauge("test_live", callback=lambda: 2.0)
        assert gauge.value == 2.0


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------
class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        """Prometheus ``le`` semantics: a value equal to a bound lands in it."""
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        histogram.observe(1.0)  # exactly the first bound
        histogram.observe(2.0)  # exactly the second
        histogram.observe(4.0)  # exactly the last finite bound
        histogram.observe(4.00001)  # just past it -> +Inf bucket
        counts, total_sum, total_count = histogram.snapshot()
        assert counts == [1, 1, 1, 1]
        assert total_count == 4
        assert total_sum == pytest.approx(11.00001)

    def test_below_first_bound_lands_in_first_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(0.0)
        histogram.observe(0.5)
        counts, _, _ = histogram.snapshot()
        assert counts == [2, 0, 0]

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(MetricsError, match="strictly increasing"):
            Histogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(MetricsError, match="at least one"):
            Histogram(bounds=())

    def test_quantiles_interpolate_within_buckets(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        for _ in range(100):
            histogram.observe(1.5)  # all rank mass in the (1, 2] bucket
        # Interpolation puts every quantile inside that bucket's range.
        assert 1.0 <= histogram.quantile(0.50) <= 2.0
        assert 1.0 <= histogram.quantile(0.99) <= 2.0

    def test_quantile_clamps_to_last_bound_for_inf_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 2.0

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_bounds_validated(self):
        with pytest.raises(MetricsError, match="quantile"):
            Histogram().quantile(1.5)

    def test_parallel_observations_are_not_lost(self):
        histogram = Histogram(bounds=DEFAULT_LATENCY_BUCKETS)
        threads_n, obs_n = 8, 1000

        def hammer() -> None:
            for _ in range(obs_n):
                histogram.observe(0.01)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        counts, total_sum, total_count = histogram.snapshot()
        assert total_count == threads_n * obs_n
        assert sum(counts) == threads_n * obs_n
        assert total_sum == pytest.approx(0.01 * threads_n * obs_n)


# ---------------------------------------------------------------------------
# families, labels, cardinality
# ---------------------------------------------------------------------------
class TestLabelCardinality:
    def test_overflow_collapse_past_max_series(self):
        registry = MetricsRegistry(max_series_per_metric=3)
        family = registry.counter("test_total", labels=("route",))
        family.labels("/a").inc()
        family.labels("/b").inc()
        family.labels("/c").inc()
        # The table is full: every unseen label value collapses into one
        # overflow series instead of growing the registry.
        family.labels("/d").inc()
        family.labels("/e").inc(2)
        assert family.series_count == 4  # 3 real + 1 overflow
        assert family.labels(OVERFLOW_LABEL_VALUE).value == 3.0
        # Known label sets keep resolving to their own series.
        family.labels("/a").inc()
        assert family.labels("/a").value == 2.0

    def test_label_arity_enforced(self):
        family = MetricsRegistry().counter("test_total", labels=("a", "b"))
        with pytest.raises(MetricsError, match="2 label"):
            family.labels("only-one")

    def test_keyword_labels_resolve_in_declared_order(self):
        family = MetricsRegistry().counter("test_total", labels=("a", "b"))
        family.labels(b="2", a="1").inc()
        assert family.labels("1", "2").value == 1.0
        with pytest.raises(MetricsError, match="labels are"):
            family.labels(wrong="x")

    def test_unlabelled_family_rejects_solo_shortcut_when_labelled(self):
        family = MetricsRegistry().counter("test_total", labels=("route",))
        with pytest.raises(MetricsError, match="use .labels"):
            family.inc()


class TestRegistration:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("test_total", "help")
        second = registry.counter("test_total", "different help ignored")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("test_metric")
        with pytest.raises(MetricsError, match="already registered"):
            registry.histogram("test_metric")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("test_total", labels=("a",))
        with pytest.raises(MetricsError, match="already registered"):
            registry.counter("test_total", labels=("a", "b"))


# ---------------------------------------------------------------------------
# exposition
# ---------------------------------------------------------------------------
class TestExposition:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        requests = registry.counter(
            "demo_requests_total", "Requests served.", labels=("route",)
        )
        requests.labels("/v1/metrics").inc(3)
        latency = registry.histogram(
            "demo_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        latency.observe(0.05)
        latency.observe(0.5)
        latency.observe(5.0)
        return registry

    def test_prometheus_text_shape(self):
        text = self.make_registry().to_prometheus_text()
        assert "# HELP demo_requests_total Requests served." in text
        assert "# TYPE demo_requests_total counter" in text
        assert 'demo_requests_total{route="/v1/metrics"} 3' in text
        # Histogram buckets are cumulative, with the +Inf catch-all.
        assert 'demo_seconds_bucket{le="0.1"} 1' in text
        assert 'demo_seconds_bucket{le="1"} 2' in text
        assert 'demo_seconds_bucket{le="+Inf"} 3' in text
        assert "demo_seconds_sum 5.55" in text
        assert "demo_seconds_count 3" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("test_total", labels=("path",)).labels('a"b\\c\nd').inc()
        text = registry.to_prometheus_text()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_json_shape(self):
        payload = self.make_registry().to_json()
        by_name = {metric["name"]: metric for metric in payload["metrics"]}
        counter = by_name["demo_requests_total"]
        assert counter["type"] == "counter"
        assert counter["series"] == [
            {"labels": {"route": "/v1/metrics"}, "value": 3.0}
        ]
        histogram = by_name["demo_seconds"]
        [series] = histogram["series"]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(5.55)
        # Per-bucket (non-cumulative) counts, bounds rendered as strings.
        assert series["buckets"] == [["0.1", 1], ["1", 1], ["+Inf", 1]]
        assert 0.0 < series["p50"] <= 1.0
        assert series["p99"] == 1.0  # clamped: the p99 rank is in +Inf


# ---------------------------------------------------------------------------
# tracing runtime
# ---------------------------------------------------------------------------
class TestTraceSpans:
    def test_disabled_mode_returns_shared_noop_singleton(self):
        """The disabled fast path: no span allocation, no registry series."""
        registry = MetricsRegistry()
        configure(enabled=False, registry=registry)
        span = trace_span("score", shard=3)
        assert span is NOOP_SPAN
        assert trace_span("pool") is NOOP_SPAN  # same object every call
        with span:
            pass
        assert registry.get(STAGE_METRIC) is None  # nothing ever registered
        assert span.elapsed == 0.0

    def test_enabled_span_records_stage_histogram(self):
        registry = MetricsRegistry()
        configure(enabled=True, registry=registry)
        with trace_span("score") as span:
            pass
        assert span.elapsed >= 0.0
        family = registry.get(STAGE_METRIC)
        assert family is not None
        child = family.labels("score")
        assert child.count == 1
        assert child.sum == pytest.approx(span.elapsed)

    def test_span_also_lands_in_request_trace_collector(self):
        configure(enabled=True, registry=MetricsRegistry())
        token = begin_request_trace()
        try:
            with trace_span("score"):
                pass
            with trace_span("score"):
                pass
            with trace_span("pool"):
                pass
        finally:
            trace = end_request_trace(token)
        assert trace is not None
        assert trace.stages["score"][0] == 2
        assert set(trace.stage_millis()) == {"pool", "score"}

    def test_observe_stage_feeds_trace_even_when_disabled(self):
        """The collector is per-request diagnostics, not metrics: it keeps
        working with the registry switch off (slow logs stay complete)."""
        registry = MetricsRegistry()
        configure(enabled=False, registry=registry)
        token = begin_request_trace()
        try:
            observe_stage("lock_wait", 0.25)
        finally:
            trace = end_request_trace(token)
        assert trace.stage_millis() == {"lock_wait": 250.0}
        assert registry.get(STAGE_METRIC) is None

    def test_configure_registry_none_follows_global(self):
        private = MetricsRegistry()
        configure(enabled=True, registry=private)
        assert trace_registry() is private
        configure(registry=None)
        assert trace_registry() is get_registry()

    def test_timed_acquire_times_only_the_wait(self):
        registry = MetricsRegistry()
        configure(enabled=True, registry=registry)
        lock = threading.Lock()
        with timed_acquire(lock):
            assert lock.locked()
        assert not lock.locked()
        child = registry.get(STAGE_METRIC).labels("lock_wait")
        assert child.count == 1
        # Uncontended acquire: the recorded wait is tiny, not the hold time.
        assert child.sum < 1.0

    def test_timed_acquire_skips_clock_when_disabled(self):
        registry = MetricsRegistry()
        configure(enabled=False, registry=registry)
        lock = threading.Lock()
        with timed_acquire(lock):
            assert lock.locked()
        assert not lock.locked()
        assert registry.get(STAGE_METRIC) is None

    def test_request_id_binding_round_trips(self):
        assert current_request_id() is None
        token = set_request_id("req-123")
        try:
            assert current_request_id() == "req-123"
        finally:
            reset_request_id(token)
        assert current_request_id() is None

    def test_request_trace_accumulates_per_stage(self):
        trace = RequestTrace()
        trace.record("score", 0.001)
        trace.record("score", 0.002)
        assert trace.stages["score"] == [2, pytest.approx(0.003)]


class TestUpdateSpans:
    def test_feedback_round_collects_labels_and_align(
        self, tiny_dataset, tiny_clip, caplog
    ):
        """The request that completes a page runs the update, and its span
        collector (read back from the slow-request log) holds both halves."""
        from repro.config import SeeSawConfig, TelemetryConfig
        from repro.server import (
            FeedbackRequest,
            InProcessClient,
            SeeSawApp,
            SeeSawService,
            SessionManager,
            StartSessionRequest,
        )

        config = SeeSawConfig(
            embedding_dim=64, seed=7, telemetry=TelemetryConfig(slow_request_ms=1e-6)
        )
        service = SeeSawService(config, registry=MetricsRegistry())
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        client = InProcessClient(SeeSawApp(SessionManager(service)))
        info = client.start_session(
            StartSessionRequest(dataset=tiny_dataset.name, text_query="cat_easy", batch_size=2)
        )
        page = client.next_results(info.session_id)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.server.slow"):
            for item in page.items:
                client.give_feedback(
                    FeedbackRequest(info.session_id, item.image_id, relevant=False)
                )
        stages = [record.stages for record in caplog.records]
        assert len(stages) == 2
        assert "labels" not in stages[0] and "align" not in stages[0]
        assert {"labels", "align"} <= set(stages[1])
