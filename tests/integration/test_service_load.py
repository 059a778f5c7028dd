"""HTTP load/soak test: concurrent mixed traffic against a sharded server.

~32 client threads drive start/next/feedback/close traffic against a real
socket server whose store is sharded — per-session locks, the shard thread
pool and the registry under fire at once.  The assertions are the ones that
matter under concurrency:

* **no cross-session leakage** — a session never sees an image twice across
  its own batches (its SeenMask is honored while other sessions' rounds run);
* **no deadlocks** — every worker finishes within the join timeout;
* **capacity and liveness errors survive concurrency** — over-capacity
  starts still come back 503, requests for closed sessions still come back
  404.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import ServiceOverloadedError, UnknownResourceError
from repro.server import (
    FeedbackRequest,
    HTTPClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    serve_in_background,
)

WORKERS = 32
CAPACITY = 24
ROUNDS = 3
BATCH_SIZE = 2


@pytest.fixture(scope="module")
def loaded_server(tiny_dataset, tiny_clip):
    """A sharded server with capacity below the worker count."""
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7, n_shards=3))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    manager = SessionManager(service, max_sessions=CAPACITY)
    with serve_in_background(SeeSawApp(manager)) as server:
        yield server, manager


def test_load_soak_mixed_traffic(loaded_server):
    server, manager = loaded_server
    start_barrier = threading.Barrier(WORKERS, timeout=30.0)
    traffic_barrier = threading.Barrier(WORKERS, timeout=30.0)
    overloaded: "list[str]" = []
    leaks: "list[str]" = []
    errors: "list[BaseException]" = []
    record_lock = threading.Lock()

    def worker(worker_id: int) -> None:
        client = HTTPClient(server.url)
        session_id: "str | None" = None
        try:
            # Phase 1: everyone starts at once against CAPACITY slots; the
            # losers must get a clean 503, not a hang or a stack trace.
            start_barrier.wait()
            try:
                info = client.start_session(
                    StartSessionRequest(
                        dataset="tiny",
                        text_query=f"a cat_easy {worker_id}",
                        batch_size=BATCH_SIZE,
                    )
                )
                session_id = info.session_id
            except ServiceOverloadedError:
                with record_lock:
                    overloaded.append(f"worker-{worker_id}")
            traffic_barrier.wait()
            if session_id is None:
                return
            # Phase 2: mixed next/feedback rounds, all sessions at once.
            seen: "set[int]" = set()
            for _ in range(ROUNDS):
                batch = client.next_results(session_id)
                batch_ids = [item.image_id for item in batch.items]
                if seen & set(batch_ids) or len(set(batch_ids)) != len(batch_ids):
                    with record_lock:
                        leaks.append(
                            f"worker-{worker_id}: repeat in {batch_ids} after {sorted(seen)}"
                        )
                seen.update(batch_ids)
                for image_id in batch_ids:
                    client.give_feedback(
                        FeedbackRequest(
                            session_id=session_id,
                            image_id=image_id,
                            relevant=worker_id % 3 == 0,
                        )
                    )
            # Phase 3: close, then verify liveness errors still surface.
            client.close_session(session_id)
            with pytest.raises(UnknownResourceError):
                client.next_results(session_id)
            session_id = None
        except BaseException as exc:  # pragma: no cover - failure reporting
            with record_lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(worker_id,), name=f"load-{worker_id}")
        for worker_id in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    stuck = [thread.name for thread in threads if thread.is_alive()]

    assert not stuck, f"deadlocked workers: {stuck}"
    assert not errors, errors
    assert not leaks, leaks
    # Exactly the capacity overflow was rejected, each with a clean 503.
    assert len(overloaded) == WORKERS - CAPACITY
    # Everyone closed their session; the registry drained completely.
    assert manager.active_session_count == 0
    assert manager.health()["store_shards"] == {"tiny": 3}


def _counter_series(payload: dict) -> "dict[tuple[str, tuple[tuple[str, str], ...]], float]":
    """Flatten a JSON exposition into {(family, labelset): value} counters."""
    series = {}
    for metric in payload["metrics"]:
        if metric["type"] != "counter":
            continue
        for entry in metric["series"]:
            key = (metric["name"], tuple(sorted(entry["labels"].items())))
            series[key] = entry["value"]
    return series


def test_metrics_scrape_after_load(loaded_server):
    """Scraping `/v1/metrics` after the soak: every core series from the
    telemetry catalog is present, and counters are monotone across scrapes
    interleaved with live traffic."""
    server, _ = loaded_server
    client = HTTPClient(server.url, client_id="metrics-scraper")
    text = client.metrics_text()
    for needle in (
        "# TYPE seesaw_requests_total counter",
        "# TYPE seesaw_request_seconds histogram",
        "seesaw_request_seconds_bucket",
        'seesaw_requests_total{method="GET",route="/v1/sessions/{id}/next"',
        "seesaw_active_sessions",
        'seesaw_stage_seconds_bucket{stage="score"',
        'seesaw_stage_seconds_count{stage="lock_wait"}',
    ):
        assert needle in text, f"missing series: {needle}"

    first = _counter_series(client.metrics_json())
    # More traffic between scrapes, so monotonicity is actually exercised.
    info = client.start_session(
        StartSessionRequest(dataset="tiny", text_query="a cat_easy", batch_size=2)
    )
    batch = client.next_results(info.session_id)
    assert batch.items
    client.close_session(info.session_id)
    second = _counter_series(client.metrics_json())

    assert set(first) <= set(second)
    for key, value in first.items():
        assert second[key] >= value, f"counter went backwards: {key}"
    next_key = (
        "seesaw_requests_total",
        (("method", "GET"), ("route", "/v1/sessions/{id}/next"), ("status", "200")),
    )
    assert second[next_key] >= first.get(next_key, 0.0) + 1
