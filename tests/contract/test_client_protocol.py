"""Dual-transport contract suite for :class:`SeeSawClientProtocol`.

Every test here runs twice — once through :class:`InProcessClient` (the
`/v1` requests handed to the app in process, no socket) and once through
:class:`HTTPClient` (the `/v1` wire protocol over a real socket) — against
the *same* app.  The suite
is the guarantee the redesign exists for: a caller programming against the
protocol observes identical results, identical typed errors, and identical
validation through either transport.

The final test drives the same scenario script through both transports and
compares the normalized transcripts event by event.
"""

from __future__ import annotations

import logging
import re

import pytest

from repro.config import SeeSawConfig
from repro.data.image import SyntheticImage
from repro.exceptions import (
    IdempotencyConflictError,
    RateLimitedError,
    ReproError,
    SessionError,
    TransportError,
    UnknownResourceError,
)
from repro.server import (
    FeedbackRequest,
    HTTPClient,
    InProcessClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    serve_in_background,
)
from repro.obs import MetricsRegistry
from repro.server.codec import MAX_RESULT_COUNT
from repro.server.retry import RetryPolicy

TRANSPORTS = ("inprocess", "http")


@pytest.fixture(scope="module")
def stack(tiny_dataset, tiny_clip):
    """One service + app + live HTTP server shared by the whole module."""
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    app = SeeSawApp(SessionManager(service))
    with serve_in_background(app) as server:
        yield app, server.url


@pytest.fixture(scope="module")
def make_client(stack):
    app, url = stack

    def _make(kind: str):
        if kind == "inprocess":
            return InProcessClient(app)
        return HTTPClient(url, client_id=f"contract-{kind}")

    return _make


@pytest.fixture(params=TRANSPORTS)
def client(request, make_client):
    return make_client(request.param)


@pytest.fixture(autouse=True)
def clean_sessions(stack):
    """Each test starts from an empty session registry."""
    app, _ = stack
    yield
    for entry in list(InProcessClient(app).iter_sessions()):
        app.manager.close_session(entry.session_id)


def start(client, query: str = "a cat_easy", batch_size: int = 2):
    return client.start_session(
        StartSessionRequest(dataset="tiny", text_query=query, batch_size=batch_size)
    )


def label_all(client, session_id: str, items, relevant: bool = False):
    for item in items:
        client.give_feedback(
            FeedbackRequest(
                session_id=session_id, image_id=item.image_id, relevant=relevant
            )
        )


# ---------------------------------------------------------------------------
# per-transport behaviour (each test runs under both transports)
# ---------------------------------------------------------------------------
class TestDiscovery:
    def test_capabilities_and_health(self, client):
        capabilities = client.capabilities()
        assert capabilities["protocol"]["version"] == "v1"
        assert capabilities["features"]["idempotent_feedback"] is True
        assert capabilities["limits"]["max_count"] == MAX_RESULT_COUNT
        assert client.healthz()["state"] == "serving"

    def test_revision_5_surface(self, client):
        """Revision 5 removed the multi-session next path: the capability and
        health payloads carry exactly the keys below, nothing more."""
        capabilities = client.capabilities()
        assert capabilities["protocol"]["revision"] == 5
        assert set(capabilities["features"]) == {
            "streaming_ndjson", "idempotent_feedback", "cursor_paging",
            "rate_limiting", "metrics_exposition", "tracing", "graph_ann",
            "deadline_propagation", "admission_control", "graceful_drain",
            "retry_hints", "live_datasets",
        }
        assert set(capabilities["limits"]) == {
            "max_sessions", "max_count", "max_page_limit",
            "idempotency_keys_per_session", "session_ttl_seconds",
            "rate_limit_rps", "rate_limit_burst", "request_deadline_ms",
            "max_in_flight", "drain_timeout_s",
        }
        assert set(capabilities["compute"]) == {
            "compute_dtype", "n_shards", "quantized_store", "ann_search",
            "ann_ef", "ann_graph_degree", "mmap_index",
        }
        assert set(client.healthz()) == {
            "state", "uptime_seconds", "in_flight",
            "open_connections", "datasets", "active_sessions", "max_sessions",
            "index_cache_hits", "index_cache_misses", "cached_engines",
            "n_shards", "store_shards", "compute_dtype", "quantized_store",
            "ann_search", "mmap_index", "store_tiers", "dataset_generations",
        }

    def test_capabilities_identical_across_transports(self, make_client):
        assert (
            make_client("inprocess").capabilities()
            == make_client("http").capabilities()
        )


class TestClientLifetime:
    def test_context_manager_closes_and_the_client_stays_usable(self, client):
        with client as entered:
            assert entered is client
            assert client.healthz()["state"] == "serving"
        # close() released the transport's resources (HTTP: the pooled
        # connections); the next call simply acquires them again.
        assert client.healthz()["state"] == "serving"
        client.close()
        client.close()

    def test_health_reports_open_connections_on_both_transports(self, make_client):
        http_client = make_client("http")
        first = http_client.healthz()
        assert set(make_client("inprocess").healthz()) == set(first)
        # The probe's own kept-alive connection is one of them, and further
        # calls on the same client do not add to it.
        assert first["open_connections"] >= 1
        for _ in range(5):
            http_client.capabilities()
        assert http_client.healthz()["open_connections"] <= first["open_connections"]


class TestSearchLoop:
    def test_full_session(self, client):
        info = start(client)
        assert info.rounds == 0
        for _ in range(2):
            batch = client.next_results(info.session_id)
            assert len(batch.items) == 2
            label_all(client, info.session_id, batch.items)
        summary = client.session_info(info.session_id)
        assert summary.total_shown == 4
        assert summary.rounds == 2
        client.close_session(info.session_id)
        with pytest.raises(UnknownResourceError):
            client.session_info(info.session_id)

    def test_streaming_equals_single_shot(self, client):
        single = start(client, batch_size=3)
        streamed = start(client, batch_size=3)
        expected = client.next_results(single.session_id).items
        received = list(client.stream_next_results(streamed.session_id))
        assert [
            (item.image_id, item.score, item.box.x, item.box.y) for item in received
        ] == [
            (item.image_id, item.score, item.box.x, item.box.y) for item in expected
        ]

    def test_failed_next_does_not_disturb_other_sessions(self, client):
        info = start(client)
        with pytest.raises(UnknownResourceError):
            client.next_results("no-such-session")
        batch = client.next_results(info.session_id, count=2)
        assert len(batch.items) == 2
        with pytest.raises(UnknownResourceError):
            client.next_results("also-missing", count=1)
        assert client.session_info(info.session_id).total_shown == 2

    def test_pending_batch_blocks_next(self, client):
        info = start(client)
        client.next_results(info.session_id)
        with pytest.raises(SessionError, match="unlabelled"):
            client.next_results(info.session_id)


class TestValidationParity:
    def test_unknown_session_raises_typed_404(self, client):
        with pytest.raises(UnknownResourceError, match="no-such"):
            client.session_info("no-such-session")

    def test_unknown_dataset_raises_typed_404(self, client):
        with pytest.raises(UnknownResourceError, match="not registered"):
            client.start_session(
                StartSessionRequest(dataset="missing", text_query="a cat")
            )

    @pytest.mark.parametrize("count", [0, -1, MAX_RESULT_COUNT + 1])
    def test_count_bounds_rejected(self, client, count):
        info = start(client)
        with pytest.raises(TransportError, match="count"):
            client.next_results(info.session_id, count=count)

    def test_batch_size_bound_rejected_at_start(self, client):
        """A session's ``batch_size`` is the count of every bare ``next``."""
        too_large = 1_024_000
        message = f"Field 'batch_size' must be <= {MAX_RESULT_COUNT}, got {too_large}"
        with pytest.raises(TransportError, match=re.escape(message)):
            start(client, batch_size=too_large)
        assert list(client.iter_sessions()) == []
        assert start(client, batch_size=MAX_RESULT_COUNT).total_shown == 0

    def test_removed_batch_next_route_is_the_structured_404(self, client):
        with pytest.raises(UnknownResourceError, match="No route for POST"):
            client._request("POST", "/v1/sessions/batch-next", {"requests": []})

    def test_bad_cursor_rejected(self, client):
        with pytest.raises(TransportError, match="cursor"):
            client.list_sessions(cursor="!!not-a-cursor!!")

    def test_feedback_for_unshown_image_rejected(self, client):
        info = start(client)
        client.next_results(info.session_id)
        with pytest.raises(SessionError, match="not awaiting"):
            client.give_feedback(
                FeedbackRequest(
                    session_id=info.session_id, image_id=999_999, relevant=True
                )
            )


class TestMalformedServerPayloads:
    """A reply the server should never send still surfaces as a typed error."""

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"kind": "item"}, "Missing required field 'item'"),
            ({"kind": "item", "item": None}, "Missing required field 'item'"),
            ([1, 2], "StreamRecord must be a JSON object"),
            ({"item": {}}, "Missing required field 'kind'"),
            ({"kind": "item", "item": {"image_id": 1}}, "Missing required field 'score'"),
            (
                {"kind": "item", "item": {"image_id": 1, "score": 0.5, "box": []}},
                "Field 'item.box' must be a JSON object",
            ),
            ({"kind": "mystery"}, "Unexpected NDJSON record kind 'mystery'"),
        ],
    )
    def test_stream_record(self, client, monkeypatch, record, message):
        monkeypatch.setattr(
            client, "_stream", lambda path: iter([{"kind": "meta"}, record])
        )
        with pytest.raises(TransportError, match=re.escape(message)):
            list(client.stream_next_results("session-1"))

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'{"sessions": []}', "Missing required field 'datasets'"),
            (b"[]", "DatasetList must be a JSON object"),
            (b'{"datasets": {}}', "Field 'datasets' must be an array"),
            (b'{"datasets": [3]}', "Field 'datasets' must be a JSON object"),
        ],
    )
    def test_dataset_listing(self, client, monkeypatch, body, message):
        monkeypatch.setattr(client, "_exchange", lambda *args, **kwargs: body)
        with pytest.raises(TransportError, match=re.escape(message)):
            client.list_datasets()

    @pytest.mark.parametrize(
        "method, args, operation",
        [
            ("capabilities", (), "capabilities"),
            ("healthz", (), "healthz"),
            ("metrics_json", (), "metrics"),
            ("describe_dataset", ("bdd",), "describe_dataset"),
            (
                "upsert_images",
                ("bdd", [SyntheticImage(1, 64, 48, "indoor", ())]),
                "upsert_images",
            ),
            ("delete_images", ("bdd", [1]), "delete_images"),
            ("merge_dataset", ("bdd",), "merge_dataset"),
        ],
    )
    @pytest.mark.parametrize("body, kind", [(b"[1, 2]", "list"), (b'"ok"', "str")])
    def test_object_replies(self, client, monkeypatch, method, args, operation, body, kind):
        """The calls that return the server's JSON object as a dict check
        that it is one."""
        monkeypatch.setattr(client, "_exchange", lambda *args, **kwargs: body)
        message = f"Server reply to {operation} must be a JSON object, got {kind}"
        with pytest.raises(TransportError, match=re.escape(message)):
            getattr(client, method)(*args)


class TestIdempotencyParity:
    def test_replay_is_exact_and_single_apply(self, client):
        info = start(client)
        batch = client.next_results(info.session_id)
        request = FeedbackRequest(
            session_id=info.session_id,
            image_id=batch.items[0].image_id,
            relevant=True,
        )
        first = client.give_feedback(request, idempotency_key="retry-1")
        replay = client.give_feedback(request, idempotency_key="retry-1")
        assert replay == first
        assert client.session_info(info.session_id).positives_found == 1

    def test_key_reuse_with_different_payload_conflicts(self, client):
        info = start(client)
        batch = client.next_results(info.session_id)
        client.give_feedback(
            FeedbackRequest(
                session_id=info.session_id,
                image_id=batch.items[0].image_id,
                relevant=True,
            ),
            idempotency_key="retry-1",
        )
        with pytest.raises(IdempotencyConflictError, match="retry-1"):
            client.give_feedback(
                FeedbackRequest(
                    session_id=info.session_id,
                    image_id=batch.items[1].image_id,
                    relevant=False,
                ),
                idempotency_key="retry-1",
            )


class TestListingParity:
    def test_cursor_walk_sees_every_session(self, client):
        ids = [start(client).session_id for _ in range(5)]
        walked = [entry.session_id for entry in client.iter_sessions(page_size=2)]
        assert walked == ids
        page = client.list_sessions(limit=2)
        assert len(page.sessions) == 2
        assert page.next_cursor is not None

    def test_entries_carry_info_and_telemetry(self, client):
        info = start(client)
        batch = client.next_results(info.session_id)
        label_all(client, info.session_id, batch.items)
        [entry] = client.list_sessions().sessions
        assert entry.session_id == info.session_id
        assert entry.rounds == 1
        assert entry.telemetry.lookup_seconds > 0.0
        assert entry.telemetry.update_seconds > 0.0
        assert entry.telemetry.idle_seconds >= 0.0
        assert entry.telemetry.seconds_per_round > 0.0


class TestMetricsParity:
    def test_both_expositions_available_on_each_transport(self, client):
        info = start(client)  # make sure the registry has seen traffic
        client.next_results(info.session_id)
        text = client.metrics_text()
        assert "# TYPE seesaw_requests_total counter" in text
        assert "seesaw_stage_seconds_bucket" in text
        payload = client.metrics_json()
        names = {metric["name"] for metric in payload["metrics"]}
        assert "seesaw_requests_total" in names
        assert "seesaw_request_seconds" in names
        assert "seesaw_active_sessions" in names

    def test_metric_families_identical_across_transports(self, make_client):
        families = {}
        for kind in TRANSPORTS:
            families[kind] = {
                metric["name"]: metric["type"]
                for metric in make_client(kind).metrics_json()["metrics"]
            }
        assert families["inprocess"] == families["http"]


# ---------------------------------------------------------------------------
# one request path: in-process calls cross the same app boundary as HTTP
# ---------------------------------------------------------------------------
def rate_limited_app(tiny_dataset, tiny_clip, burst: int) -> SeeSawApp:
    """An app whose limiter holds ``burst`` tokens refilled at 1/s."""
    service = SeeSawService(
        SeeSawConfig(
            embedding_dim=64, seed=7, rate_limit_rps=1.0, rate_limit_burst=burst
        ),
        registry=MetricsRegistry(),
    )
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    return SeeSawApp(SessionManager(service))


class TestOneRequestPath:
    def test_inprocess_request_is_counted_and_logged(self, stack, caplog):
        app, _ = stack
        counter = app.manager.service.metrics.counter(
            "seesaw_requests_total", "", labels=("method", "route", "status")
        ).labels("GET", "/v1/healthz", "200")
        before = counter.value
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            InProcessClient(app).healthz()
        assert counter.value == before + 1
        [record] = [r for r in caplog.records if r.name == "repro.server.access"]
        assert record.route == "/v1/healthz"
        assert record.request_id

    def test_inprocess_calls_are_rate_limited(self, tiny_dataset, tiny_clip):
        client = InProcessClient(rate_limited_app(tiny_dataset, tiny_clip, burst=2))
        client.healthz()
        client.healthz()
        with pytest.raises(RateLimitedError):
            client.healthz()

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_metrics_text_retries_under_the_policy(
        self, tiny_dataset, tiny_clip, kind
    ):
        app = rate_limited_app(tiny_dataset, tiny_clip, burst=1)
        sleeps: "list[float]" = []
        policy = RetryPolicy(max_attempts=3, sleep=sleeps.append)
        with serve_in_background(app) as server:
            if kind == "inprocess":
                client = InProcessClient(app, retry_policy=policy)
            else:
                client = HTTPClient(server.url, client_id="scraper", retry_policy=policy)
            client.metrics_text()
            with pytest.raises(RateLimitedError):
                client.metrics_text()
        assert len(sleeps) == 2


# ---------------------------------------------------------------------------
# transcript parity: the same scenario script through both transports
# ---------------------------------------------------------------------------
def run_scenario(client) -> "list[object]":
    """A full interactive scenario, recorded as a normalized transcript.

    Session ids are transport-run specific (they encode creation order), so
    events record only transport-independent facts: item identities and
    scores, progress counters, and the types of raised errors.
    """
    transcript: "list[object]" = []
    info = start(client, query="a cat_hard", batch_size=3)
    transcript.append(("started", info.dataset, info.text_query, info.rounds))
    for round_index in range(3):
        batch = client.next_results(info.session_id)
        transcript.append(
            (
                "batch",
                round_index,
                [(item.image_id, item.score) for item in batch.items],
                batch.total_shown,
            )
        )
        label_all(client, info.session_id, batch.items, relevant=round_index == 0)
    streamed = list(client.stream_next_results(info.session_id, count=4))
    transcript.append(("streamed", [(item.image_id, item.score) for item in streamed]))
    label_all(client, info.session_id, streamed)
    try:
        client.next_results(info.session_id, count=0)
    except ReproError as exc:
        transcript.append(("bad-count", type(exc).__name__))
    summary = client.session_info(info.session_id)
    transcript.append(("summary", summary.total_shown, summary.positives_found, summary.rounds))
    client.close_session(info.session_id)
    try:
        client.session_info(info.session_id)
    except ReproError as exc:
        transcript.append(("after-close", type(exc).__name__))
    return transcript


def test_scenario_transcripts_identical_across_transports(make_client, stack):
    app, _ = stack
    transcripts = {}
    for kind in TRANSPORTS:
        transcripts[kind] = run_scenario(make_client(kind))
        for entry in list(InProcessClient(app).iter_sessions()):
            app.manager.close_session(entry.session_id)
    assert transcripts["inprocess"] == transcripts["http"]
