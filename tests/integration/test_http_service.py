"""End-to-end HTTP service test: real sockets, concurrent clients, caching."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import UnknownResourceError
from repro.server import (
    FeedbackRequest,
    HTTPClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    serve_in_background,
)


@pytest.fixture(scope="module")
def running_server(tiny_dataset, tiny_clip):
    """An HTTP server on an ephemeral port over the tiny dataset."""
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    app = SeeSawApp(SessionManager(service))
    with serve_in_background(app) as server:
        yield server


@pytest.fixture()
def client(running_server):
    return HTTPClient(running_server.url)


def run_full_session(client: HTTPClient, query: str, rounds: int = 2) -> object:
    """start → (next → feedback)*rounds → info, through real HTTP."""
    info = client.start_session(
        StartSessionRequest(dataset="tiny", text_query=query, batch_size=2)
    )
    for _ in range(rounds):
        batch = client.next_results(info.session_id)
        assert batch.session_id == info.session_id
        assert len(batch.items) == 2
        for item in batch.items:
            client.give_feedback(
                FeedbackRequest(
                    session_id=info.session_id,
                    image_id=item.image_id,
                    relevant=False,
                )
            )
    summary = client.session_info(info.session_id)
    client.close_session(info.session_id)
    return summary


class TestHttpRoundTrip:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["state"] == "serving"
        assert health["datasets"] == ["tiny"]

    def test_full_session_over_http(self, client):
        summary = run_full_session(client, "a cat_easy")
        assert summary.dataset == "tiny"
        assert summary.total_shown == 4
        assert summary.rounds == 2

    def test_next_count_query_parameter(self, client):
        info = client.start_session(
            StartSessionRequest(dataset="tiny", text_query="a cat_easy", batch_size=1)
        )
        batch = client.next_results(info.session_id, count=3)
        assert len(batch.items) == 3
        client.close_session(info.session_id)

    def test_two_concurrent_client_threads(self, client, running_server):
        results: dict[str, object] = {}
        errors: list[BaseException] = []

        def worker(name: str, query: str) -> None:
            try:
                own_client = HTTPClient(running_server.url)
                results[name] = run_full_session(own_client, query)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("a", "a cat_easy")),
            threading.Thread(target=worker, args=("b", "a cat_hard")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert {name for name in results} == {"a", "b"}
        assert all(summary.total_shown == 4 for summary in results.values())


def raw_error(url: str, body: "dict | None" = None) -> "tuple[int, dict]":
    """One request without the typed client: ``(status, error envelope)``."""
    request = urllib.request.Request(
        url,
        data=None if body is None else json.dumps(body).encode(),
        method="GET" if body is None else "POST",
        headers={"X-Request-Id": "probe"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30.0)
    return excinfo.value.code, json.loads(excinfo.value.read())["error"]


class TestHttpErrors:
    def test_unknown_session_is_404(self, client):
        with pytest.raises(UnknownResourceError, match="no-such-session"):
            client.session_info("no-such-session")

    def test_unknown_dataset_is_404(self, client):
        with pytest.raises(UnknownResourceError, match="not registered"):
            client.start_session(
                StartSessionRequest(dataset="missing", text_query="a cat")
            )

    def test_malformed_body_is_400(self, running_server):
        # Bypass the typed client: send a body missing required fields.
        status, error = raw_error(
            f"{running_server.url}/v1/sessions", {"dataset": "tiny"}
        )
        assert (status, error["code"]) == (400, "invalid_request")
        assert "text_query" in error["message"]
        assert error["details"]["request_id"] == "probe"

    def test_bad_count_is_400(self, client, running_server):
        info = client.start_session(
            StartSessionRequest(dataset="tiny", text_query="a cat_easy")
        )
        status, error = raw_error(
            f"{running_server.url}/v1/sessions/{info.session_id}/next?count=zero"
        )
        assert (status, error["code"]) == (400, "invalid_request")
        assert "count" in error["message"]
        client.close_session(info.session_id)

    @pytest.mark.parametrize("path", ["/nope", "/v1/nope", "/healthz"])
    def test_unroutable_path_is_404(self, running_server, path):
        status, error = raw_error(running_server.url + path)
        assert (status, error["code"]) == (404, "not_found")
        assert "No route" in error["message"]
        assert error["details"]["request_id"] == "probe"

    def test_unversioned_post_is_404(self, running_server):
        status, error = raw_error(
            f"{running_server.url}/sessions",
            {"dataset": "tiny", "text_query": "a cat_easy"},
        )
        assert (status, error["code"]) == (404, "not_found")


class TestServiceCacheOverHttp:
    def test_second_server_start_hits_disk_cache(self, tiny_dataset, tiny_clip, tmp_path):
        cache_dir = tmp_path / "cache"
        config = SeeSawConfig(embedding_dim=64, seed=7, index_cache_dir=str(cache_dir))

        cold = SeeSawService(config)
        cold.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)

        warm = SeeSawService(config)
        warm.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)

        app = SeeSawApp(SessionManager(warm))
        with serve_in_background(app) as server:
            http = HTTPClient(server.url)
            assert http.healthz()["index_cache_hits"] == 1
            summary = run_full_session(http, "a cat_easy", rounds=1)
            assert summary.total_shown == 2
