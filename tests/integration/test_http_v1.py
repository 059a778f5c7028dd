"""`/v1` wire-protocol integration tests: real sockets, real chunked NDJSON.

What only a real socket shows about the `/v1` surface: chunked transfer
framing, response headers from the middleware pipeline, and HTTP-level rate
limiting.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import RateLimitedError
from repro.server import (
    HTTPClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    serve_in_background,
)


@pytest.fixture(scope="module")
def running_server(tiny_dataset, tiny_clip):
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    app = SeeSawApp(SessionManager(service))
    with serve_in_background(app) as server:
        yield server


@pytest.fixture()
def client(running_server):
    return HTTPClient(running_server.url, client_id="v1-integration")


def start(client, batch_size=2):
    return client.start_session(
        StartSessionRequest(
            dataset="tiny", text_query="a cat_easy", batch_size=batch_size
        )
    )


class TestWireFormat:
    def test_ndjson_stream_is_chunked_and_line_framed(self, running_server, client):
        info = start(client, batch_size=3)
        request = urllib.request.Request(
            f"{running_server.url}/v1/sessions/{info.session_id}/next",
            headers={"Accept": "application/x-ndjson"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            assert response.headers["Transfer-Encoding"] == "chunked"
            assert response.headers["X-Request-Id"]
            records = [json.loads(line) for line in response if line.strip()]
        assert records[0]["kind"] == "meta"
        assert records[0]["item_count"] == 3
        assert [record["kind"] for record in records[1:-1]] == ["item"] * 3
        assert records[-1]["kind"] == "end"
        client.close_session(info.session_id)

    def test_request_id_echoed_and_client_value_wins(self, running_server):
        request = urllib.request.Request(
            f"{running_server.url}/v1/healthz",
            headers={"X-Request-Id": "my-trace-id"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.headers["X-Request-Id"] == "my-trace-id"

    def test_error_envelope_carries_request_id(self, running_server):
        request = urllib.request.Request(
            f"{running_server.url}/v1/sessions/ghost",
            headers={"X-Request-Id": "trace-404"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        payload = json.loads(excinfo.value.read())
        assert excinfo.value.code == 404
        assert payload["error"]["code"] == "not_found"
        assert payload["error"]["details"]["request_id"] == "trace-404"

    def test_streaming_client_matches_single_shot(self, client):
        single = start(client, batch_size=3)
        streamed = start(client, batch_size=3)
        expected = client.next_results(single.session_id).items
        received = list(client.stream_next_results(streamed.session_id))
        assert [item.image_id for item in received] == [
            item.image_id for item in expected
        ]
        client.close_session(single.session_id)
        client.close_session(streamed.session_id)


class TestRateLimiting:
    def test_429_over_http_then_recovery(self, tiny_dataset, tiny_clip):
        service = SeeSawService(
            SeeSawConfig(
                embedding_dim=64, seed=7, rate_limit_rps=200.0, rate_limit_burst=5
            )
        )
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        app = SeeSawApp(SessionManager(service))
        with serve_in_background(app) as server:
            client = HTTPClient(server.url, client_id="hammer")
            statuses: "list[str]" = []
            rejected = None
            for _ in range(50):
                try:
                    client.healthz()
                    statuses.append("ok")
                except RateLimitedError as exc:
                    rejected = exc
                    break
            assert rejected is not None, "burst never hit the limiter"
            assert statuses.count("ok") >= 5
            # At 200 rps a fresh token arrives within a few ms; the typed
            # client surfaces the retryable error, the caller retries.
            import time

            deadline = time.monotonic() + 5.0
            while True:
                try:
                    client.healthz()
                    break
                except RateLimitedError:
                    assert time.monotonic() < deadline, "limiter never refilled"
                    time.sleep(0.05)
            # Other clients were never throttled by the hammer's bucket.
            other = HTTPClient(server.url, client_id="bystander")
            assert other.healthz()["state"] == "serving"
