"""The `/v1` route labels, the probe set, and the route table.

A request's ``route`` is the bounded-cardinality template every metric
series, access record and slow log carries.  The table below pins it for
each `/v1` route, for a wrong method on a known path (labels follow the
path alone; the router answers the structured 404), and for paths outside
the surface.  The probe routes are the ones admission control and the
chaos middleware let through untouched.

``api.ROUTES`` states each route once; the last tests check that every
user reads it: each row resolves, every client call rejects a reply that
is not what its row declares, and a path parameter survives quoting.
"""

from __future__ import annotations

import http.client
from urllib.parse import urlsplit

import pytest

from repro.config import SeeSawConfig
from repro.data.dataset import ImageDataset
from repro.exceptions import (
    InternalServiceError,
    ServiceOverloadedError,
    TransportError,
)
from repro.obs import MetricsRegistry
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
from repro.server.api import ROUTES, resolve
from repro.server.middleware import (
    AdmissionControlMiddleware,
    InFlightTracker,
    Request,
    Response,
)

from chaos import ChaosMiddleware, FaultPlan

LABELS = [
    # every route
    ("GET", "/v1/healthz", "/v1/healthz"),
    ("GET", "/v1/capabilities", "/v1/capabilities"),
    ("GET", "/v1/metrics", "/v1/metrics"),
    ("GET", "/v1/metrics?format=json", "/v1/metrics"),
    ("GET", "/v1/sessions", "/v1/sessions"),
    ("GET", "/v1/sessions?cursor=czox&limit=2", "/v1/sessions"),
    ("POST", "/v1/sessions", "/v1/sessions"),
    ("GET", "/v1/sessions/session-1", "/v1/sessions/{id}"),
    ("DELETE", "/v1/sessions/session-1", "/v1/sessions/{id}"),
    ("GET", "/v1/sessions/session-1/next", "/v1/sessions/{id}/next"),
    ("GET", "/v1/sessions/session-1/next?count=3", "/v1/sessions/{id}/next"),
    ("GET", "/v1/sessions/session-1/next?stream=ndjson", "/v1/sessions/{id}/next"),
    ("POST", "/v1/sessions/session-1/feedback", "/v1/sessions/{id}/feedback"),
    ("GET", "/v1/datasets", "/v1/datasets"),
    ("GET", "/v1/datasets/bdd", "/v1/datasets/{name}"),
    ("GET", "/v1/datasets/tiny%20set", "/v1/datasets/{name}"),
    ("POST", "/v1/datasets/bdd/upsert", "/v1/datasets/{name}/upsert"),
    ("POST", "/v1/datasets/bdd/delete", "/v1/datasets/{name}/delete"),
    ("POST", "/v1/datasets/bdd/merge", "/v1/datasets/{name}/merge"),
    # a wrong method on a known path keeps the path's label
    ("PUT", "/v1/healthz", "/v1/healthz"),
    ("POST", "/v1/healthz", "/v1/healthz"),
    ("DELETE", "/v1/sessions", "/v1/sessions"),
    ("POST", "/v1/sessions/batch-next", "/v1/sessions/{id}"),
    ("GET", "/v1/sessions/session-1/feedback", "/v1/sessions/{id}/feedback"),
    ("DELETE", "/v1/datasets/bdd/merge", "/v1/datasets/{name}/merge"),
    # off the surface
    ("GET", "/v1", "/v1"),
    ("GET", "/v1/", "/v1"),
    ("GET", "/v1/other", "/v1/other"),
    ("GET", "/v1/healthz/extra", "/v1/other"),
    ("GET", "/v1/sessions/a/b", "/v1/other"),
    ("GET", "/v1/sessions/a/b/c", "/v1/other"),
    ("POST", "/v1/sessions/a/upsert", "/v1/other"),
    ("GET", "/other", "/other"),
    ("GET", "/", "/other"),
    ("GET", "/V1/healthz", "/other"),
    ("GET", "/healthz", "/other"),
    # empty segments do not count
    ("GET", "/v1//healthz/", "/v1/healthz"),
]

PROBES = [
    ("GET", "/v1/healthz"),
    ("GET", "/v1/capabilities"),
    ("GET", "/v1/metrics"),
    ("GET", "/v1/metrics?format=json"),
    ("PUT", "/v1/healthz"),
]

NOT_PROBES = [
    ("GET", "/v1/sessions"),
    ("POST", "/v1/sessions"),
    ("GET", "/v1/sessions/session-1"),
    ("GET", "/v1/sessions/session-1/next"),
    ("POST", "/v1/sessions/session-1/feedback"),
    ("GET", "/v1/datasets"),
    ("POST", "/v1/datasets/bdd/merge"),
    ("GET", "/v1"),
    ("GET", "/v1/other"),
    ("GET", "/other"),
]


@pytest.mark.parametrize("method, target, label", LABELS)
def test_route_label(method, target, label):
    assert Request(method, target).route == label


def _ok(request: Request) -> Response:
    return Response(200, {"ok": True})


def _full_admission() -> AdmissionControlMiddleware:
    tracker = InFlightTracker(limit=1)
    assert tracker.try_enter()
    return AdmissionControlMiddleware(tracker, registry=MetricsRegistry())


def _always_failing_chaos() -> ChaosMiddleware:
    plan = FaultPlan(seed=3, error_probability=1.0)
    return ChaosMiddleware(plan, registry=MetricsRegistry(), sleep=lambda s: None)


@pytest.mark.parametrize("method, target", PROBES)
def test_probes_pass_a_full_admission_gate_and_the_chaos_layer(method, target):
    assert _full_admission()(Request(method, target), _ok).status == 200
    assert _always_failing_chaos()(Request(method, target), _ok).status == 200


@pytest.mark.parametrize("method, target", NOT_PROBES)
def test_other_requests_are_shed_and_faulted(method, target):
    with pytest.raises(ServiceOverloadedError):
        _full_admission()(Request(method, target), _ok)
    with pytest.raises(InternalServiceError):
        _always_failing_chaos()(Request(method, target), _ok)


# ---------------------------------------------------------------------------
# the route table: every user of a route reads its row
# ---------------------------------------------------------------------------
CALLS = {
    "healthz": [("healthz", ())],
    "capabilities": [("capabilities", ())],
    "metrics": [("metrics_json", ())],
    "list_sessions": [("list_sessions", ()), ("iter_sessions", ())],
    "start_session": [("start_session", (StartSessionRequest("tiny", "a cat"),))],
    "session_info": [("session_info", ("session-1",))],
    "close_session": [("close_session", ("session-1",))],
    "next": [("next_results", ("session-1",)), ("stream_next_results", ("session-1",))],
    "feedback": [("give_feedback", (FeedbackRequest("session-1", 1, True),))],
    "list_datasets": [("list_datasets", ())],
    "describe_dataset": [("describe_dataset", ("tiny",))],
    "upsert_images": [("upsert_images", ("tiny", []))],
    "delete_images": [("delete_images", ("tiny", [1]))],
    "merge_dataset": [("merge_dataset", ("tiny",))],
}
"""Every client call, by the label of the row it goes through.
``metrics_text`` is left out: its reply is text."""


def test_every_row_is_one_route():
    assert len({(row.method, row.template) for row in ROUTES}) == len(ROUTES)
    assert len({row.label for row in ROUTES}) == len(ROUTES)
    assert {row.label for row in ROUTES} == set(CALLS)


@pytest.mark.parametrize("row", ROUTES, ids=lambda row: f"{row.method} {row.template}")
def test_each_row_resolves_with_its_decoded_parameters(row):
    path, params = row.template, ()
    if "{id}" in path:
        path, params = path.replace("{id}", "session-1"), ("session-1",)
    if "{name}" in path:
        path, params = path.replace("{name}", "tiny%20set"), ("tiny set",)
    assert resolve(row.method.lower(), path) == (row.template, row, params)
    assert resolve("PATCH", path) == (row.template, None, params)


@pytest.mark.parametrize("transport", ["inprocess", "http"])
@pytest.mark.parametrize(
    "name, args",
    [call for calls in CALLS.values() for call in calls],
    ids=[name for calls in CALLS.values() for name, _ in calls],
)
def test_a_reply_that_is_not_an_object_is_a_transport_error(transport, name, args):
    client = InProcessClient(None) if transport == "inprocess" else HTTPClient("http://unused")
    client._exchange = lambda *args, **kwargs: b"[1, 2]"
    client._stream = lambda path: iter([[1, 2]])
    with pytest.raises(TransportError):
        result = getattr(client, name)(*args)
        if name in ("iter_sessions", "stream_next_results"):
            list(result)  # a generator: its first step makes the call


@pytest.fixture(scope="module")
def spaced_stack(tiny_dataset, tiny_clip):
    """A live dataset whose name needs quoting in a URL."""
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7, live_datasets=True))
    spaced = ImageDataset("tiny set", tiny_dataset.images, tiny_dataset.categories)
    service.register_dataset(spaced, tiny_clip, preprocess=True)
    app = SeeSawApp(SessionManager(service))
    with serve_in_background(app) as server:
        yield app, server.url, spaced


@pytest.mark.parametrize("transport, deleted", [("inprocess", 1), ("http", 2)])
def test_a_dataset_name_with_a_space_is_reachable(spaced_stack, transport, deleted):
    app, url, dataset = spaced_stack
    with (InProcessClient(app) if transport == "inprocess" else HTTPClient(url)) as client:
        version = client.describe_dataset("tiny set")["version"]
        assert client.upsert_images("tiny set", [dataset.images[0]])["version"] == version + 1
        gone = [dataset.images[deleted].image_id]
        assert client.delete_images("tiny set", gone)["version"] == version + 2
        assert client.merge_dataset("tiny set")["name"] == "tiny set"


@pytest.mark.parametrize(
    "target, label", [("//v1//healthz/", "/v1/healthz"), ("//v1/sessions", "/v1/sessions")]
)
def test_a_leading_double_slash_reads_the_same_in_process_and_over_http(
    spaced_stack, monkeypatch, target, label
):
    app, url, _ = spaced_stack
    routes = []
    handle = app.handle_request

    def recording(request: Request) -> Response:
        routes.append(request.route)
        return handle(request)

    monkeypatch.setattr(app, "handle_request", recording)
    in_process = app.handle_request(Request("GET", target)).status
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10.0)
    try:
        connection.request("GET", target)
        over_http = connection.getresponse().status
    finally:
        connection.close()
    assert in_process == over_http == 200
    assert routes == [label, label]
