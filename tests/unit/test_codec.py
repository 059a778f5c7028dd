"""Round-trip and validation tests for the `/v1` JSON codec.

The golden byte strings below are the `/v1` wire: every message type's
``dump_json`` bytes, the NDJSON lines of a streamed ``next``, and the exact
400 text each malformed body earns.  They are literals on purpose — a codec
refactor must reproduce them byte for byte on both transports.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse

import pytest

from repro.config import SeeSawConfig
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.exceptions import TransportError
from repro.server import (
    HTTPClient,
    InProcessClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    serve_in_background,
)
from repro.server.api import (
    BoxPayload,
    DeleteRequest,
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    SessionListEntry,
    SessionPage,
    SessionTelemetry,
    StartSessionRequest,
    UpsertRequest,
)
from repro.server.codec import decode, dump_json, encode, parse_json
from repro.server.middleware import Request


class TestRoundTrips:
    def test_start_session_request(self):
        request = StartSessionRequest(
            dataset="bdd", text_query="a wheelchair", batch_size=5, multiscale=False
        )
        assert decode(StartSessionRequest, encode(request)) == request

    def test_start_session_request_defaults(self):
        decoded = decode(StartSessionRequest, {"dataset": "bdd", "text_query": "a dog"})
        assert decoded.batch_size == 3
        assert decoded.multiscale is True

    def test_box_payload(self):
        box = BoxPayload(x=1.5, y=2.0, width=10.0, height=20.0)
        assert decode(BoxPayload, encode(box)) == box

    def test_feedback_request(self):
        request = FeedbackRequest(
            session_id="session-9",
            image_id=17,
            relevant=True,
            boxes=(BoxPayload(0.0, 0.0, 5.0, 5.0), BoxPayload(1.0, 2.0, 3.0, 4.0)),
        )
        assert decode(FeedbackRequest, encode(request)) == request

    def test_feedback_request_url_session_id_wins(self):
        encoded = encode(FeedbackRequest(session_id="body-id", image_id=3, relevant=False))
        decoded = decode(FeedbackRequest, encoded, session_id="url-id")
        assert decoded.session_id == "url-id"

    def test_next_results_response(self):
        response = NextResultsResponse(
            session_id="session-1",
            items=(
                ResultItem(image_id=4, score=0.75, box=BoxPayload(0.0, 1.0, 24.0, 48.0)),
            ),
            total_shown=12,
            positives_found=3,
        )
        decoded = decode(NextResultsResponse, encode(response))
        assert decoded.session_id == response.session_id
        assert tuple(decoded.items) == tuple(response.items)
        assert decoded.total_shown == response.total_shown
        assert decoded.positives_found == response.positives_found

    def test_session_info(self):
        info = SessionInfo(
            session_id="session-2",
            dataset="coco",
            text_query="a spoon",
            total_shown=6,
            positives_found=1,
            rounds=2,
        )
        assert decode(SessionInfo, encode(info)) == info


class TestValidation:
    def test_missing_field_names_the_field(self):
        with pytest.raises(TransportError, match="text_query"):
            decode(StartSessionRequest, {"dataset": "bdd"})

    def test_wrong_type_rejected(self):
        with pytest.raises(TransportError, match="batch_size"):
            decode(
                StartSessionRequest,
                {"dataset": "bdd", "text_query": "a dog", "batch_size": "many"},
            )

    def test_bool_is_not_an_int(self):
        with pytest.raises(TransportError, match="image_id"):
            decode(FeedbackRequest, {"session_id": "s", "image_id": True, "relevant": False})

    def test_non_object_body_rejected(self):
        with pytest.raises(TransportError, match="JSON object"):
            decode(StartSessionRequest, [1, 2, 3])

    def test_boxes_must_be_array(self):
        with pytest.raises(TransportError, match="boxes"):
            decode(
                FeedbackRequest,
                {"session_id": "s", "image_id": 1, "relevant": True, "boxes": "nope"},
            )

    def test_parse_json_rejects_empty_and_garbage(self):
        with pytest.raises(TransportError):
            parse_json(None)
        with pytest.raises(TransportError):
            parse_json(b"")
        with pytest.raises(TransportError):
            parse_json(b"{not json")

    def test_parse_json_accepts_valid(self):
        assert parse_json(b'{"a": 1}') == {"a": 1}


# ---------------------------------------------------------------------------
# golden wire bytes
# ---------------------------------------------------------------------------
BOX = BoxPayload(40.0, 60.0, 120.0, 90.0)
START = StartSessionRequest(
    dataset="bdd", text_query="a wheelchair", batch_size=5, multiscale=False
)
START_PINNED = StartSessionRequest(
    dataset="bdd", text_query="a wheelchair", dataset_version=2
)
FEEDBACK = FeedbackRequest(
    session_id="session-1",
    image_id=17,
    relevant=True,
    boxes=(BOX, BoxPayload(0.5, 1.0, 2.0, 3.0)),
)
FEEDBACK_PLAIN = FeedbackRequest(session_id="session-1", image_id=18, relevant=False)
INFO = SessionInfo("session-1", "bdd", "a wheelchair", 6, 2, 2)
ITEMS = (
    ResultItem(17, 0.83, BoxPayload(40.0, 60.0, 120.0, 90.0)),
    ResultItem(5, -0.125, BoxPayload(0.0, 0.0, 640.0, 480.0)),
)
NEXT = NextResultsResponse("session-1", ITEMS, total_shown=8, positives_found=2)
PAGE = SessionPage(
    sessions=(
        SessionListEntry(
            **vars(INFO),
            telemetry=SessionTelemetry(
                idle_seconds=4.2,
                lookup_seconds=0.011,
                update_seconds=0.094,
                seconds_per_round=0.052,
            ),
        ),
    ),
    next_cursor="czox",
)
LAST_PAGE = SessionPage(sessions=(), next_cursor=None)
IMAGE = SyntheticImage(
    9001,
    640,
    480,
    "street",
    objects=(
        ObjectInstance(
            "car", BoundingBox(10.0, 20.0, 30.0, 40.0), instance_id=3, distinctiveness=0.5
        ),
    ),
)
UPSERT = UpsertRequest(images=(IMAGE,))
DELETE = DeleteRequest(image_ids=(4, 8))
DATASETS = [{"name": "bdd", "version": 2}]

GOLDEN = {
    "start": (
        START,
        b'{"dataset": "bdd", "text_query": "a wheelchair", "batch_size": 5, '
        b'"multiscale": false}',
    ),
    "start_pinned": (
        START_PINNED,
        b'{"dataset": "bdd", "text_query": "a wheelchair", "batch_size": 3, '
        b'"multiscale": true, "dataset_version": 2}',
    ),
    "feedback": (
        FEEDBACK,
        b'{"session_id": "session-1", "image_id": 17, "relevant": true, "boxes": '
        b'[{"x": 40.0, "y": 60.0, "width": 120.0, "height": 90.0}, '
        b'{"x": 0.5, "y": 1.0, "width": 2.0, "height": 3.0}]}',
    ),
    "feedback_plain": (
        FEEDBACK_PLAIN,
        b'{"session_id": "session-1", "image_id": 18, "relevant": false, "boxes": []}',
    ),
    "info": (
        INFO,
        b'{"session_id": "session-1", "dataset": "bdd", "text_query": "a wheelchair", '
        b'"total_shown": 6, "positives_found": 2, "rounds": 2}',
    ),
    "next": (
        NEXT,
        b'{"session_id": "session-1", "items": [{"image_id": 17, "score": 0.83, '
        b'"box": {"x": 40.0, "y": 60.0, "width": 120.0, "height": 90.0}}, '
        b'{"image_id": 5, "score": -0.125, '
        b'"box": {"x": 0.0, "y": 0.0, "width": 640.0, "height": 480.0}}], '
        b'"total_shown": 8, "positives_found": 2}',
    ),
    "page": (
        PAGE,
        b'{"sessions": [{"session_id": "session-1", "dataset": "bdd", '
        b'"text_query": "a wheelchair", "total_shown": 6, "positives_found": 2, '
        b'"rounds": 2, "telemetry": {"idle_seconds": 4.2, "lookup_seconds": 0.011, '
        b'"update_seconds": 0.094, "seconds_per_round": 0.052}}], '
        b'"next_cursor": "czox"}',
    ),
    "last_page": (LAST_PAGE, b'{"sessions": [], "next_cursor": null}'),
    "upsert": (
        UPSERT,
        b'{"images": [{"image_id": 9001, "width": 640, "height": 480, '
        b'"context": "street", "objects": [{"category": "car", '
        b'"box": {"x": 10.0, "y": 20.0, "width": 30.0, "height": 40.0}, '
        b'"instance_id": 3, "distinctiveness": 0.5}]}]}',
    ),
    "delete": (DELETE, b'{"image_ids": [4, 8]}'),
}

GOLDEN_NDJSON = (
    b'{"kind": "meta", "session_id": "session-1", "item_count": 2, '
    b'"total_shown": 8, "positives_found": 2}\n'
    b'{"kind": "item", "item": {"image_id": 17, "score": 0.83, '
    b'"box": {"x": 40.0, "y": 60.0, "width": 120.0, "height": 90.0}}}\n'
    b'{"kind": "item", "item": {"image_id": 5, "score": -0.125, '
    b'"box": {"x": 0.0, "y": 0.0, "width": 640.0, "height": 480.0}}}\n'
    b'{"kind": "end"}\n'
)

GOLDEN_DATASETS = b'{"datasets": [{"name": "bdd", "version": 2}]}'

@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenWire:
    def test_encode_bytes(self, name):
        message, golden = GOLDEN[name]
        assert dump_json(encode(message)) == golden

    def test_decode_bytes(self, name):
        message, golden = GOLDEN[name]
        assert decode(type(message), parse_json(golden)) == message


# ---------------------------------------------------------------------------
# both transports, against an app whose manager answers with the fixtures
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def wire_app():
    """A real app and HTTP server; the manager's session calls are fixtures."""
    manager = SessionManager(SeeSawService(SeeSawConfig(embedding_dim=64, seed=7)))
    seen: "list[object]" = []

    def record(result):
        def call(*args, **kwargs):
            seen.append(args)
            return result

        return call

    manager.start_session = record(INFO)
    manager.session_info = record(INFO)
    manager.give_feedback = record(INFO)
    manager.next_results = record(NEXT)
    manager.list_sessions = lambda cursor=None, limit=None: (
        PAGE if cursor is None else LAST_PAGE
    )
    manager.list_datasets = lambda: DATASETS
    manager.upsert_images = record({"name": "bdd", "version": 2})
    manager.delete_images = record({"name": "bdd", "version": 3})
    app = SeeSawApp(manager)
    with serve_in_background(app) as server:
        yield app, server.url, seen


def _recording(client):
    """Wrap the transport hook: every request body sent, every body received."""
    sent: "list[bytes | None]" = []
    received: "list[bytes]" = []
    exchange = client._exchange

    def recording(method, path, body=None, headers=None):
        raw = exchange(method, path, body, headers)
        sent.append(body)
        received.append(raw)
        return raw

    client._exchange = recording
    return sent, received


@pytest.mark.parametrize("kind", ["inprocess", "http"])
def test_both_transports_carry_the_golden_bytes(kind, wire_app):
    app, url, seen = wire_app
    client = InProcessClient(app) if kind == "inprocess" else HTTPClient(url)
    sent, received = _recording(client)

    for name in ("start", "start_pinned"):
        seen.clear()
        assert client.start_session(GOLDEN[name][0]) == INFO
        assert seen == [(GOLDEN[name][0],)]
        assert sent[-1] == GOLDEN[name][1]
        assert received[-1] == GOLDEN["info"][1]

    for name in ("feedback", "feedback_plain"):
        seen.clear()
        assert client.give_feedback(GOLDEN[name][0]) == INFO
        assert seen == [(GOLDEN[name][0],)]
        assert sent[-1] == GOLDEN[name][1]

    assert client.session_info("session-1") == INFO
    assert received[-1] == GOLDEN["info"][1]
    assert client.next_results("session-1") == NEXT
    assert received[-1] == GOLDEN["next"][1]
    assert client.list_sessions() == PAGE
    assert received[-1] == GOLDEN["page"][1]
    assert client.list_sessions(cursor="czox") == LAST_PAGE
    assert received[-1] == GOLDEN["last_page"][1]
    assert client.list_datasets() == DATASETS
    assert received[-1] == GOLDEN_DATASETS

    seen.clear()
    client.upsert_images("bdd", UPSERT.images)
    assert sent[-1] == GOLDEN["upsert"][1]
    [(name, images)] = seen
    assert images == UPSERT.images
    seen.clear()
    client.delete_images("bdd", DELETE.image_ids)
    assert sent[-1] == GOLDEN["delete"][1]
    [(name, image_ids)] = seen
    assert image_ids == DELETE.image_ids

    assert list(client.stream_next_results("session-1")) == list(ITEMS)


@pytest.mark.parametrize("kind", ["inprocess", "http"])
def test_ndjson_lines_are_golden(kind, wire_app):
    app, url, _ = wire_app
    path = "/v1/sessions/session-1/next?stream=ndjson"
    if kind == "inprocess":
        response = app.handle_request(Request("GET", path))
        body = b"".join(json.dumps(record).encode("utf-8") + b"\n" for record in response.stream)
    else:
        parts = urllib.parse.urlsplit(url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            connection.request("GET", path)
            body = connection.getresponse().read()
        finally:
            connection.close()
    assert body == GOLDEN_NDJSON


# ---------------------------------------------------------------------------
# malformed bodies: the exact 400 text of each server-side decoder
# ---------------------------------------------------------------------------
_GOOD_OBJECT = {"category": "car", "box": {"x": 10, "y": 20, "width": 30, "height": 40}}
_GOOD_IMAGE = {"image_id": 9001, "width": 640, "height": 480, "context": "street"}


def _image(**changes):
    return {"images": [{**_GOOD_IMAGE, **changes}]}


def _object(**changes):
    return _image(objects=[{**_GOOD_OBJECT, **changes}])


def _box(**changes):
    return _object(box={**_GOOD_OBJECT["box"], **changes})


def _feedback_box(**changes):
    box = {"x": 1, "y": 2, "width": 3, "height": 4, **changes}
    return {"image_id": 17, "relevant": True, "boxes": [box]}


MALFORMED = [
    # POST /v1/sessions
    ("start", b"", "Request body must be a JSON object"),
    ("start", b"{not json", "Request body is not valid JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("start", [1, 2, 3], "StartSessionRequest must be a JSON object"),
    ("start", {"text_query": "a dog"}, "Missing required field 'dataset'"),
    ("start", {"dataset": "bdd"}, "Missing required field 'text_query'"),
    ("start", {"dataset": 7, "text_query": "a dog"}, "Field 'dataset' must be a string"),
    ("start", {"dataset": "bdd", "text_query": "a dog", "batch_size": "many"},
     "Field 'batch_size' must be an integer"),
    ("start", {"dataset": "bdd", "text_query": "a dog", "batch_size": True},
     "Field 'batch_size' must be an integer"),
    ("start", {"dataset": "bdd", "text_query": "a dog", "batch_size": 2.5},
     "Field 'batch_size' must be an integer"),
    ("start", {"dataset": "bdd", "text_query": "a dog", "batch_size": 1_024_000},
     "Field 'batch_size' must be <= 1024, got 1024000"),
    ("start", {"dataset": "bdd", "text_query": "a dog", "multiscale": 1},
     "Field 'multiscale' must be a boolean"),
    ("start", {"dataset": "bdd", "text_query": "a dog", "dataset_version": "2"},
     "Field 'dataset_version' must be an integer"),
    ("start", {"dataset": "bdd", "text_query": "a dog", "dataset_version": False},
     "Field 'dataset_version' must be an integer"),
    # POST /v1/sessions/{id}/feedback
    ("feedback", "nope", "FeedbackRequest must be a JSON object"),
    ("feedback", {"relevant": True}, "Missing required field 'image_id'"),
    ("feedback", {"image_id": 17}, "Missing required field 'relevant'"),
    ("feedback", {"image_id": True, "relevant": False}, "Field 'image_id' must be an integer"),
    ("feedback", {"image_id": "17", "relevant": False}, "Field 'image_id' must be an integer"),
    ("feedback", {"image_id": 17, "relevant": "yes"}, "Field 'relevant' must be a boolean"),
    ("feedback", {"image_id": 17, "relevant": True, "boxes": "nope"},
     "Field 'boxes' must be an array"),
    ("feedback", {"image_id": 17, "relevant": True, "boxes": {"x": 1}},
     "Field 'boxes' must be an array"),
    ("feedback", {"image_id": 17, "relevant": True, "boxes": [[1, 2, 3, 4]]},
     "Box must be a JSON object"),
    ("feedback", {"image_id": 17, "relevant": True, "boxes": [{"x": 1, "y": 2, "width": 3}]},
     "Missing required field 'height'"),
    ("feedback", _feedback_box(x="1"), "Field 'x' must be a number"),
    ("feedback", _feedback_box(width=True), "Field 'width' must be a number"),
    # POST /v1/datasets/{name}/upsert
    ("upsert", [], "UpsertRequest must be a JSON object"),
    ("upsert", {}, "Missing required field 'images'"),
    ("upsert", {"images": {}}, "Field 'images' must be an array"),
    ("upsert", {"images": []}, "Field 'images' must not be empty"),
    ("upsert", {"images": [5]}, "Image must be a JSON object"),
    ("upsert", {"images": [{"image_id": 1, "height": 480, "context": "street"}]},
     "Missing required field 'width'"),
    ("upsert", _image(width="640"), "Field 'width' must be an integer"),
    ("upsert", _image(context=3), "Field 'context' must be a string"),
    ("upsert", _image(width=0), "Invalid image: Image 9001 has non-positive size 0x480"),
    ("upsert", _image(objects="car"), "Field 'objects' must be an array"),
    ("upsert", _image(objects=["car"]), "ObjectInstance must be a JSON object"),
    ("upsert", _image(objects=[{"category": "car"}]), "Missing required field 'box'"),
    ("upsert", _object(box=[10, 20, 30, 40]), "Field 'box' must be a JSON object"),
    ("upsert", _object(box={"x": 10, "width": 30, "height": 40}),
     "Missing required field 'y'"),
    ("upsert", _box(x="10"), "Field 'box.x' must be a number"),
    ("upsert", _box(height=False), "Field 'box.height' must be a number"),
    ("upsert", _object(category=5), "Field 'category' must be a string"),
    ("upsert", _object(instance_id=1.5), "Field 'instance_id' must be an integer"),
    ("upsert", _box(width=0), "Invalid object instance: BoundingBox must have "
     "positive size, got 0.0x40.0"),
    ("upsert", _object(category=""), "Invalid object instance: "
     "ObjectInstance.category must be non-empty"),
    ("upsert", _object(distinctiveness=2), "Invalid object instance: "
     "distinctiveness must be in (0, 1], got 2.0"),
    ("upsert", _box(x=630), "Invalid image: Object box BoundingBox(x=630.0, y=20.0, "
     "width=30.0, height=40.0) falls outside image 9001 (640x480)"),
    # POST /v1/datasets/{name}/delete
    ("delete", "4", "DeleteRequest must be a JSON object"),
    ("delete", {}, "Missing required field 'image_ids'"),
    ("delete", {"image_ids": 4}, "Field 'image_ids' must be an array"),
    ("delete", {"image_ids": "48"}, "Field 'image_ids' must be an array"),
    ("delete", {"image_ids": []}, "Field 'image_ids' must not be empty"),
    ("delete", {"image_ids": [4, True]}, "Field 'image_ids' must be an integer"),
    ("delete", {"image_ids": [4, "8"]}, "Field 'image_ids' must be an integer"),
]

_ROUTES = {
    "start": "/v1/sessions",
    "feedback": "/v1/sessions/session-1/feedback",
    "upsert": "/v1/datasets/bdd/upsert",
    "delete": "/v1/datasets/bdd/delete",
}


@pytest.mark.parametrize("route, body, message", MALFORMED)
def test_malformed_body_is_the_exact_400(route, body, message, wire_app):
    app, _, seen = wire_app
    seen.clear()
    raw = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    response = app.handle_request(Request("POST", _ROUTES[route], raw))
    assert response.status == 400
    assert response.payload["error"]["code"] == "invalid_request"
    assert response.payload["error"]["message"] == message
    assert seen == []
