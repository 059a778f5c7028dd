"""The `/v1` HTTP/1.1 framing, byte for byte, on both ends.

``test_codec.py`` pins the JSON bodies; this file pins what goes around
them.  A raw-socket capture server records the exact bytes
:class:`HTTPClient` writes for every call — request line, header order,
``Content-Length`` and body — and answers from a queue of canned replies.
"""

from __future__ import annotations

import json
import queue
import re
import socket
import ssl
import threading
import time
from pathlib import Path

import pytest

from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.exceptions import ConnectionFailedError, TransportError
from repro.server import HTTPClient, serve_in_background
from repro.server import client as client_module
from repro.server.http import MAX_BODY_BYTES
from repro.server.middleware import Request, Response
from repro.server.api import BoxPayload, FeedbackRequest, StartSessionRequest


class CaptureServer:
    """Records each request's bytes and answers with the next canned reply.

    One thread per accepted connection, so a stream's one-shot connection
    is served while the client's pooled connection sits idle.  A reply may
    be a list of pieces, sent apart so that the client's reads split them;
    the connection is closed after a reply marked ``Connection: close`` or
    framed by neither ``Content-Length`` nor chunks.
    """

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.requests: "list[bytes]" = []
        self.replies: "queue.Queue[bytes | list[bytes]]" = queue.Queue()
        self.accepted = 0
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(target=self._serve, args=(connection,), daemon=True).start()

    def _serve(self, connection: socket.socket) -> None:
        with connection, connection.makefile("rb") as rfile:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = rfile.readline()
                    if not line:
                        return
                    head += line
                length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
                body = rfile.read(int(length.group(1))) if length else b""
                self.requests.append(head + body)
                reply = self.replies.get(timeout=10.0)
                pieces = [reply] if isinstance(reply, bytes) else reply
                for piece in pieces:
                    connection.sendall(piece)
                    time.sleep(0.005 if len(pieces) > 1 else 0)
                whole = b"".join(pieces)
                if b"\r\nConnection: close\r\n" in whole or not (
                    b"\r\nContent-Length: " in whole or b"chunked" in whole
                ):
                    return

    def close(self) -> None:
        self._listener.close()


def reply(body: bytes, status: str = "200 OK", content_type: str = "application/json") -> bytes:
    """A kept-alive reply framed by ``Content-Length``, as the server writes it."""
    return (
        f"HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def chunked(*chunks: bytes) -> bytes:
    """A ``Connection: close`` NDJSON reply, one chunk per element."""
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        + b"".join(b"%X\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks)
        + b"0\r\n\r\n"
    )


@pytest.fixture()
def capture():
    server = CaptureServer()
    yield server
    server.close()


# ---------------------------------------------------------------------------
# golden request bytes
# ---------------------------------------------------------------------------
START = StartSessionRequest(
    dataset="bdd", text_query="a wheelchair", batch_size=5, multiscale=False
)
FEEDBACK = FeedbackRequest(
    session_id="session-1",
    image_id=17,
    relevant=True,
    boxes=(BoxPayload(40.0, 60.0, 120.0, 90.0), BoxPayload(0.5, 1.0, 2.0, 3.0)),
)
FEEDBACK_PLAIN = FeedbackRequest(session_id="session-1", image_id=18, relevant=False)
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

INFO = (
    b'{"session_id": "session-1", "dataset": "bdd", "text_query": "a wheelchair", '
    b'"total_shown": 6, "positives_found": 2, "rounds": 2}'
)
NEXT = (
    b'{"session_id": "session-1", "items": [{"image_id": 17, "score": 0.83, '
    b'"box": {"x": 40.0, "y": 60.0, "width": 120.0, "height": 90.0}}], '
    b'"total_shown": 8, "positives_found": 2}'
)
NDJSON = (
    b'{"kind": "meta", "session_id": "session-1", "item_count": 1, '
    b'"total_shown": 8, "positives_found": 2}\n',
    b'{"kind": "item", "item": {"image_id": 17, "score": 0.83, '
    b'"box": {"x": 40.0, "y": 60.0, "width": 120.0, "height": 90.0}}}\n',
    b'{"kind": "end"}\n',
)
MANIFEST = b'{"name": "bdd", "version": 2}'

# name -> (the call, the canned reply, the exact request bytes).  In the
# request, ``{host}`` is the server's ``host:port`` and ``{client}`` is the
# ``X-Client-Id`` line, present only when the client has an id.
GOLDEN_REQUESTS = {
    "start": (
        lambda client: client.start_session(START),
        reply(INFO, "201 Created"),
        b"POST /v1/sessions HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 86\r\n"
        b"Content-Type: application/json\r\n"
        b"{client}"
        b"\r\n"
        b'{"dataset": "bdd", "text_query": "a wheelchair", "batch_size": 5, '
        b'"multiscale": false}',
    ),
    "next": (
        lambda client: client.next_results("session-1"),
        reply(NEXT),
        b"GET /v1/sessions/session-1/next HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "next_count": (
        lambda client: client.next_results("session-1", count=4),
        reply(NEXT),
        b"GET /v1/sessions/session-1/next?count=4 HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "feedback": (
        lambda client: client.give_feedback(FEEDBACK),
        reply(INFO),
        b"POST /v1/sessions/session-1/feedback HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 179\r\n"
        b"Content-Type: application/json\r\n"
        b"{client}"
        b"\r\n"
        b'{"session_id": "session-1", "image_id": 17, "relevant": true, "boxes": '
        b'[{"x": 40.0, "y": 60.0, "width": 120.0, "height": 90.0}, '
        b'{"x": 0.5, "y": 1.0, "width": 2.0, "height": 3.0}]}',
    ),
    "feedback_idempotent": (
        lambda client: client.give_feedback(FEEDBACK_PLAIN, idempotency_key="fb-18"),
        reply(INFO),
        b"POST /v1/sessions/session-1/feedback HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 75\r\n"
        b"Content-Type: application/json\r\n"
        b"{client}"
        b"Idempotency-Key: fb-18\r\n"
        b"\r\n"
        b'{"session_id": "session-1", "image_id": 18, "relevant": false, "boxes": []}',
    ),
    "session_info": (
        lambda client: client.session_info("session-1"),
        reply(INFO),
        b"GET /v1/sessions/session-1 HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "close": (
        lambda client: client.close_session("session-1"),
        reply(b'{"closed": true}'),
        b"DELETE /v1/sessions/session-1 HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "list_sessions": (
        lambda client: client.list_sessions(cursor="czox", limit=5),
        reply(b'{"sessions": [], "next_cursor": null}'),
        b"GET /v1/sessions?cursor=czox&limit=5 HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "upsert": (
        lambda client: client.upsert_images("bdd", [IMAGE]),
        reply(MANIFEST),
        b"POST /v1/datasets/bdd/upsert HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 220\r\n"
        b"Content-Type: application/json\r\n"
        b"{client}"
        b"\r\n"
        b'{"images": [{"image_id": 9001, "width": 640, "height": 480, '
        b'"context": "street", "objects": [{"category": "car", '
        b'"box": {"x": 10.0, "y": 20.0, "width": 30.0, "height": 40.0}, '
        b'"instance_id": 3, "distinctiveness": 0.5}]}]}',
    ),
    "delete": (
        lambda client: client.delete_images("bdd", [4, 8]),
        reply(MANIFEST),
        b"POST /v1/datasets/bdd/delete HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 21\r\n"
        b"Content-Type: application/json\r\n"
        b"{client}"
        b"\r\n"
        b'{"image_ids": [4, 8]}',
    ),
    "merge": (
        lambda client: client.merge_dataset("bdd"),
        reply(MANIFEST),
        b"POST /v1/datasets/bdd/merge HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"Content-Length: 2\r\n"
        b"Content-Type: application/json\r\n"
        b"{client}"
        b"\r\n"
        b"{}",
    ),
    "healthz": (
        lambda client: client.healthz(),
        reply(b'{"state": "serving"}'),
        b"GET /v1/healthz HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "capabilities": (
        lambda client: client.capabilities(),
        reply(b'{"protocol": "v1"}'),
        b"GET /v1/capabilities HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "metrics_text": (
        lambda client: client.metrics_text(),
        reply(b"seesaw_up 1\n", content_type="text/plain; version=0.0.4"),
        b"GET /v1/metrics HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"\r\n",
    ),
    "stream": (
        lambda client: list(client.stream_next_results("session-1")),
        chunked(*NDJSON),
        b"GET /v1/sessions/session-1/next?stream=ndjson HTTP/1.1\r\n"
        b"Host: {host}\r\n"
        b"Accept-Encoding: identity\r\n"
        b"{client}"
        b"Accept: application/x-ndjson\r\n"
        b"Connection: close\r\n"
        b"\r\n",
    ),
}


def _expected(capture: CaptureServer, template: bytes, client_id: "str | None") -> bytes:
    client_line = b"" if client_id is None else f"X-Client-Id: {client_id}\r\n".encode()
    return template.replace(b"{host}", f"127.0.0.1:{capture.port}".encode()).replace(
        b"{client}", client_line
    )


@pytest.mark.parametrize("client_id", [None, "golden-client"])
@pytest.mark.parametrize("name", sorted(GOLDEN_REQUESTS))
def test_request_bytes_are_golden(name, client_id, capture):
    call, canned, template = GOLDEN_REQUESTS[name]
    capture.replies.put(canned)
    with HTTPClient(capture.url, client_id=client_id) as client:
        call(client)
    assert capture.requests == [_expected(capture, template, client_id)]


def test_every_call_reuses_one_connection(capture):
    with HTTPClient(capture.url, client_id="pooled") as client:
        for name, (call, canned, template) in GOLDEN_REQUESTS.items():
            capture.replies.put(canned)
            call(client)
            assert capture.requests[-1] == _expected(capture, template, "pooled"), name
    # The stream dials a one-shot connection; every unary call shared one.
    assert capture.accepted == 2


class _FixedDeadline:
    def remaining_ms(self) -> float:
        return 1234.4


def test_deadline_header_sits_between_the_client_id_and_the_call_headers(
    capture, monkeypatch
):
    monkeypatch.setattr(client_module, "current_deadline", _FixedDeadline)
    capture.replies.put(reply(INFO))
    with HTTPClient(capture.url, client_id="budget") as client:
        client.give_feedback(FEEDBACK_PLAIN, idempotency_key="fb-18")
    assert capture.requests == [
        b"POST /v1/sessions/session-1/feedback HTTP/1.1\r\n"
        + f"Host: 127.0.0.1:{capture.port}\r\n".encode()
        + b"Accept-Encoding: identity\r\n"
        b"Content-Length: 75\r\n"
        b"Content-Type: application/json\r\n"
        b"X-Client-Id: budget\r\n"
        b"X-Deadline-Ms: 1234\r\n"
        b"Idempotency-Key: fb-18\r\n"
        b"\r\n"
        b'{"session_id": "session-1", "image_id": 18, "relevant": false, "boxes": []}'
    ]


# ---------------------------------------------------------------------------
# client framing: what is pooled, what is a mid-request death
# ---------------------------------------------------------------------------
HEALTHY = b'{"state": "serving"}'


class TestClientFraming:
    def test_reply_without_a_length_is_read_to_eof_and_not_pooled(self, capture):
        capture.replies.put(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + HEALTHY)
        with HTTPClient(capture.url) as client:
            assert client.healthz() == {"state": "serving"}
            assert client._idle == []

    @pytest.mark.parametrize(
        "head",
        [
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n",
            b"HTTP/1.1 200 OK\r\nConnection: Close\r\n",
            b"HTTP/1.0 200 OK\r\n",
        ],
    )
    def test_closing_replies_are_not_pooled(self, capture, head):
        capture.replies.put(head + b"Content-Length: %d\r\n\r\n%s" % (len(HEALTHY), HEALTHY))
        with HTTPClient(capture.url) as client:
            assert client.healthz() == {"state": "serving"}
            assert client._idle == []

    def test_framed_reply_is_pooled_and_an_interim_100_is_skipped(self, capture):
        capture.replies.put(b"HTTP/1.1 100 Continue\r\n\r\n" + reply(HEALTHY))
        capture.replies.put(reply(HEALTHY))
        with HTTPClient(capture.url) as client:
            assert client.healthz() == {"state": "serving"}
            assert len(client._idle) == 1
            assert client.healthz() == {"state": "serving"}
        assert capture.accepted == 1

    @pytest.mark.parametrize(
        "canned",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\nConnection: close\r\n\r\n" + HEALTHY,
            b"HTCPCP/1.0 418 I'm a teapot\r\n\r\n",
            b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nbroken header\r\n\r\n",
            b"",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            b"10\r\nshort",
        ],
        ids=["short-body", "bad-protocol", "bad-status", "bad-header", "no-reply",
             "bad-chunk-size", "short-chunk"],
    )
    def test_a_broken_reply_is_a_death_after_sending(self, capture, canned):
        capture.replies.put(canned)
        client = HTTPClient(capture.url, timeout=5.0)
        with pytest.raises(ConnectionFailedError) as excinfo:
            client.session_info("session-1")
        assert excinfo.value.request_sent is True
        assert client._idle == []

    def test_a_refused_connect_sent_nothing(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(ConnectionFailedError) as excinfo:
            HTTPClient(f"http://127.0.0.1:{port}").healthz()
        assert excinfo.value.request_sent is False

    def test_ndjson_records_split_across_chunks_and_reads(self, capture):
        body = b"".join(NDJSON)
        head = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )
        # Chunk boundaries fall mid-record, one chunk carries an extension,
        # and the pieces go out apart, splitting a size line and a CRLF.
        cut = [0, 7, 90, 91, len(body) - 3, len(body)]
        chunks = [body[a:b] for a, b in zip(cut, cut[1:])]
        framed = b"".join(
            b"%x%s\r\n%s\r\n" % (len(chunk), b";ext=1" if i == 1 else b"", chunk)
            for i, chunk in enumerate(chunks)
        ) + b"0\r\nX-Trailer: done\r\n\r\n"
        pieces = [head + framed[:5], framed[5:60], framed[60:61], framed[61:]]
        capture.replies.put(pieces)
        with HTTPClient(capture.url) as client:
            items = list(client.stream_next_results("session-1"))
        assert [item.image_id for item in items] == [17]

    def test_a_truncated_stream_is_a_death_after_sending(self, capture):
        capture.replies.put(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            + b"%X\r\n%s\r\n" % (len(NDJSON[0]), NDJSON[0])
        )
        with pytest.raises(ConnectionFailedError) as excinfo:
            list(HTTPClient(capture.url).stream_next_results("session-1"))
        assert excinfo.value.request_sent is True

    def test_a_line_break_in_a_header_value_is_refused_before_sending(self, capture):
        client = HTTPClient(capture.url, client_id="me\r\nX-Admin: 1")
        with pytest.raises(TransportError, match="line break"):
            client.healthz()
        with pytest.raises(TransportError, match="printable ASCII"):
            HTTPClient(capture.url).session_info("two words")
        assert capture.requests == [] and capture.accepted == 0


# ---------------------------------------------------------------------------
# server framing: the request line and header block, byte for byte
# ---------------------------------------------------------------------------
class EchoApp:
    """Answers every request with what the handler made of it."""

    def handle_request(self, request: Request) -> Response:
        return Response(
            200,
            payload={
                "target": request.target,
                "headers": dict(request.headers),
                "body": (request.body or b"").decode(),
            },
        )


@pytest.fixture(scope="module")
def echo_server():
    with serve_in_background(EchoApp()) as server:
        yield server


def _send(server, data: bytes) -> "tuple[socket.socket, object]":
    sock = socket.create_connection(server.server.server_address[:2], timeout=10.0)
    sock.sendall(data)
    return sock, sock.makefile("rb")


def _answer(rfile) -> "tuple[int, dict[str, str], dict]":
    """Status, header fields and JSON body of one ``Content-Length`` reply."""
    status = int(rfile.readline().split()[1])
    fields = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    return status, fields, json.loads(rfile.read(int(fields["content-length"])))


def _ask(server, data: bytes) -> "tuple[int, dict[str, str], dict, bool]":
    """One request on a fresh connection: status, header fields, JSON body,
    and whether the server closed the connection behind the reply."""
    sock, rfile = _send(server, data)
    with sock, rfile:
        status, fields, payload = _answer(rfile)
        # A server that closes does so right behind the reply.
        sock.settimeout(0.3)
        try:
            closed = rfile.read(1) == b""
        except TimeoutError:
            closed = False
        return status, fields, payload, closed


def _get(*header_lines: bytes, target: bytes = b"/v1/echo", version: bytes = b"HTTP/1.1") -> bytes:
    return b"GET %s %s\r\n" % (target, version) + b"".join(
        line + b"\r\n" for line in header_lines
    ) + b"\r\n"


class TestServerFraming:
    def test_a_folded_header_line_is_a_400(self, echo_server):
        status, fields, payload, closed = _ask(
            echo_server, _get(b"Host: x", b"X-Long: first", b"  continued")
        )
        assert status == 400 and closed
        assert fields["connection"] == "close"
        assert payload["error"]["message"] == "Bad header line (b'  continued\\r\\n')"

    def test_a_header_line_without_a_colon_is_a_400(self, echo_server):
        status, _, payload, closed = _ask(echo_server, _get(b"Host x", b"X-After: dropped"))
        assert status == 400 and closed
        assert payload["error"]["message"] == "Bad header line (b'Host x\\r\\n')"

    def test_whitespace_before_the_colon_is_a_400(self, echo_server):
        status, _, _, closed = _ask(echo_server, _get(b"Host : x"))
        assert status == 400 and closed

    def test_99_headers_are_served_and_100_are_a_431(self, echo_server):
        many = [b"X-H%d: %d" % (i, i) for i in range(99)]
        status, _, payload, _ = _ask(echo_server, _get(*many))
        assert status == 200 and len(payload["headers"]) == 99
        status, _, payload, closed = _ask(echo_server, _get(*many, b"X-Last: 1"))
        assert status == 431 and closed
        assert payload["error"]["message"] == "Too many headers"
        status, _, _, closed = _ask(echo_server, _get(*many, b"X-Last: 1", b"X-More: 2"))
        assert status == 431 and closed

    def test_a_65537_byte_header_line_is_a_431(self, echo_server):
        line = b"X-Big: " + b"a" * (65537 - len(b"X-Big: ") - 2)
        status, _, payload, closed = _ask(echo_server, _get(line))
        assert status == 431 and closed
        assert payload["error"]["message"] == "Line too long"
        # One byte shorter is the longest line served.
        status, _, payload, _ = _ask(echo_server, _get(line[:-1]))
        assert status == 200 and len(payload["headers"]["x-big"]) == 65536 - 9

    def test_the_first_of_duplicate_headers_wins_and_names_are_folded(self, echo_server):
        status, _, payload, closed = _ask(
            echo_server, _get(b"x-CLIENT-id: first", b"X-Client-Id: second")
        )
        assert status == 200 and not closed
        assert payload["headers"]["x-client-id"] == "first"

    def test_values_lose_the_whitespace_around_them(self, echo_server):
        status, _, payload, _ = _ask(echo_server, _get(b"X-Pad:   spaced out  "))
        assert status == 200 and payload["headers"]["x-pad"] == "spaced out"

    def test_expect_100_continue_gets_a_100_then_the_reply(self, echo_server):
        sock, rfile = _send(
            echo_server,
            b"POST /v1/echo HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n",
        )
        with sock, rfile:
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            sock.sendall(b"{}")
            status, _, payload = _answer(rfile)
        assert status == 200 and payload["body"] == "{}"

    def test_an_http_1_0_request_is_answered_then_closed(self, echo_server):
        status, fields, payload, closed = _ask(echo_server, _get(version=b"HTTP/1.0"))
        assert status == 200 and payload["target"] == "/v1/echo"
        assert closed and fields["connection"] == "close"
        status, _, _, closed = _ask(
            echo_server, _get(b"Connection: keep-alive", version=b"HTTP/1.0")
        )
        assert status == 200 and not closed

    def test_connection_close_is_honoured_and_keep_alive_is_the_default(self, echo_server):
        assert _ask(echo_server, _get(b"Connection: close"))[3]
        sock, rfile = _send(echo_server, _get() + _get(target=b"/v1/second"))
        with sock, rfile:
            assert _answer(rfile)[2]["target"] == "/v1/echo"
            assert _answer(rfile)[2]["target"] == "/v1/second"

    def test_a_leading_double_slash_is_collapsed(self, echo_server):
        status, _, payload, _ = _ask(echo_server, _get(target=b"//v1//echo?x=1"))
        assert status == 200 and payload["target"] == "/v1//echo?x=1"

    @pytest.mark.parametrize(
        "line, status, message",
        [
            (b"GARBAGE", 400, "Bad request syntax ('GARBAGE')"),
            (b"GET /v1/echo HTTP/1.1 extra", 400, "Bad request version ('extra')"),
            (b"GET /v1/echo extra HTTP/1.1", 400,
             "Bad request syntax ('GET /v1/echo extra HTTP/1.1')"),
            (b"GET /v1/echo HTTP/1.x", 400, "Bad request version ('HTTP/1.x')"),
            (b"GET /v1/echo FTP/1.1", 400, "Bad request version ('FTP/1.1')"),
            (b"GET /v1/echo HTTP/2.0", 505, "Invalid HTTP version (2.0)"),
            (b"POST /v1/echo", 400, "Bad HTTP/0.9 request type ('POST')"),
            (b"PUT /v1/echo HTTP/1.1", 501, "Unsupported method ('PUT')"),
        ],
    )
    def test_malformed_request_lines_get_the_stdlib_replies(
        self, echo_server, line, status, message
    ):
        got_status, _, payload, closed = _ask(echo_server, line + b"\r\nHost: x\r\n\r\n")
        assert (got_status, payload["error"]["message"]) == (status, message)
        assert closed

    def test_a_non_canonical_version_goes_to_the_stdlib(self, echo_server):
        status, _, payload, _ = _ask(echo_server, _get(b"X-Client-Id: v", version=b"HTTP/1.01"))
        assert status == 200 and payload["headers"]["x-client-id"] == "v"

    @pytest.mark.parametrize("length", [1_000_000_000_000, 2_000_000_000, MAX_BODY_BYTES + 1])
    def test_an_oversized_body_is_a_413_before_any_body_byte(self, echo_server, length):
        started = time.monotonic()
        status, fields, payload, closed = _ask(
            echo_server, b"POST /v1/echo HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length
        )
        assert status == 413 and closed and fields["connection"] == "close"
        assert payload["error"]["message"] == (
            f"Request body of {length} bytes is over the limit of {MAX_BODY_BYTES} bytes"
        )
        assert time.monotonic() - started < 5.0

    def test_a_body_at_the_limit_is_still_read(self, echo_server):
        sock, rfile = _send(
            echo_server, b"POST /v1/echo HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        )
        with sock, rfile:
            assert _answer(rfile)[0] == 200


class TestClientSendFailure:
    """A send the server cut short: its reply, if it wrote one, is the answer."""

    def test_an_oversized_body_gets_the_servers_413(self, echo_server):
        client = HTTPClient(echo_server.url)
        length = MAX_BODY_BYTES + 1
        with pytest.raises(TransportError) as excinfo:
            client._exchange("POST", "/v1/sessions", b"x" * length)
        assert type(excinfo.value) is TransportError
        assert str(excinfo.value) == (
            f"Request body of {length} bytes is over the limit of {MAX_BODY_BYTES} bytes"
        )
        assert client._idle == []

    def test_a_failed_send_without_a_reply_is_a_death_after_sending(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def hang_up() -> None:
            connection, _ = listener.accept()
            with connection:
                connection.recv(1024)

        threading.Thread(target=hang_up, daemon=True).start()
        client = HTTPClient(f"http://127.0.0.1:{listener.getsockname()[1]}")
        with listener, pytest.raises(ConnectionFailedError) as excinfo:
            client._exchange("POST", "/v1/sessions", b"x" * (8 << 20))
        assert excinfo.value.request_sent is True


# ---------------------------------------------------------------------------
# https: the default SSL context, verified against a test-only certificate
# ---------------------------------------------------------------------------
TLS = Path(__file__).parent / "tls"
"""A self-signed certificate for ``localhost`` (and its key), for tests only."""


@pytest.fixture()
def tls_server(monkeypatch):
    # The client's default context trusts what SSL_CERT_FILE names.
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS / "localhost.pem"))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS / "localhost.pem", TLS / "localhost.key")
    server = serve_in_background(EchoApp())
    server.server.socket = context.wrap_socket(server.server.socket, server_side=True)
    with server:
        yield server.server.server_address[1]


class TestHTTPS:
    def test_a_verified_server_is_served_over_tls(self, tls_server):
        with HTTPClient(f"https://localhost:{tls_server}", client_id="tls") as client:
            for _ in range(2):
                echoed = client.healthz()
                assert echoed["target"] == "/v1/healthz"
                assert echoed["headers"]["host"] == f"localhost:{tls_server}"
                assert echoed["headers"]["x-client-id"] == "tls"
            assert len(client._idle) == 1

    def test_a_certificate_for_another_name_fails_before_sending(self, tls_server):
        with pytest.raises(ConnectionFailedError) as excinfo:
            HTTPClient(f"https://127.0.0.1:{tls_server}").healthz()
        assert excinfo.value.request_sent is False
        assert "CERTIFICATE_VERIFY_FAILED" in str(excinfo.value)
