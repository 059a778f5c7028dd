"""Keep-alive hygiene: streams that die mid-body, and connection reuse.

The first half is about an NDJSON stream that dies.  Once the 200 and the
``Transfer-Encoding: chunked`` header are on the wire, a producer crash can
only truncate the body.  The regression these tests pin down: the handler used to let the exception unwind into socketserver —
a full traceback on stderr — and, worse, a swallowed error would have left
the connection open for reuse, so the next keep-alive request on the same
socket would be parsed against the half-written chunked body.  The fixed
handler closes the connection (no desync possible), stays quiet, and keeps
serving fresh connections.

The second half covers the persistent wire path: :class:`HTTPClient` keeps
its connections alive in a per-instance pool, and the server tracks the
connections it accepted so that draining says ``Connection: close`` and
stopping makes it unreachable on every one of them.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import struct
import sys
import threading
import time

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import (
    ConnectionFailedError,
    RateLimitedError,
    ServiceOverloadedError,
    UnknownResourceError,
)
from repro.obs import MetricsRegistry
from repro.server import (
    FeedbackRequest,
    HTTPClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
)
from repro.server import client as client_module
from repro.server.api import ROUTES
from repro.server.http import BackgroundServer, SeeSawRequestHandler, serve_in_background
from repro.server.middleware import Request, Response


class StubStreamApp:
    """A minimal app: one healthy stream, one poisoned, one plain route."""

    def handle_request(self, request: Request) -> Response:
        if request.target == "/stream/ok":
            return Response(status=200, stream=self._healthy())
        if request.target == "/stream/poison":
            return Response(status=200, stream=self._poisoned())
        if request.target == "/stream/slow":
            return Response(status=200, stream=self._slow())
        return Response(status=200, payload={"route": request.target})

    @staticmethod
    def _healthy():
        yield {"kind": "meta", "item_count": 1}
        yield {"kind": "item", "index": 0}
        yield {"kind": "end"}

    @staticmethod
    def _poisoned():
        yield {"kind": "meta", "item_count": 3}
        yield {"kind": "item", "index": 0}
        raise RuntimeError("producer exploded mid-stream")

    @staticmethod
    def _slow():
        for index in range(200):
            yield {"kind": "item", "index": index}
            time.sleep(0.01)
        yield {"kind": "end"}


@pytest.fixture()
def stub_server():
    with serve_in_background(StubStreamApp()) as server:
        yield server


def _connection(server) -> http.client.HTTPConnection:
    host, port = server.server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10.0)


class TestPoisonedStream:
    def test_truncates_body_and_closes_the_connection(self, stub_server, capfd):
        conn = _connection(stub_server)
        try:
            conn.request(
                "GET", "/stream/poison", headers={"Accept": "application/x-ndjson"}
            )
            response = conn.getresponse()
            # The status line went out before the producer died; the only
            # honest signal left is a body with no terminal chunk.
            assert response.status == 200
            with pytest.raises(http.client.IncompleteRead) as excinfo:
                response.read()
            delivered = excinfo.value.partial
            assert b'"meta"' in delivered
            assert b'"end"' not in delivered

            # Second request on the SAME connection: the server closed the
            # socket, so this fails cleanly — it can never be answered from
            # the half-written chunked body.
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                conn.request("GET", "/after-poison")
                conn.getresponse()
        finally:
            conn.close()

        # The crash stayed inside the handler: no socketserver traceback.
        captured = capfd.readouterr()
        assert "Traceback" not in captured.err
        assert "exploded" not in captured.err

        # And the server itself is still healthy on a fresh connection.
        fresh = _connection(stub_server)
        try:
            fresh.request("GET", "/healthz")
            assert fresh.getresponse().status == 200
        finally:
            fresh.close()

    def test_client_disconnect_mid_stream_is_quiet(self, stub_server, capfd):
        host, port = stub_server.server.server_address[:2]
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(
                f"GET /stream/slow HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
            )
            assert sock.recv(4096)  # headers plus the first chunks
        finally:
            # RST on close, so the server's next chunk write fails right
            # away instead of filling socket buffers.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        time.sleep(0.2)  # let the writer thread hit the dead socket
        captured = capfd.readouterr()
        assert "Traceback" not in captured.err

        fresh = _connection(stub_server)
        try:
            fresh.request("GET", "/healthz")
            assert fresh.getresponse().status == 200
        finally:
            fresh.close()


class TestHealthyStreamKeepAlive:
    def test_completed_stream_keeps_the_connection_reusable(self, stub_server):
        conn = _connection(stub_server)
        try:
            conn.request(
                "GET", "/stream/ok", headers={"Accept": "application/x-ndjson"}
            )
            response = conn.getresponse()
            body = response.read()  # consumes the terminal chunk
            assert b'"end"' in body
            assert not response.will_close
            sock_before = conn.sock

            # Same socket, next request: chunked framing left the stream
            # exactly at a request boundary.
            conn.request("GET", "/second")
            second = conn.getresponse()
            assert second.status == 200
            assert conn.sock is sock_before
            assert b"/second" in second.read()
        finally:
            conn.close()


class TestPeerReset:
    def test_reset_of_an_idle_kept_alive_connection_is_quiet(self, stub_server, capfd):
        host, port = stub_server.server.server_address[:2]
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(f"GET /plain HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii"))
            reply = b""
            while not reply.endswith(b'{"route": "/plain"}'):
                chunk = sock.recv(4096)
                assert chunk, "server closed before replying"
                reply += chunk
            assert reply.startswith(b"HTTP/1.1 200")
        finally:
            # The handler thread is now blocked reading the next request
            # line; an RST instead of a FIN makes that read raise.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
        time.sleep(0.2)  # let the handler thread see the reset
        assert capfd.readouterr().err == ""

        fresh = _connection(stub_server)
        try:
            fresh.request("GET", "/healthz")
            assert fresh.getresponse().status == 200
        finally:
            fresh.close()


# ---------------------------------------------------------------------------
# connection reuse: HTTPClient's pool against the real app
# ---------------------------------------------------------------------------
class Stack:
    """A real service behind a live server, on a private metrics registry."""

    def __init__(self, tiny_dataset, tiny_clip, max_sessions=256, **config):
        self.service = SeeSawService(
            SeeSawConfig(embedding_dim=64, seed=7, **config), registry=MetricsRegistry()
        )
        self.service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        self.manager = SessionManager(self.service, max_sessions=max_sessions)
        self.app = SeeSawApp(self.manager)
        self.server = serve_in_background(self.app).start()

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def opened(self) -> int:
        """Connections the server has accepted so far."""
        return int(self.service.http_connections_opened.value)

    def open_now(self) -> int:
        return int(self.service.http_open_connections.value)


@pytest.fixture()
def make_stack(tiny_dataset, tiny_clip):
    stacks = []

    def _make(**kwargs) -> Stack:
        stacks.append(Stack(tiny_dataset, tiny_clip, **kwargs))
        return stacks[-1]

    yield _make
    for stack in stacks:
        stack.server.stop()


def _start(client, batch_size: int = 2):
    return client.start_session(
        StartSessionRequest(dataset="tiny", text_query="a cat_easy", batch_size=batch_size)
    )


def _label(client, session_id, items):
    for item in items:
        client.give_feedback(
            FeedbackRequest(session_id=session_id, image_id=item.image_id, relevant=False)
        )


def _wait_until(condition, timeout: float = 5.0) -> bool:
    give_up = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > give_up:
            return False
        time.sleep(0.01)
    return True


class TestConnectionReuse:
    def test_unary_calls_share_one_connection(self, make_stack):
        stack = make_stack()
        with HTTPClient(stack.url, client_id="reuse") as client:
            info = _start(client)
            for _ in range(3):
                batch = client.next_results(info.session_id)
                _label(client, info.session_id, batch.items)
            client.capabilities()
            client.metrics_text()
            client.close_session(info.session_id)
            health = client.healthz()
            assert stack.opened == 1
            assert health["open_connections"] == 1
            scraped = client.metrics_text()
            assert "seesaw_http_connections_opened_total 1" in scraped
            assert "seesaw_http_open_connections 1" in scraped
        # close() (here: leaving the with block) hangs up the idle socket.
        assert _wait_until(lambda: stack.open_now() == 0)

    def test_error_replies_leave_the_connection_reusable(self, make_stack):
        stack = make_stack(max_sessions=1, rate_limit_rps=0.01, rate_limit_burst=4)
        client = HTTPClient(stack.url, client_id="errors")
        _start(client)
        with pytest.raises(ServiceOverloadedError):  # 503: at max_sessions
            _start(client)
        with pytest.raises(UnknownResourceError):  # 404
            client.session_info("no-such-session")
        assert client.healthz()["state"] == "serving"
        with pytest.raises(RateLimitedError):  # 429: the bucket of 4 is spent
            client.healthz()
        assert stack.opened == 1
        assert len(client._idle) == 1

    def test_server_closed_idle_connection_is_replaced_without_resend(
        self, make_stack, monkeypatch
    ):
        monkeypatch.setattr(SeeSawRequestHandler, "timeout", 0.5)
        stack = make_stack()
        client = HTTPClient(stack.url, client_id="idle")
        info = _start(client, batch_size=2)
        batch = client.next_results(info.session_id)
        _label(client, info.session_id, batch.items)
        assert stack.opened == 1
        # The server's idle timeout closes the pooled connection...
        assert _wait_until(lambda: stack.open_now() == 0)
        # ...and the next call, a non-idempotent one, notices before sending.
        batch = client.next_results(info.session_id)
        assert batch.total_shown == 4
        assert stack.opened == 2

    def test_restart_on_the_same_port_advances_the_cursor_exactly_once(self, make_stack):
        stack = make_stack()
        port = stack.server.server.server_address[1]
        client = HTTPClient(stack.url, client_id="restart")
        info = _start(client, batch_size=2)
        batch = client.next_results(info.session_id)
        _label(client, info.session_id, batch.items)
        stack.server.stop()
        assert _wait_until(lambda: stack.open_now() == 0)
        stack.server = BackgroundServer(stack.app, port=port).start()
        # The pooled connection died with the old listener.  next_results is
        # never replayed by the transport: one call, one batch.
        batch = client.next_results(info.session_id)
        assert batch.total_shown == 4
        _label(client, info.session_id, batch.items)
        assert client.session_info(info.session_id).total_shown == 4

    def test_abandoned_stream_does_not_disturb_the_next_call(self, make_stack):
        stack = make_stack()
        client = HTTPClient(stack.url, client_id="streams")
        abandoned = _start(client, batch_size=3)
        other = _start(client, batch_size=3)
        stream = client.stream_next_results(abandoned.session_id)
        next(stream)
        # Mid-iteration, the same client makes unary calls...
        batch = client.next_results(other.session_id)
        assert len(batch.items) == 3
        # ...then walks away from the stream with records still unread.
        stream.close()
        _label(client, other.session_id, batch.items)
        assert client.session_info(other.session_id).rounds == 1
        assert len(list(client.stream_next_results(other.session_id))) == 3
        # Each stream dialled its own one-shot connection; the pool held one.
        assert len(client._idle) == 1
        assert stack.opened == 3

    def test_threads_sharing_one_client_stay_correct_and_bounded(
        self, make_stack, monkeypatch
    ):
        monkeypatch.setattr(client_module, "_MAX_IDLE_CONNECTIONS", 4)
        stack = make_stack()
        client = HTTPClient(stack.url, client_id="shared")
        failures: "list[BaseException]" = []
        barrier = threading.Barrier(8)

        def user() -> None:
            try:
                barrier.wait(timeout=10.0)
                info = _start(client, batch_size=2)
                for round_index in range(1, 6):
                    batch = client.next_results(info.session_id)
                    assert batch.session_id == info.session_id
                    assert batch.total_shown == 2 * round_index
                    _label(client, info.session_id, batch.items)
                    assert client.session_info(info.session_id).rounds == round_index
                client.close_session(info.session_id)
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=user) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # A thread holds at most one connection, so at most 8 were ever
        # open at once; past the cap, checked-in connections are closed.
        assert 1 <= len(client._idle) <= 4
        assert _wait_until(lambda: stack.open_now() == len(client._idle))
        client.close()
        assert client._idle == []
        assert _wait_until(lambda: stack.open_now() == 0)


class TestStoppedMeansUnreachable:
    def test_stop_closes_pooled_connections(self, make_stack):
        stack = make_stack()
        client = HTTPClient(stack.url, client_id="pooled")
        assert client.healthz()["state"] == "serving"
        stack.server.stop()
        # stop() hangs up on idle connections itself; one whose handler was
        # still winding up its last request closes a moment later.
        assert _wait_until(lambda: stack.open_now() == 0)
        with pytest.raises(ConnectionFailedError) as excinfo:
            client.healthz()
        # The dead socket was noticed before a byte went out, and the
        # redial was refused: nothing was sent.
        assert excinfo.value.request_sent is False

    def test_drain_closes_pooled_connections(self, make_stack):
        stack = make_stack()
        client = HTTPClient(stack.url, client_id="pooled")
        assert client.healthz()["state"] == "serving"
        assert stack.server.drain(timeout_s=2.0) is True
        assert _wait_until(lambda: stack.open_now() == 0)
        with pytest.raises(ConnectionFailedError):
            client.healthz()

    def test_raw_kept_alive_socket_gets_eof_after_stop(self, make_stack):
        stack = make_stack()
        conn = http.client.HTTPConnection(*stack.server.server.server_address[:2], timeout=5.0)
        try:
            conn.request("GET", "/v1/healthz")
            first = conn.getresponse()
            first.read()
            assert first.status == 200 and not first.will_close
            stack.server.stop()
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                conn.request("GET", "/v1/healthz")
                conn.getresponse()
        finally:
            conn.close()

    def test_stop_of_an_idle_server_returns_at_once(self):
        """shutdown() wakes the accept loop instead of waiting out its poll."""
        server = serve_in_background(StubStreamApp()).start()
        conn = _connection(server)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
        finally:
            conn.close()
        time.sleep(0.05)  # idle: the accept loop is parked in select
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started <= 0.1
        with pytest.raises(OSError):
            socket.create_connection(server.server.server_address[:2], timeout=1.0)

    def test_stop_right_after_start_does_not_hang(self):
        started = time.perf_counter()
        for _ in range(5):
            serve_in_background(StubStreamApp()).start().stop()
        assert time.perf_counter() - started <= 1.0

    def test_replies_say_connection_close_while_draining(self, make_stack):
        stack = make_stack()
        client = HTTPClient(stack.url, client_id="draining")
        assert client.healthz()["state"] == "serving"
        stack.manager.begin_drain()
        conn = http.client.HTTPConnection(*stack.server.server.server_address[:2], timeout=5.0)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            assert json.loads(response.read())["state"] == "draining"
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            conn.close()
        # The pooled client is served while the drain lasts, one connection
        # per call: nothing is kept alive into the stop.
        before = stack.opened
        assert client.healthz()["state"] == "draining"
        assert client.healthz()["state"] == "draining"
        assert client._idle == []
        assert stack.opened == before + 1


class TestMalformedContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "1e3"])
    def test_typed_400_then_close(self, make_stack, capfd, value):
        stack = make_stack()
        host, port = stack.server.server.server_address[:2]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(
                f"POST /v1/sessions HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {value}\r\n\r\n".encode("ascii")
            )
            received = b""
            while True:  # until the server hangs up
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        error = json.loads(body)["error"]
        assert error["code"] == "invalid_request"
        assert error["details"]["type"] == "TransportError"
        assert "Content-Length" in error["message"]
        assert "Traceback" not in capfd.readouterr().err
        assert HTTPClient(stack.url).healthz()["state"] == "serving"


def _until_hangup(stack, request: bytes) -> "list[tuple[bytes, dict]]":
    """Send raw bytes; every ``(head, JSON body)`` reply until the server
    closes the connection."""
    host, port = stack.server.server.server_address[:2]
    received = b""
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except ConnectionResetError:
            pass  # closed with our unread bytes pending: a reset, not a FIN
    replies = []
    while received:
        head, _, received = received.partition(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        replies.append((head, json.loads(received[:length])))
        received = received[length:]
    return replies


GRID_METHODS = ("GET", "POST", "DELETE", "PUT", "PATCH")
GRID_PATHS = [
    # Every /v1 path template, on resources that do not exist, so a cell's
    # in-process call changes nothing its socket call sees ...
    *[
        (route.replace("{id}", "no-such-session").replace("{name}", "no-such-dataset"), route)
        for route in dict.fromkeys(row.template for row in ROUTES)
    ],
    # ... then an unknown path under /v1 and one outside it.
    ("/v1/no-such-route", "/v1/other"),
    ("/no-such-prefix", "/other"),
]
SERVED = {(row.method, row.template) for row in ROUTES}


@pytest.fixture(scope="module", params=GRID_METHODS)
def method_stack(request, tiny_dataset, tiny_clip):
    """One stack per grid method: its cells stay under the label-set cap."""
    stack = Stack(tiny_dataset, tiny_clip)
    yield request.param, stack
    stack.server.stop()


class TestEveryErrorIsTheStructuredEnvelope:
    @pytest.mark.parametrize(
        "request_bytes, status, fragment",
        [
            (b"HEAD /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n", 501, "HEAD"),
            (b"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n", 501, "OPTIONS"),
            (b"not a request line at all\r\n\r\n", 400, "Bad request"),
        ],
    )
    def test_transport_errors_are_typed_then_close(
        self, make_stack, request_bytes, status, fragment
    ):
        # The connection asks for keep-alive (HTTP/1.1 default); the server
        # must close it anyway, after exactly one typed reply.
        [(head, payload)] = _until_hangup(make_stack(), request_bytes)
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nContent-Type: application/json" in head
        assert b"\r\nConnection: close" in head
        error = payload["error"]
        assert error["code"] == "invalid_request"
        assert error["details"]["type"] == "TransportError"
        assert fragment in error["message"]

    @pytest.mark.parametrize("path, route", GRID_PATHS, ids=[path for path, _ in GRID_PATHS])
    def test_every_method_gets_the_in_process_answer(self, method_stack, path, route):
        # The cell is counted once in seesaw_requests_total; its label set
        # is the (method, route, status) the app saw.  PUT and PATCH must
        # reach the app too, not stop at the stdlib's 501 uncounted.
        method, stack = method_stack

        def series() -> "dict[tuple[str, ...], float]":
            family = stack.service.metrics.get("seesaw_requests_total")
            return {} if family is None else {
                labels: child.value for labels, child in family.collect()
            }

        def counted(send) -> "tuple[int, str | None, tuple]":
            """Status, error code and the series the request was counted in."""
            before = series()
            status, payload = send()
            counted_in = tuple(
                labels for labels, value in series().items()
                if value != before.get(labels, 0.0)
            )
            return status, (payload.get("error") or {}).get("code"), counted_in

        def in_process():
            response = stack.app.handle_request(Request(method=method, target=path))
            return response.status, response.payload if isinstance(response.payload, dict) else {}

        def over_socket():
            host, port = stack.server.server.server_address[:2]
            received = b""
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(
                    f"{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                    "Content-Length: 0\r\n\r\n".encode()
                )
                while chunk := sock.recv(65536):
                    received += chunk
            head, _, body = received.partition(b"\r\n\r\n")
            is_json = b"content-type: application/json" in head.lower()
            return int(head.split(b" ")[1]), json.loads(body) if is_json else {}

        expected = counted(in_process)
        assert counted(over_socket) == expected
        if (method, route) not in SERVED:
            assert expected == (404, "not_found", ((method, route, "404"),))

    def test_chunked_request_body_is_one_typed_400_then_eof(self, make_stack):
        # The chunk bytes must not be parsed as a second request.
        [(head, payload)] = _until_hangup(
            make_stack(),
            b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert payload["error"]["code"] == "invalid_request"
        assert "Transfer-Encoding" in payload["error"]["message"]

    def test_unversioned_paths_are_the_structured_404(self, make_stack):
        # Two requests pipelined on one connection: a routing 404 is an
        # ordinary reply and leaves keep-alive intact.
        body = b'{"dataset": "tiny", "text_query": "a cat_easy"}'
        replies = _until_hangup(
            make_stack(),
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Request-Id: first\r\n\r\n"
            b"POST /sessions HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert len(replies) == 2
        for head, payload in replies:
            assert head.startswith(b"HTTP/1.1 404 ")
            assert payload["error"]["code"] == "not_found"
            assert payload["error"]["details"]["request_id"]
        assert replies[0][1]["error"]["details"]["request_id"] == "first"
        assert b"\r\nConnection: close" not in replies[0][0]


class TestNagle:
    """A delayed-ACK stall reads >= 40 ms per request."""

    def test_sequential_small_requests_on_one_connection_do_not_stall(self, make_stack):
        stack = make_stack()
        client = HTTPClient(stack.url, client_id="nagle")
        info = _start(client)
        costs = []
        for _ in range(200):
            started = time.perf_counter()
            client.session_info(info.session_id)
            costs.append(time.perf_counter() - started)
        assert stack.opened == 1
        assert statistics.median(costs) < 0.010

    def test_sequential_streams_on_one_connection_do_not_stall(self, stub_server):
        # Headers, then each record, are separate small writes: with Nagle
        # on, the second write waits for the ACK of the first.
        conn = _connection(stub_server)
        costs = []
        try:
            for _ in range(200):
                started = time.perf_counter()
                conn.request("GET", "/stream/ok")
                assert b'"end"' in conn.getresponse().read()
                costs.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert statistics.median(costs) < 0.010
