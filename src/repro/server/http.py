"""Stdlib HTTP transport for the SeeSaw service.

A thin socket layer over :class:`~repro.server.app.SeeSawApp`:
``ThreadingHTTPServer`` gives us one thread per open connection (the
concurrency the :class:`~repro.server.manager.SessionManager` is built to
absorb), and the handler does nothing but read the body, delegate to the
app, and write the JSON response.  Connections are HTTP/1.1 keep-alive:
a client sends request after request on one socket until either side
closes it — the server does so after :data:`IDLE_TIMEOUT_S` without a
request, by answering ``Connection: close`` while it drains, and by
hanging up on every idle connection when it stops.

The header block of an ``HTTP/1.0|1.1`` request is split by
:func:`~repro.server.wire.read_fields`, not by ``http.client`` and the
``email`` package; any other request line is left to the stdlib.  Bodies
are framed by ``Content-Length`` alone, up to :data:`MAX_BODY_BYTES`.

Typical embedded use::

    service = SeeSawService(config)
    service.register_dataset(dataset, embedding, cache_dir="...")
    with serve_in_background(SeeSawApp(SessionManager(service))) as server:
        with HTTPClient(server.url) as client:
            ...
"""

from __future__ import annotations

import json
import logging
import selectors
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import TransportError
from repro.server.app import SeeSawApp
from repro.server.errors import encode_error
from repro.server.middleware import Request, Response, collapse_leading_slashes
from repro.server.wire import FramingError, read_fields

logger = logging.getLogger("repro.server")

IDLE_TIMEOUT_S = 60.0
"""How long a handler thread waits on a kept-alive socket for the next
request (or the rest of one) before it closes the connection: a peer that
vanished without a FIN must not pin a thread forever."""

MAX_BODY_BYTES = 64 * 1024 * 1024
"""The largest request body read.  A larger ``Content-Length`` is answered
413 before any byte of the body is read, and the connection is closed."""


class SeeSawRequestHandler(BaseHTTPRequestHandler):
    """Serves one TCP connection: read a request, hand it to the app, write
    the response, repeat until either side closes.

    Single-shot responses go out in *one* write — status line, headers and
    body — with a ``Content-Length``; streaming (NDJSON) responses are
    written with chunked transfer encoding, one chunk per record, flushed as
    produced so a client renders the first record before the last one is on
    the wire.
    """

    server: "SeeSawHTTPServer"
    server_version = "SeeSawHTTP/1.0"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # The chunked path writes each record separately by design; with Nagle
    # on, every small write after the first would wait out the peer's
    # delayed ACK (~40 ms) on a long-lived connection.
    disable_nagle_algorithm = True

    def parse_request(self) -> bool:
        """The request line and header block of an ``HTTP/1.0|1.1`` request.

        ``self.headers`` becomes the :func:`~repro.server.wire.read_fields`
        dict (lower-cased names, the first occurrence wins), not an
        ``email`` message; a malformed header block is a 400 or a 431.
        The stdlib's ``Connection``, ``Expect: 100-continue`` and ``//``
        handling is kept.  Any other request line goes to the stdlib, so a
        malformed one gets exactly its reply.
        """
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
            return super().parse_request()
        self.requestline = requestline
        self.command, path, self.request_version = words
        self.path = collapse_leading_slashes(path)
        try:
            self.headers = read_fields(self.rfile)  # type: ignore[assignment]
        except FramingError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0" and connection != "keep-alive"
        )
        if (
            self.request_version == "HTTP/1.1"
            and self.headers.get("expect", "").lower() == "100-continue"
        ):
            return self.handle_expect_100()
        return True

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # No route is served for these two; the app answers them with the same
    # structured 404 an in-process caller gets, not the stdlib's 501.
    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_PATCH(self) -> None:  # noqa: N802
        self._dispatch("PATCH")

    def _dispatch(self, method: str) -> None:
        if not self.server.begin_request(self.connection):
            # The server stopped between this request's arrival and now:
            # stopped means unreachable, so hang up without acting on it.
            self.close_connection = True
            return
        try:
            self._serve(method)
        finally:
            if self.server.end_request(self.connection):
                self.close_connection = True

    def send_error(
        self, code: int, message: "str | None" = None, explain: "str | None" = None
    ) -> None:
        """Every transport-level error as the structured envelope, then close.

        The stdlib calls this for what never reaches the app — an
        unsupported method, a malformed request line, oversized headers —
        and would answer with an HTML page.  The connection closes behind
        the reply: after any of these the next request's boundary on it is
        unknown (which is also why a body on the reply to ``HEAD`` is safe).
        """
        self.close_connection = True
        code = int(code)
        text = message or self.responses.get(code, ("Transport error",))[0]
        _, payload = encode_error(TransportError(text))
        self._send(Response(code, payload))

    def _serve(self, method: str) -> None:
        # The body is framed by Content-Length alone.  Without a trustworthy
        # length — or with a Transfer-Encoding body, whose bytes would be
        # parsed as the next request — answer typed and read nothing more.
        if self.headers.get("transfer-encoding") is not None:
            self.send_error(
                400,
                "Transfer-Encoding request bodies are not supported; "
                "send Content-Length",
            )
            return
        raw_length = (self.headers.get("content-length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            self.send_error(
                400,
                f"Content-Length must be a non-negative integer, got '{raw_length}'",
            )
            return
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            self.send_error(
                413,
                f"Request body of {length} bytes is over the limit of "
                f"{MAX_BODY_BYTES} bytes",
            )
            return
        body = self.rfile.read(length) if length else None
        response = self.server.app.handle_request(
            Request(
                method=method,
                target=self.path,
                body=body,
                headers=self.headers,
                client=self.client_address[0],
            )
        )
        if self.server.closing:
            # Draining or stopping: tell the client not to reuse this
            # connection, and stop reading from it after this reply.
            self.close_connection = True
        if response.stream is None:
            self._send(response)
            return
        self._send(response, chunked=True)
        # Once the 200 + chunked header are on the wire the response
        # cannot be rewritten.  If the producer raises (or the client
        # disconnects) mid-stream the body is truncated without its
        # terminal chunk, and the connection MUST NOT be reused: the
        # next keep-alive request on this socket would be parsed
        # against the half-written chunked body.  Clients detect the
        # truncation through the missing terminal NDJSON 'end' record.
        try:
            for record in response.stream:
                data = json.dumps(record).encode("utf-8") + b"\n"
                self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-stream; nothing left to tell it,
            # and a stack trace per closed browser tab is just noise.
            self.close_connection = True
        except Exception as exc:
            self.close_connection = True
            self.log_error("aborted NDJSON stream for %s: %r", self.path, exc)

    def _send(self, response: Response, chunked: bool = False) -> None:
        """Status line, headers and (unless ``chunked``) body in one write.

        Two writes would be two small segments; on a kept-alive connection
        the second can sit behind the client's delayed ACK, and the client
        woken by the first competes with this thread for the CPU while the
        body is still unsent.
        """
        if chunked:
            body = b""
            framing = "Transfer-Encoding: chunked\r\n"
        else:
            body = response.body()
            framing = f"Content-Length: {len(body)}\r\n"
        if self.close_connection:
            framing += "Connection: close\r\n"
        status = response.status
        head = (
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in response.headers.items())
            + framing
            + "\r\n"
        )
        self.log_request(status, "-" if chunked else len(body))
        self.wfile.write(head.encode("latin-1") + body)

    def log_message(self, format: str, *args: object) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)


class SeeSawHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SeeSawApp`.

    One thread per accepted connection, which serves that connection's
    requests one after the other.  The server keeps the set of open
    connections and whether each is mid-request, so that stopping it makes
    it unreachable on *every* connection: closing the listener alone would
    leave handler threads answering on sockets clients already hold.
    """

    daemon_threads = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients would get connection resets before a worker thread ever saw
    # them.
    request_queue_size = 128

    def __init__(
        self,
        app: SeeSawApp,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        super().__init__((host, port), SeeSawRequestHandler)
        self.app = app
        self.quiet = quiet
        # An app without a manager (a test stub) has no drain state and no
        # metrics registry; its connections are tracked all the same.
        self._manager = getattr(app, "manager", None)
        self._stopped = False
        # connection -> is a request being served on it right now
        self._connections: "dict[socket.socket, bool]" = {}
        self._connections_lock = threading.Lock()
        # shutdown() writes a byte here so the serve loop's select returns at
        # once instead of at the end of its poll interval.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._wake_writer.setblocking(False)
        self._shutdown_requested = False
        self._serving_done = threading.Event()

    @property
    def url(self) -> str:
        """The server's base URL (resolved port included)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def closing(self) -> bool:
        """Draining or stopped: replies carry ``Connection: close``."""
        return self._stopped or (self._manager is not None and self._manager.draining)

    # -- serve loop -----------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """socketserver's accept loop, plus a wake-up socket in its selector.

        socketserver notices a shutdown request only when its select times
        out, so a stop would wait up to ``poll_interval``; :meth:`shutdown`
        here also makes the select return at once.
        """
        self._serving_done.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._shutdown_requested:
                    ready = selector.select(poll_interval)
                    if self._shutdown_requested:
                        break
                    for key, _ in ready:
                        if key.fileobj is self:
                            self._handle_request_noblock()
                        else:  # a wake-up left by a shutdown of an earlier loop
                            self._wake_reader.recv(4096)
                    self.service_actions()
        finally:
            self._shutdown_requested = False
            self._serving_done.set()

    def shutdown(self) -> None:
        """Stop the serve loop and wait until it has returned.

        Like socketserver's, this must be called from another thread than
        the one running :meth:`serve_forever`.
        """
        self._shutdown_requested = True
        try:
            self._wake_writer.send(b"\0")
        except OSError:
            pass  # closed by server_close, or a wake-up is already pending
        self._serving_done.wait()

    # -- connection lifecycle -------------------------------------------
    def process_request(self, request: socket.socket, client_address: object) -> None:
        # On the accept thread, before the handler thread exists: once
        # shutdown() has returned, every accepted connection is in the table.
        with self._connections_lock:
            self._connections[request] = False
        if self._manager is not None:
            self._manager.service.http_connections_opened.inc()
            self._manager.service.http_open_connections.inc()
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        with self._connections_lock:
            tracked = self._connections.pop(request, None) is not None
        if tracked and self._manager is not None:
            self._manager.service.http_open_connections.dec()
        super().shutdown_request(request)

    def begin_request(self, connection: socket.socket) -> bool:
        """Mark ``connection`` busy; ``False`` once the server has stopped."""
        with self._connections_lock:
            if self._stopped:
                return False
            self._connections[connection] = True
            return True

    def end_request(self, connection: socket.socket) -> bool:
        """Mark ``connection`` idle; ``True`` when it must now be closed."""
        with self._connections_lock:
            self._connections[connection] = False
            return self._stopped

    def handle_error(self, request: object, client_address: object) -> None:
        """A peer that hangs up is routine; anything else keeps its traceback.

        A pooled client resets the idle kept-alive connections it drops, and
        the handler thread blocked reading the next request line gets the
        reset.  That is logged at debug level instead of printed to stderr.
        """
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)):
            logger.debug("connection from %s closed by peer: %r", client_address, exc)
            return
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Close the listener, then every connection no request is using.

        In that order: a client whose idle connection is closed dials again,
        and must be refused, not parked in a backlog nobody accepts from.
        A connection that is mid-request finishes it (the reply says
        ``Connection: close``) and is closed by its own thread.
        """
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()
        with self._connections_lock:
            self._stopped = True
            idle = [conn for conn, busy in self._connections.items() if not busy]
        for connection in idle:
            try:
                # Wakes the handler thread out of its blocking read with EOF
                # and sends the FIN a pooled client's liveness probe sees.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already reset it


class BackgroundServer:
    """A :class:`SeeSawHTTPServer` running on a daemon thread.

    Usable as a context manager; ``port=0`` (the default) binds an ephemeral
    port, read back through :attr:`url` once started.
    """

    def __init__(
        self, app: SeeSawApp, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
    ) -> None:
        self.server = SeeSawHTTPServer(app, host=host, port=port, quiet=quiet)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="seesaw-http", daemon=True
        )
        self._started = False

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return self.server.url

    def start(self) -> "BackgroundServer":
        """Start serving requests (idempotent)."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def stop(self) -> None:
        """Stop the server: close the listener and every idle connection.

        Stopped means unreachable — no request is answered afterwards, on a
        new connection or on one a client already holds.  A request that is
        mid-flight finishes and its connection closes behind it.
        """
        if self._started:
            self.server.shutdown()
            self._thread.join(timeout=5.0)
            self._started = False
        self.server.server_close()

    def drain(self, timeout_s: "float | None" = None) -> bool:
        """Gracefully drain, then stop.

        Drain order matters: ``/healthz`` flips to ``draining`` and new
        sessions start failing with the typed 503 *first* (so load
        balancers and clients route away) and every reply says
        ``Connection: close`` (so keep-alive clients let go), in-flight
        requests get up to ``timeout_s`` (``config.drain_timeout_s`` by
        default) to finish, and only then does the server :meth:`stop`.
        Returns what :meth:`SessionManager.drain` returned: ``True`` when
        nothing was cut off.
        """
        drained = self.server.app.manager.drain(timeout_s)
        self.stop()
        return drained

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(
    app: SeeSawApp, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> BackgroundServer:
    """Start ``app`` on a daemon thread; returns the (startable) server handle."""
    return BackgroundServer(app, host=host, port=port, quiet=quiet)


def serve_forever(
    app: SeeSawApp, host: str = "127.0.0.1", port: int = 8000, quiet: bool = False
) -> None:
    """Serve ``app`` on the calling thread until interrupted.

    SIGTERM (the orchestrator's stop signal) triggers a graceful drain:
    ``/healthz`` flips to ``draining``, new sessions are rejected with the
    typed 503, in-flight requests get ``config.drain_timeout_s`` to finish,
    then the listener and the idle connections close.  Ctrl-C
    (SIGINT/KeyboardInterrupt) stays an immediate stop — interactive use
    should not wait out a drain window.
    """
    server = SeeSawHTTPServer(app, host=host, port=port, quiet=quiet)

    def _drain_and_stop() -> None:
        app.manager.drain()
        server.shutdown()

    previous_handler = None

    def _on_sigterm(signum: object, frame: object) -> None:  # pragma: no cover
        # serve_forever blocks this (main) thread, and server.shutdown()
        # deadlocks when called from the serving thread — so the drain runs
        # on its own thread and the handler returns immediately.
        threading.Thread(
            target=_drain_and_stop, name="seesaw-drain", daemon=True
        ).start()

    if threading.current_thread() is threading.main_thread():
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
