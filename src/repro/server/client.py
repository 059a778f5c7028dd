"""The typed `/v1` clients for the SeeSaw service.

:class:`SeeSawClientProtocol` is the one client surface every caller
programs against: each call a thin wrapper over its row of
:data:`~repro.server.api.ROUTES`.  The transports differ only in how a
request reaches :meth:`SeeSawApp.handle_request
<repro.server.app.SeeSawApp.handle_request>`:

* :class:`HTTPClient` sends it over pooled keep-alive connections;
* :class:`InProcessClient` hands it to an app in this process — no socket,
  the same middleware pipeline, the same response bytes;
* :class:`~repro.faults.client.FaultyClient` passes it through the fault
  plan to another client's transport.
"""

from __future__ import annotations

import abc
import json
import re
import select
import socket
import ssl
import threading
import urllib.parse
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.exceptions import ConnectionFailedError, ReproError, TransportError
from repro.server.api import (
    ROUTES,
    DeleteRequest,
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    Route,
    SessionInfo,
    SessionListEntry,
    SessionPage,
    StartSessionRequest,
    StreamRecord,
    UpsertRequest,
)
from repro.server.codec import decode, encode
from repro.server.deadlines import DEADLINE_HEADER, current_deadline
from repro.server.errors import decode_error
from repro.server.middleware import Request
from repro.server.retry import RetryPolicy
from repro.server.wire import FramingError, Reply

if TYPE_CHECKING:
    from repro.server.app import SeeSawApp

_MAX_IDLE_CONNECTIONS = 8
"""Idle connections one :class:`HTTPClient` keeps; a connection checked in
past this is closed, never queued."""

_UNSAFE_TARGET = re.compile(r"[^!-~]").search
"""Anything but printable ASCII (a space, a control character) would break
the request line."""

_BY_LABEL = {route.label: route for route in ROUTES}


class SeeSawClientProtocol(abc.ABC):
    """Every `/v1` call, written once for every transport.

    A call's method, path, idempotency flag, ``operation`` label and reply
    declaration come from its row; the deadline header and the typed errors
    live here; a transport supplies :meth:`_exchange` and :meth:`_stream`.
    ``retry_policy`` opts into the resilience layer
    (:mod:`repro.server.retry`): retry with jittered backoff on retryable
    errors, ``Retry-After`` honoured, and — for a transport with a host —
    the per-host circuit breaker.  ``None`` raises the first error.  Calls
    wrapped in :func:`~repro.server.deadlines.deadline_scope` send their
    remaining budget as ``X-Deadline-Ms`` either way.  NDJSON streams are
    never retried: a replay could not un-yield the items already handed out.
    """

    client_id: "str | None" = None
    retry_policy: "RetryPolicy | None" = None
    _host: "str | None" = None

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def capabilities(self) -> "dict[str, Any]":
        """The server's negotiated features, limits and compute topology."""
        return self._call("capabilities")

    def healthz(self) -> "dict[str, Any]":
        """Liveness plus live registry and telemetry counters."""
        return self._call("healthz")

    def metrics_json(self) -> "dict[str, Any]":
        """The metrics registry in the JSON exposition shape: every family
        with its series, histograms with p50/p99/p999 estimates."""
        return self._call("metrics", query={"format": "json"}, reply=dict)

    def metrics_text(self) -> str:
        """The metrics registry in the Prometheus text exposition format."""
        return self._call("metrics")

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def start_session(self, request: StartSessionRequest) -> SessionInfo:
        """Start a session; its summary carries the new session id."""
        return self._call("start_session", payload=encode(request))

    def session_info(self, session_id: str) -> SessionInfo:
        """Progress summary for one session."""
        return self._call("session_info", session_id)

    def list_sessions(
        self, cursor: "str | None" = None, limit: "int | None" = None
    ) -> SessionPage:
        """One cursor-delimited page of live sessions, with telemetry."""
        return self._call("list_sessions", query={"cursor": cursor, "limit": limit})

    def iter_sessions(
        self, page_size: "int | None" = None
    ) -> "Iterator[SessionListEntry]":
        """Walk the full session listing, following cursors page by page."""
        cursor: "str | None" = None
        while True:
            page = self.list_sessions(cursor=cursor, limit=page_size)
            yield from page.sessions
            if page.next_cursor is None:
                return
            cursor = page.next_cursor

    def close_session(self, session_id: str) -> None:
        """Close a session."""
        if "closed" not in self._call("close_session", session_id):
            raise TransportError("Server reply to close_session lacks the field 'closed'")

    # ------------------------------------------------------------------
    # the search loop
    # ------------------------------------------------------------------
    def next_results(
        self, session_id: str, count: "int | None" = None
    ) -> NextResultsResponse:
        """The next result batch for a session."""
        return self._call("next", session_id, query={"count": count})

    def stream_next_results(
        self, session_id: str, count: "int | None" = None
    ) -> "Iterator[ResultItem]":
        """The next batch, its items decoded straight off the NDJSON stream.

        The terminal ``end`` record is required: a stream that stops
        without it was truncated (server died mid-batch), and silently
        yielding the partial batch would look exactly like a complete one.
        """
        path = _path(_BY_LABEL["next"], (session_id,), {"stream": "ndjson", "count": count})
        saw_end = False
        for line in self._stream(path):
            record = decode(StreamRecord, line)
            if record.kind == "item":
                if record.item is None:
                    raise TransportError("Missing required field 'item'")
                yield record.item
            elif record.kind == "end":
                saw_end = True
            elif record.kind != "meta":
                raise TransportError(f"Unexpected NDJSON record kind '{record.kind}'")
        if not saw_end:
            raise TransportError(
                "NDJSON stream ended without the terminal 'end' record "
                "(truncated response)"
            )

    def give_feedback(
        self, request: FeedbackRequest, idempotency_key: "str | None" = None
    ) -> SessionInfo:
        """Feedback for one image of the session's current batch.

        With an ``idempotency_key`` the server dedupes replays, which is what
        makes retrying a maybe-applied submission safe.
        """
        headers = {} if idempotency_key is None else {"Idempotency-Key": idempotency_key}
        return self._call(
            "feedback", request.session_id, payload=encode(request), headers=headers
        )

    # ------------------------------------------------------------------
    # live datasets (protocol revision 4)
    # ------------------------------------------------------------------
    def list_datasets(self) -> "list[dict[str, Any]]":
        """Every registered dataset's manifest."""
        return list(self._call("list_datasets").datasets)

    def describe_dataset(self, name: str) -> "dict[str, Any]":
        """The registry manifest of one dataset."""
        return self._call("describe_dataset", name)

    def upsert_images(
        self, name: str, images: "Sequence[Any]"
    ) -> "dict[str, Any]":
        """Add or replace images in a live dataset; the new manifest."""
        return self._call("upsert_images", name, payload=encode(UpsertRequest(tuple(images))))

    def delete_images(
        self, name: str, image_ids: "Sequence[int]"
    ) -> "dict[str, Any]":
        """Delete images from a live dataset; the new manifest."""
        ids = tuple(int(image_id) for image_id in image_ids)
        return self._call("delete_images", name, payload=encode(DeleteRequest(ids)))

    def merge_dataset(self, name: str) -> "dict[str, Any]":
        """Force a synchronous delta-segment compaction; the manifest."""
        return self._call("merge_dataset", name, payload={})

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release any transport resources (no-op by default)."""

    def __enter__(self) -> "SeeSawClientProtocol":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _headers(
        self, has_body: bool, extra: "Mapping[str, str] | None" = None
    ) -> "dict[str, str]":
        merged: "dict[str, str]" = {}
        if has_body:
            merged["Content-Type"] = "application/json"
        if self.client_id is not None:
            merged["X-Client-Id"] = self.client_id
        deadline = current_deadline()
        if deadline is not None:
            # The wire carries the budget *remaining at send time* — each
            # retry attempt re-reads it, so the server always sees how much
            # the caller still has, not what it started with.
            merged[DEADLINE_HEADER] = f"{deadline.remaining_ms():.0f}"
        if extra:
            merged.update(extra)
        return merged

    def _retrying(self, attempt: "Any", idempotent: bool, operation: str) -> "Any":
        """Run one transport attempt under the retry policy, if any."""
        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.call(
            attempt, idempotent=idempotent, host=self._host, operation=operation
        )

    def _call(
        self,
        label: str,
        *params: str,
        query: "Mapping[str, Any] | None" = None,
        payload: "Mapping[str, Any] | None" = None,
        headers: "Mapping[str, str] | None" = None,
        reply: "type | None" = None,
    ) -> "Any":
        """One call of the row ``label``: the reply, as the row declares it
        (or as ``reply``)."""
        route = _BY_LABEL[label]
        path = _path(route, params, query)
        reply = reply or route.response
        if reply is str:
            return self._retrying(
                lambda: _text(self._exchange(route.method, path)), route.idempotent, label
            )
        idempotent = route.idempotent or "Idempotency-Key" in (headers or {})
        data = self._request(route.method, path, payload, headers, idempotent, label)
        if reply is not dict:
            return decode(reply, data)
        if not isinstance(data, dict):
            raise TransportError(
                f"Server reply to {label} must be a JSON object, got {type(data).__name__}"
            )
        return data

    def _request(
        self,
        method: str,
        path: str,
        payload: "Mapping[str, Any] | None" = None,
        headers: "Mapping[str, str] | None" = None,
        idempotent: bool = False,
        operation: str = "request",
    ) -> "Any":
        """One JSON exchange under the retry policy: the parsed reply."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")

        def attempt() -> "Any":
            raw = self._exchange(method, path, body, headers)
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TransportError(f"Server returned invalid JSON: {exc}") from exc

        return self._retrying(attempt, idempotent, operation)

    @staticmethod
    def _error_from_response(status: int, raw: bytes) -> ReproError:
        """Map a `/v1` error envelope back to a library exception."""
        try:
            payload = json.loads(raw.decode("utf-8"))
        except Exception:
            return TransportError(f"Server returned HTTP {status}: {raw[:200]!r}")
        return decode_error(status, payload)

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _exchange(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "Mapping[str, str] | None" = None,
    ) -> bytes:
        """One request; the response body, or the typed error for status >= 400."""

    @abc.abstractmethod
    def _stream(self, path: str) -> "Iterator[dict[str, Any]]":
        """One ``GET`` answered with NDJSON; its decoded records, lazily."""


def _path(route: Route, params: "Sequence[str]", query: "Mapping[str, Any] | None") -> str:
    """``route``'s path with its parameters in, and the query items that are set.

    A dataset name is the caller's and is quoted whole; a session id is the
    server's own token and goes as it is, so one the server could not have
    issued is refused before anything is sent.
    """
    parts, values = route.template.split("/"), iter(params)
    for i, part in enumerate(parts):
        if part == "{id}":
            parts[i] = next(values)
        elif part == "{name}":
            parts[i] = urllib.parse.quote(next(values), safe="")
    path = "/".join(parts)
    items = {name: value for name, value in (query or {}).items() if value is not None}
    return f"{path}?{urllib.parse.urlencode(items)}" if items else path


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TransportError(f"Server returned invalid UTF-8: {exc}") from exc


class _Connection:
    """A pooled socket and the ``poll`` object that probes it while idle."""

    __slots__ = ("sock", "_probe")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._probe = select.poll()
        self._probe.register(sock, select.POLLIN)

    def stale(self) -> bool:
        """Readable while idle: it holds EOF (the server closed it — idle
        timeout, drain, restart) or stray bytes; either way, unusable."""
        return bool(self._probe.poll(0))

    def close(self) -> None:
        self.sock.close()


class HTTPClient(SeeSawClientProtocol):
    """The `/v1` wire-protocol client — blocking, stdlib-only.

    ``client_id`` (sent as ``X-Client-Id``) names this caller for rate
    limiting and access logs; without it the server falls back to the
    remote address.

    ``retry_policy`` is described on :class:`SeeSawClientProtocol`; over HTTP it also
    engages the circuit breaker of the server's host.

    Calls reuse connections: each instance keeps up to
    ``_MAX_IDLE_CONNECTIONS`` idle keep-alive sockets, so threads may share
    one client and a loop of calls pays one TCP connect, not one per call.
    :meth:`close` (or leaving a ``with HTTPClient(...) as client:`` block)
    hangs them up.  A connection the server closed while it sat idle is
    replaced before anything is sent; the transport itself never resends a
    request.  NDJSON streams run on a one-shot connection of their own.

    The HTTP/1.1 framing is this module's and :mod:`repro.server.wire`'s,
    not ``http.client``'s: a request's line, headers and body leave in one
    ``sendall`` on a ``TCP_NODELAY`` socket, and the reply is framed by
    ``Content-Length``, or by chunks for NDJSON.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        client_id: "str | None" = None,
        retry_policy: "RetryPolicy | None" = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.client_id = client_id
        self.retry_policy = retry_policy
        parts = urllib.parse.urlsplit(self.base_url)
        self._host = parts.netloc or self.base_url
        secure = parts.scheme == "https"
        self._tls = ssl.create_default_context() if secure else None
        host, default_port = parts.hostname or "", 443 if secure else 80
        self._address = (host, parts.port or default_port)
        self._prefix = parts.path
        # The Host header as http.client writes it: IDNA-encoded, an IPv6
        # literal in brackets, the port only when it is not the default.
        host_field = host if host.isascii() else host.encode("idna").decode("ascii")
        if ":" in host_field:
            host_field = f"[{host_field}]"
        if self._address[1] != default_port:
            host_field += f":{self._address[1]}"
        self._request_fields = f"Host: {host_field}\r\nAccept-Encoding: identity\r\n"
        # Idle keep-alive connections, most recently used last.  Threads
        # sharing the client check one out per call and back in after it.
        self._idle: "list[_Connection]" = []
        self._idle_lock = threading.Lock()

    def _stream(self, path: str) -> "Iterator[dict[str, Any]]":
        """Yield decoded NDJSON records as the chunked response arrives.

        The caller consumes this lazily — it may abandon the generator, or
        call the client again mid-iteration — so a stream never borrows a
        pooled connection: it dials its own and closes it when the
        generator ends, however it ends.
        """
        message = self._message(
            "GET",
            path,
            None,
            self._headers(False, {"Accept": "application/x-ndjson", "Connection": "close"}),
        )
        sock = self._dial()
        try:
            sock.sendall(message)
            with sock.makefile("rb") as rfile:
                reply = Reply(rfile)
                if reply.status >= 400:
                    raise self._error_from_response(reply.status, reply.read())
                for line in _lines(reply.chunks()):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                        raise TransportError(
                            f"Server sent an invalid NDJSON line: {exc}"
                        ) from exc
                    yield record
        except (OSError, FramingError) as exc:
            raise self._died_mid_request(exc) from exc
        finally:
            sock.close()

    # ------------------------------------------------------------------
    # the wire: pooled keep-alive connections
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the idle pooled connections (the client stays usable)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _exchange(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "Mapping[str, str] | None" = None,
    ) -> bytes:
        """One request/response on a pooled connection; the response body.

        The connection goes back to the pool only after a fully read
        response the server did not mark ``Connection: close``; every other
        outcome closes it.  Nothing is ever resent here: a failure after the
        first request byte surfaces as ``request_sent=True`` and replaying
        is the retry policy's decision, made per call on idempotency.
        """
        message = self._message(method, path, body, self._headers(body is not None, headers))
        connection = self._checkout()
        reusable = False
        unsent: "OSError | None" = None
        try:
            try:
                connection.sock.sendall(message)
            except (BrokenPipeError, ConnectionResetError) as exc:
                # A server refusing the body (a 413) answers and closes
                # before reading it all: its reply may be waiting.
                unsent = exc
            # A reader per reply, as http.client has: bytes past the reply
            # are dropped with it, never read as the next reply's start.
            with connection.sock.makefile("rb") as rfile:
                reply = Reply(rfile)
                raw = reply.read()
            reusable = reply.reusable and unsent is None
        except (OSError, FramingError) as exc:
            raise self._died_mid_request(unsent or exc) from (unsent or exc)
        finally:
            if reusable:
                self._checkin(connection)
            else:
                connection.close()
        if reply.status >= 400:
            raise self._error_from_response(reply.status, raw)
        if unsent is not None:
            raise self._died_mid_request(unsent) from unsent
        return raw

    def _message(
        self, method: str, path: str, body: "bytes | None", fields: "Mapping[str, str]"
    ) -> bytes:
        """The whole request, head and body, in http.client's header order:
        ``Host``, ``Accept-Encoding``, ``Content-Length``, then ``fields``."""
        target = self._prefix + path
        if _UNSAFE_TARGET(target):
            raise TransportError(f"Request target {target!r} is not printable ASCII")
        lines = "".join(f"{name}: {value}\r\n" for name, value in fields.items())
        # One CR and one LF per line: a name or value holding either would
        # smuggle a header of its own.
        if lines.count("\n") != len(fields) or lines.count("\r") != len(fields):
            raise TransportError(f"Header fields {dict(fields)!r} hold a line break")
        if body is not None:
            lines = f"Content-Length: {len(body)}\r\n{lines}"
        head = f"{method} {target} HTTP/1.1\r\n{self._request_fields}{lines}\r\n"
        return head.encode("latin-1") + body if body else head.encode("latin-1")

    def _checkout(self) -> _Connection:
        """The most recently used idle connection that is still alive, else
        a new one.

        A stale connection is discarded *before any request byte is sent*,
        which is what keeps ``request_sent`` exact.
        """
        while True:
            with self._idle_lock:
                connection = self._idle.pop() if self._idle else None
            if connection is None:
                return _Connection(self._dial())
            if not connection.stale():
                return connection
            connection.close()

    def _checkin(self, connection: _Connection) -> None:
        with self._idle_lock:
            if len(self._idle) < _MAX_IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def _dial(self) -> socket.socket:
        """A freshly connected socket (TLS handshake included); failing
        here sent nothing."""
        sock = None
        try:
            sock = socket.create_connection(self._address, timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ConnectionFailedError(
                f"Could not reach SeeSaw service at {self.base_url}: {exc}",
                request_sent=False,
            ) from exc
        return sock

    def _died_mid_request(self, exc: Exception) -> ConnectionFailedError:
        """Anything the socket or the framing raises once a request is under way.

        A reset, a timeout, a short body, a bad status line or chunk, a
        server that closed without answering: the connection died partway,
        and the request may have been acted on.  Surfaces as the typed error
        the protocol promises, never raw ``OSError`` leakage; the retry
        policy and circuit breaker branch on ``request_sent``.
        """
        return ConnectionFailedError(
            f"Connection to SeeSaw service at {self.base_url} failed "
            f"mid-request: {exc!r}",
            request_sent=True,
        )


def _lines(chunks: "Iterator[bytes]") -> "Iterator[bytes]":
    """The lines of a body that arrives in chunks: a line may span chunks,
    and a chunk may hold several."""
    pending = b""
    for chunk in chunks:
        *lines, pending = (pending + chunk).split(b"\n")
        yield from lines
    yield pending


class InProcessClient(SeeSawClientProtocol):
    """The `/v1` calls handed to a :class:`~repro.server.app.SeeSawApp` in
    this process.

    Each call is a :class:`~repro.server.middleware.Request` through
    :meth:`SeeSawApp.handle_request
    <repro.server.app.SeeSawApp.handle_request>` — the entry point the HTTP
    handler calls, so request ids, access records, metrics, rate limiting,
    deadlines, admission and chaos apply exactly as over a socket — and the
    reply is decoded from :meth:`Response.body
    <repro.server.middleware.Response.body>`, the bytes HTTP would write.
    With no host there is no circuit breaker; retries follow
    ``retry_policy`` as in :class:`HTTPClient`.
    """

    def __init__(
        self, app: "SeeSawApp", retry_policy: "RetryPolicy | None" = None
    ) -> None:
        self.app = app
        self.retry_policy = retry_policy

    def _exchange(
        self,
        method: str,
        path: str,
        body: "bytes | None" = None,
        headers: "Mapping[str, str] | None" = None,
    ) -> bytes:
        response = self.app.handle_request(
            Request(method, path, body, self._headers(body is not None, headers))
        )
        raw = response.body()
        if response.status >= 400:
            raise self._error_from_response(response.status, raw)
        return raw

    def _stream(self, path: str) -> "Iterator[dict[str, Any]]":
        headers = self._headers(False, {"Accept": "application/x-ndjson"})
        response = self.app.handle_request(Request("GET", path, headers=headers))
        if response.status >= 400:
            raise self._error_from_response(response.status, response.body())
        yield from response.stream
