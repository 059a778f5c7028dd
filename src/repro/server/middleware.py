"""The request/response pair and the admission state of the `/v1` app.

:meth:`SeeSawApp.handle_request <repro.server.app.SeeSawApp.handle_request>`
is the one request path, under the HTTP transport and under the in-process
client alike.  This module holds what it works with:

* :class:`Request` / :class:`Response` — one decoded transport request
  (headers folded, target resolved against the route table once) and one
  reply (a JSON payload, an NDJSON stream, or text);
* :class:`RateLimiter` — a token bucket per client key; a drained bucket
  raises :class:`~repro.exceptions.RateLimitedError`, the 429 with a real
  refill time as its ``Retry-After``;
* :class:`InFlightTracker` — the bounded in-flight gauge admission control
  sheds against.

The :class:`~repro.server.manager.SessionManager` owns the one limiter and
the one tracker, so every app over one manager admits, throttles and drains
against the same state.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping
from urllib.parse import urlsplit

from repro.exceptions import RateLimitedError
from repro.server.api import Route, resolve

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""Content type of the Prometheus text exposition format."""


def collapse_leading_slashes(target: str) -> str:
    """``//v1/x`` as ``/v1/x``, as the stdlib's HTTP server reads it: a
    target that starts with ``//`` would split as a scheme-less URL whose
    first segment is a host."""
    return "/" + target.lstrip("/") if target.startswith("//") else target


@dataclass
class Request:
    """One decoded transport request, independent of the socket layer.

    What every layer asks of a request more than once is resolved here,
    once: header names are folded to lower case (``headers`` holds the
    folded mapping), and the target (a leading ``//`` collapsed, as over
    HTTP) is split into ``path`` and ``query``, then resolved against :data:`~repro.server.api.ROUTES`: the
    bounded-cardinality ``route`` label, the ``row`` that serves the
    method there (``None`` for no route) and its path ``params``.
    """

    method: str
    target: str
    body: "bytes | None" = None
    headers: "Mapping[str, str]" = field(default_factory=dict)
    client: "str | None" = None
    request_id: "str | None" = None
    path: str = field(init=False)
    query: str = field(init=False)
    route: str = field(init=False)
    row: "Route | None" = field(init=False)
    params: "tuple[str, ...]" = field(init=False)

    def __post_init__(self) -> None:
        folded: "dict[str, str]" = {}
        for name, value in self.headers.items():
            folded.setdefault(name.lower(), value)
        self.headers = folded
        self.target = collapse_leading_slashes(self.target)
        parts = urlsplit(self.target)
        self.path, self.query = parts.path, parts.query
        self.route, self.row, self.params = resolve(self.method, self.path)

    def header(self, name: str, default: "str | None" = None) -> "str | None":
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def client_key(self) -> str:
        """The identity rate limiting and access logs attribute requests to."""
        return self.headers.get("x-client-id") or self.client or "anonymous"


@dataclass
class Response:
    """One transport response: a JSON payload, an NDJSON stream, or text.

    Exactly one of ``payload`` (single-shot JSON body), ``stream``
    (iterator of JSON-serializable records, one NDJSON line each) and
    ``text`` (a plain-text body — the Prometheus exposition format) is set.
    """

    status: int
    payload: "dict[str, Any] | None" = None
    headers: "dict[str, str]" = field(default_factory=dict)
    stream: "Iterator[dict[str, Any]] | None" = None
    text: "str | None" = None

    def body(self) -> bytes:
        """The single-shot body as it goes on the wire (not for a stream)."""
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(self.payload).encode("utf-8")

    @property
    def content_type(self) -> str:
        if self.stream is not None:
            return "application/x-ndjson"
        if self.text is not None:
            return PROMETHEUS_CONTENT_TYPE
        return "application/json"


class RateLimiter:
    """Token-bucket rate limiting per client key.

    Each client (``X-Client-Id`` header, else remote address) owns a bucket
    of ``burst`` tokens refilled at ``rate_per_second``.  A request with no
    token available raises :class:`RateLimitedError` — the app layer maps it
    to the structured 429 envelope (``retryable: true``, with a retry hint
    in the message).

    The bucket table is bounded: past ``max_clients`` the least-recently
    seen bucket is dropped (a dropped client simply starts a fresh, full
    bucket — bias towards availability, not towards punishing returners).
    """

    def __init__(
        self,
        rate_per_second: float,
        burst: int,
        clock: "Callable[[], float]" = time.monotonic,
        max_clients: int = 1024,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be > 0; gate construction "
                             "on the config knob instead of passing 0")
        self.rate_per_second = float(rate_per_second)
        self.burst = max(1, int(burst))
        self.max_clients = int(max_clients)
        self._clock = clock
        self._lock = threading.Lock()
        # client key -> [tokens, last_refill]; dict order doubles as the
        # recency order (entries are re-inserted on every touch).
        self._buckets: "dict[str, list[float]]" = {}

    def take(self, client_key: str) -> None:
        """Take one of ``client_key``'s tokens, or raise the 429."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.pop(client_key, None)
            if bucket is None:
                bucket = [float(self.burst), now]
            tokens, last_refill = bucket
            tokens = min(
                float(self.burst),
                tokens + (now - last_refill) * self.rate_per_second,
            )
            if tokens < 1.0:
                # Re-insert before raising so the drained state (and its
                # refill clock) survives the rejected request.
                self._buckets[client_key] = [tokens, now]
                # The limiter knows exactly when the next token lands, so
                # the 429 carries a real refill time, not a guess — the app
                # turns it into the Retry-After header and both clients
                # surface it as ``exc.retry_after_seconds``.
                retry_after = (1.0 - tokens) / self.rate_per_second
                raise RateLimitedError(
                    f"Rate limit exceeded for client '{client_key}': "
                    f"{self.rate_per_second:g} requests/s sustained "
                    f"(burst {self.burst}); retry in {retry_after:.2f}s",
                    retry_after_seconds=retry_after,
                )
            self._buckets[client_key] = [tokens - 1.0, now]
            while len(self._buckets) > self.max_clients:
                self._buckets.pop(next(iter(self._buckets)))


class InFlightTracker:
    """The service's bounded in-flight gauge.

    The manager's one instance serves admission (admit or shed),
    ``/healthz`` and the drain (the count).
    """

    def __init__(self, limit: int = 0) -> None:
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def try_enter(self) -> bool:
        """Admit one request, or refuse at the bound."""
        with self._lock:
            if 0 < self.limit <= self._count:
                return False
            self._count += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._count = max(0, self._count - 1)
