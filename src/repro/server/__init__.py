"""Server layer: the query-aligner service mediating UI and index (§2).

Innermost out:

* :class:`SeeSawService` — the in-process registry of datasets, indexes, and
  live sessions (single-threaded);
* :class:`SessionManager` — thread-safe session engine (per-session locks,
  capacity limits, TTL eviction, idempotent feedback, double-checked index
  builds);
* :class:`SeeSawApp` — the versioned `/v1` wire protocol, one request path
  (request ids, access logs, rate limiting, deadlines, admission), over the
  stdlib ``ThreadingHTTPServer`` transport;
* :class:`SeeSawClientProtocol` — the one client base: each call a thin
  wrapper over its row of ``api.ROUTES``, over the transport of
  :class:`HTTPClient` (the `/v1` wire client) or :class:`InProcessClient`
  (the same `/v1` requests handed to a :class:`SeeSawApp` in this process,
  no socket).

Every layer records into the :mod:`repro.obs` metrics registry (request
counters and latency in the app, lock waits in the manager,
per-stage spans in the engines);
``GET /v1/metrics`` exposes the registry in Prometheus text and JSON.
"""

from repro.server.api import (
    PROTOCOL_REVISION,
    PROTOCOL_VERSION,
    BoxPayload,
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    SessionListEntry,
    SessionPage,
    SessionTelemetry,
    StartSessionRequest,
)
from repro.server.app import SeeSawApp
from repro.server.client import HTTPClient, InProcessClient, SeeSawClientProtocol
from repro.server.http import (
    BackgroundServer,
    SeeSawHTTPServer,
    serve_forever,
    serve_in_background,
)
from repro.server.manager import SessionManager
from repro.server.middleware import (
    PROMETHEUS_CONTENT_TYPE,
    RateLimiter,
    Request,
    Response,
)
from repro.server.service import SeeSawService

__all__ = [
    "SeeSawService",
    "SessionManager",
    "SeeSawApp",
    "SeeSawClientProtocol",
    "InProcessClient",
    "HTTPClient",
    "SeeSawHTTPServer",
    "BackgroundServer",
    "serve_in_background",
    "serve_forever",
    "Request",
    "Response",
    "RateLimiter",
    "PROMETHEUS_CONTENT_TYPE",
    "PROTOCOL_VERSION",
    "PROTOCOL_REVISION",
    "StartSessionRequest",
    "BoxPayload",
    "FeedbackRequest",
    "NextResultsResponse",
    "ResultItem",
    "SessionInfo",
    "SessionListEntry",
    "SessionPage",
    "SessionTelemetry",
]
