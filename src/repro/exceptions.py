"""Exception hierarchy for the SeeSaw reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at the API boundary while still distinguishing specific
failure modes when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed, or out of range."""


class DatasetError(ReproError):
    """A dataset is malformed or an entity (image, category) is unknown."""


class EmbeddingError(ReproError):
    """The embedding model was asked for something it cannot produce."""


class VectorStoreError(ReproError):
    """A vector store operation failed (empty store, dimension mismatch...)."""


class IndexingError(ReproError):
    """Building a multiscale index or kNN graph failed."""


class OptimizationError(ReproError):
    """The optimizer failed to make progress or received a bad objective."""


class SessionError(ReproError):
    """An interactive search session was used incorrectly."""


class UnknownResourceError(SessionError):
    """A referenced session or dataset does not exist (HTTP 404)."""


class RetryableError(ReproError):
    """Base for transient rejections that may carry a server backoff hint.

    ``retry_after_seconds`` is the server's own estimate of when repeating
    the request can succeed (a rate limiter knows its refill time, a load
    shedder reports a backoff hint).  It rides the wire as the standard
    ``Retry-After`` header plus the error envelope's details, so both the
    in-process and the HTTP client surface the same attribute.
    """

    def __init__(
        self, message: str, retry_after_seconds: "float | None" = None
    ) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class ServiceOverloadedError(SessionError, RetryableError):
    """The service is at capacity or draining (HTTP 503); retry elsewhere/later."""

    def __init__(
        self, message: str, retry_after_seconds: "float | None" = None
    ) -> None:
        SessionError.__init__(self, message)
        self.retry_after_seconds = retry_after_seconds


class RateLimitedError(RetryableError):
    """A client exceeded its request budget (HTTP 429); safe to retry later."""


class DeadlineExceededError(ReproError):
    """The request's deadline expired before the work finished (HTTP 504).

    Raised server-side the moment a request's propagated ``X-Deadline-Ms``
    budget runs out — before expensive work starts where possible, so a dead
    request's engine dispatch and lock time are not burned on an answer
    nobody is waiting for.  Not retryable within the same call:
    the caller's budget is gone; a fresh call carries a fresh deadline.
    """


class CircuitOpenError(ReproError):
    """The client's circuit breaker is open for this host; call not attempted.

    Raised client-side only: after ``breaker_failure_threshold`` consecutive
    transport-level failures the breaker stops hammering a dead host and
    fails fast until the ``breaker_reset_s`` cooldown admits a probe.
    """

    def __init__(
        self, message: str, retry_after_seconds: "float | None" = None
    ) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class InternalServiceError(ReproError):
    """The server failed unexpectedly (HTTP 500).

    Raised client-side when a `/v1` error envelope carries the ``internal``
    code, so callers can tell a transient server fault (retryable) from the
    non-retryable 4xx families without parsing envelopes themselves.
    """


class IdempotencyConflictError(SessionError):
    """An idempotency key was replayed with a different payload (HTTP 409)."""


class TransportError(ReproError):
    """An HTTP request or response payload is malformed."""


class ConnectionFailedError(TransportError):
    """The connection died before a well-formed response arrived.

    Client-side only — the server never encodes it.  Distinguished from the
    plain :class:`TransportError` (malformed payloads, validation failures)
    because the retry layer treats the two differently: a connection that
    was never established is always safe to retry, one that died mid-request
    only for calls the caller marked idempotent.
    """

    def __init__(self, message: str, request_sent: bool = True) -> None:
        super().__init__(message)
        self.request_sent = request_sent


class StoreError(ReproError):
    """Persisting or loading a serialized index failed."""


class BenchmarkError(ReproError):
    """A benchmark experiment was configured or executed incorrectly."""
