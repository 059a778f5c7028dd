"""The `/v1` structured error envelope and its exception mapping.

Every non-2xx `/v1` response carries one uniform envelope::

    {"error": {"code": "not_found",
               "message": "Unknown session 'session-9'",
               "retryable": false,
               "details": {"type": "UnknownResourceError", ...}}}

``code`` is a stable machine-readable string from the small registry below —
clients branch on it, never on the message text.  ``retryable`` tells a
client whether repeating the identical request can succeed (capacity and
rate-limit rejections are transient; validation failures are not).
``details`` carries auxiliary context: the library exception type the server
raised (which is also how the typed clients rebuild exceptions), the request
id the app assigned, and any error-specific fields.

The mapping is intentionally one table used in both directions: the app
layer encodes exceptions with :func:`encode_error`, the HTTP client decodes
envelopes back to the same exception types with :func:`decode_error`, so an
in-process caller and an HTTP caller observe identical error behaviour.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.exceptions import (
    DeadlineExceededError,
    IdempotencyConflictError,
    InternalServiceError,
    RateLimitedError,
    ReproError,
    RetryableError,
    ServiceOverloadedError,
    SessionError,
    TransportError,
    UnknownResourceError,
)


@dataclass(frozen=True)
class ErrorSpec:
    """How one exception family maps onto the wire."""

    status: int
    code: str
    retryable: bool


# Most-specific first: the encoder walks this list with isinstance, so a
# subclass must appear before its base or it would inherit the wrong code.
_SPECS: "tuple[tuple[type[BaseException], ErrorSpec], ...]" = (
    (RateLimitedError, ErrorSpec(429, "rate_limited", retryable=True)),
    (IdempotencyConflictError, ErrorSpec(409, "idempotency_conflict", retryable=False)),
    (ServiceOverloadedError, ErrorSpec(503, "overloaded", retryable=True)),
    (UnknownResourceError, ErrorSpec(404, "not_found", retryable=False)),
    # Not retryable *within the same call*: the caller's budget is spent.
    # A fresh call carries a fresh deadline, which is the caller's decision.
    (DeadlineExceededError, ErrorSpec(504, "deadline_exceeded", retryable=False)),
    (TransportError, ErrorSpec(400, "invalid_request", retryable=False)),
    # Session-state violations are request errors: 400, with a distinct
    # code so clients can still branch on the family.
    (SessionError, ErrorSpec(400, "session_state", retryable=False)),
    (InternalServiceError, ErrorSpec(500, "internal", retryable=True)),
    (ReproError, ErrorSpec(400, "bad_request", retryable=False)),
    (Exception, ErrorSpec(500, "internal", retryable=True)),
)

# Decoding picks the *first* entry per code (the most specific type), so a
# client rebuilds the exact exception family the server raised; the
# ``internal`` code lands on InternalServiceError, keeping transient server
# faults distinguishable (and retryable) client-side.
_CODE_TO_TYPE: "dict[str, type[ReproError]]" = {}
for _exc_type, _spec in _SPECS:
    if _spec.code not in _CODE_TO_TYPE and issubclass(_exc_type, ReproError):
        _CODE_TO_TYPE[_spec.code] = _exc_type


def error_spec(exc: BaseException) -> ErrorSpec:
    """The wire spec (status, code, retryable) for one raised exception."""
    for exc_type, spec in _SPECS:
        if isinstance(exc, exc_type):
            return spec
    return _SPECS[-1][1]  # pragma: no cover - Exception always matches


def encode_error(
    exc: BaseException,
    request_id: "str | None" = None,
    details: "Mapping[str, Any] | None" = None,
) -> "tuple[int, dict[str, Any]]":
    """Encode one exception as ``(status, envelope payload)``."""
    spec = error_spec(exc)
    merged: "dict[str, Any]" = {"type": type(exc).__name__}
    if request_id is not None:
        merged["request_id"] = request_id
    retry_after = getattr(exc, "retry_after_seconds", None)
    if retry_after is not None:
        merged["retry_after_seconds"] = float(retry_after)
    if details:
        merged.update(details)
    return spec.status, {
        "error": {
            "code": spec.code,
            "message": str(exc),
            "retryable": spec.retryable,
            "details": merged,
        }
    }


def decode_error(status: int, payload: Any) -> ReproError:
    """Rebuild the typed exception a `/v1` error envelope describes.

    Falls back to :class:`TransportError` when the body is not a well-formed
    envelope (a proxy error page, a truncated response), keeping the raw
    status visible in the message.
    """
    try:
        error = payload["error"]
        code = str(error["code"])
        message = str(error["message"])
    except Exception:
        return TransportError(f"Server returned HTTP {status}: {payload!r}")
    exc_type = _CODE_TO_TYPE.get(code, SessionError)
    exc = exc_type(message)
    if isinstance(exc, RetryableError):
        details = error.get("details")
        if isinstance(details, Mapping):
            hint = details.get("retry_after_seconds")
            if isinstance(hint, (int, float)):
                exc.retry_after_seconds = float(hint)
    return exc


def is_error_envelope(payload: Any) -> bool:
    """True when a decoded JSON body is a `/v1` error envelope."""
    return (
        isinstance(payload, Mapping)
        and isinstance(payload.get("error"), Mapping)
        and "code" in payload["error"]
    )
