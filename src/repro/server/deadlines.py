"""Deadline propagation for the `/v1` service.

A deadline is a *remaining budget*: the caller says "this answer is useless
to me after N milliseconds" and every layer below — middleware, session
locks, engine dispatch — checks the budget before spending work on it.  The
wire carries the budget as the ``X-Deadline-Ms`` header (milliseconds
remaining at send time, not a wall-clock timestamp, so clock skew between
client and server cannot silently shrink or inflate it — skew only costs the
network flight time, which is the best any header scheme can do).

Propagation is a contextvar, not an argument threaded through every
signature: :func:`deadline_scope` binds a :class:`Deadline` to the current
context, and any layer below reads it back with :func:`current_deadline`.
The same contextvar serves both sides of the stack:

* server-side, :class:`~repro.server.middleware.DeadlineMiddleware` parses
  the header (or applies the configured default) and opens the scope for
  the request thread;
* client-side, a caller wraps a protocol call in ``deadline_scope(ms)`` —
  the :class:`~repro.server.client.HTTPClient` turns the remaining budget
  into the header, the in-process client's scope is simply *seen* by the
  manager directly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

from repro.exceptions import DeadlineExceededError, TransportError

DEADLINE_HEADER = "X-Deadline-Ms"
"""Wire header carrying the remaining request budget in milliseconds."""

_current_deadline: "ContextVar[Deadline | None]" = ContextVar(
    "seesaw_deadline", default=None
)


class Deadline:
    """An absolute expiry on a monotonic clock, built from a relative budget."""

    __slots__ = ("expires_at", "budget_ms", "_clock")

    def __init__(
        self, budget_ms: float, clock: "Callable[[], float]" = time.monotonic
    ) -> None:
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self.expires_at = clock() + self.budget_ms / 1000.0

    def remaining_seconds(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.expires_at - self._clock()

    def remaining_ms(self) -> float:
        """Milliseconds of budget left (negative once expired)."""
        return self.remaining_seconds() * 1000.0

    def check(self, what: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is gone.

        ``what`` names the stage that would have spent the dead budget
        (``"engine dispatch"``, ``"feedback apply"``) — it lands in the error
        message so a 504's envelope says *where* the request died, not just
        that it did.
        """
        remaining = self.remaining_ms()
        if remaining <= 0.0:
            raise DeadlineExceededError(
                f"Deadline exceeded before {what}: budget of "
                f"{self.budget_ms:.0f}ms overrun by {-remaining:.0f}ms"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget_ms={self.budget_ms}, remaining_ms={self.remaining_ms():.1f})"


def parse_deadline_header(value: str) -> Deadline:
    """Parse one ``X-Deadline-Ms`` header into a :class:`Deadline`.

    Non-numeric values are a 400 (the client is malformed, not late); zero
    and negative budgets parse successfully into an already-expired deadline
    — a clock-skewed client that shipped a dead budget gets the typed 504,
    not a validation error.
    """
    try:
        budget_ms = float(value)
    except ValueError as exc:
        raise TransportError(
            f"Header '{DEADLINE_HEADER}' must be a number of milliseconds, "
            f"got '{value}'"
        ) from exc
    if budget_ms != budget_ms or budget_ms in (float("inf"), float("-inf")):
        raise TransportError(
            f"Header '{DEADLINE_HEADER}' must be finite, got '{value}'"
        )
    return Deadline(budget_ms)


def current_deadline() -> "Deadline | None":
    """The deadline bound to the current context, if any."""
    return _current_deadline.get()


@contextmanager
def deadline_scope(deadline: "Deadline | float | None") -> "Iterator[Deadline | None]":
    """Bind a deadline to the current context for the duration of the block.

    Accepts a ready :class:`Deadline`, a relative budget in milliseconds, or
    ``None`` (which *clears* any inherited deadline — useful for background
    work spawned inside a request that must outlive it).
    """
    if deadline is not None and not isinstance(deadline, Deadline):
        deadline = Deadline(float(deadline))
    token = _current_deadline.set(deadline)
    try:
        yield deadline
    finally:
        _current_deadline.reset(token)


def check_deadline(what: str) -> None:
    """Check the context deadline, if any.

    The one-line guard hot paths use::

        check_deadline("engine dispatch")
    """
    deadline = _current_deadline.get()
    if deadline is not None:
        deadline.check(what)
