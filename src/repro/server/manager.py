"""Thread-safe session engine in front of :class:`SeeSawService`.

``SeeSawService`` and ``SearchSession`` are single-threaded by design; the
HTTP transport (:mod:`repro.server.http`) handles each request on its own
thread.  The :class:`SessionManager` sits between them and provides:

* **per-session locks** — two requests touching the same session serialize,
  requests for different sessions proceed in parallel;
* **double-checked index builds** — two concurrent ``POST /sessions`` for the
  same not-yet-indexed dataset trigger exactly one build, the second request
  waits for it instead of duplicating the work;
* **capacity limiting** — at most ``max_sessions`` live sessions, excess
  starts fail fast with :class:`ServiceOverloadedError` (HTTP 503);
* **TTL eviction** — sessions idle longer than ``session_ttl_seconds`` are
  reaped, so abandoned browser tabs cannot pin memory forever.

Closing and evicting both go through :meth:`_remove_session`, which acquires
the session's own lock before the service-side close: a round already in
flight finishes cleanly, the registry entry and the service session are
removed as one unit, and concurrent close/evict callers race idempotently
instead of leaving a lock entry behind or double-deleting.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Callable, Sequence

from repro.exceptions import (
    IdempotencyConflictError,
    ServiceOverloadedError,
    TransportError,
    UnknownResourceError,
)
from repro.obs import timed_acquire
from repro.server.deadlines import check_deadline
from repro.server.middleware import InFlightTracker
from repro.server.api import (
    MAX_RESULT_COUNT,
    PROTOCOL_REVISION,
    PROTOCOL_VERSION,
    FeedbackRequest,
    NextResultsResponse,
    SessionInfo,
    SessionListEntry,
    SessionPage,
    SessionTelemetry,
    StartSessionRequest,
)
from repro.server.codec import decode_cursor, encode_cursor
from repro.server.service import SeeSawService

DEFAULT_PAGE_LIMIT = 50
"""Page size of ``GET /v1/sessions`` when the client does not pass one."""

MAX_PAGE_LIMIT = 500
"""Upper bound on one ``GET /v1/sessions`` page."""

IDEMPOTENCY_KEYS_PER_SESSION = 256
"""How many feedback idempotency records one session retains (FIFO).  A
client retry storm older than this window replays as a fresh apply — the
cap exists so a key-per-request client cannot grow memory unboundedly."""


class SessionManager:
    """Serializes access to a :class:`SeeSawService` for concurrent callers."""

    def __init__(
        self,
        service: SeeSawService,
        max_sessions: int = 256,
        session_ttl_seconds: float = 1800.0,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        self.service = service
        self.max_sessions = int(max_sessions)
        self.session_ttl_seconds = float(session_ttl_seconds)
        self._clock = clock
        self._started_at = clock()
        self._draining = threading.Event()
        self._inflight_tracker: "InFlightTracker | None" = None
        self._registry_lock = threading.Lock()
        self._session_locks: dict[str, threading.Lock] = {}
        self._last_used: dict[str, float] = {}
        # Monotonic creation sequence per session: the stable order (and the
        # opaque cursor space) of the paged session listing.
        self._created_seq: dict[str, int] = {}
        self._seq_counter = itertools.count(1)
        # Per-session idempotency records for /feedback:
        # key -> (request fingerprint, SessionInfo returned by the apply).
        self._idempotency: dict[str, OrderedDict[str, tuple[object, SessionInfo]]] = {}
        self._index_locks: dict[tuple[str, bool], threading.Lock] = {}
        self._index_locks_guard = threading.Lock()

    # ------------------------------------------------------------------
    # index builds
    # ------------------------------------------------------------------
    def _index_build_lock(self, dataset: str, multiscale: bool) -> threading.Lock:
        key = (dataset, multiscale)
        with self._index_locks_guard:
            lock = self._index_locks.get(key)
            if lock is None:
                lock = self._index_locks[key] = threading.Lock()
            return lock

    def ensure_index(self, dataset: str, multiscale: bool = True) -> None:
        """Build (or cache-load) an index at most once across threads.

        Classic double-checked locking: the fast path is a lock-free check
        against the service's in-memory index table; only a miss serializes
        on the per-(dataset, multiscale) build lock, re-checking inside it.
        """
        if self.service.has_index(dataset, multiscale):
            return
        with self._index_build_lock(dataset, multiscale):
            if not self.service.has_index(dataset, multiscale):
                self.service.index_for(dataset, multiscale)

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def start_session(self, request: StartSessionRequest) -> SessionInfo:
        """Start a session; evicts idle sessions and enforces capacity first.

        Cheap request validation and a preliminary capacity check run before
        ``ensure_index`` so a malformed or 503-destined request never
        triggers (or waits on) an expensive index build.
        """
        self._check_draining()
        self.service.validate_start_request(request)
        self.evict_expired()
        self._check_capacity()
        self.ensure_index(request.dataset, request.multiscale)
        with self._registry_lock:
            self._check_capacity_locked()
            info = self.service.start_session(request)
            self._session_locks[info.session_id] = threading.Lock()
            self._last_used[info.session_id] = self._clock()
            self._created_seq[info.session_id] = next(self._seq_counter)
            return info

    def _check_draining(self) -> None:
        if self._draining.is_set():
            self.service.metrics.counter(
                "seesaw_shed_total",
                "Requests shed before processing, by reason.",
                labels=("reason",),
            ).labels("draining").inc()
            raise ServiceOverloadedError(
                "Service is draining and accepts no new sessions; "
                "retry against another instance",
                retry_after_seconds=self.service.config.drain_timeout_s,
            )

    def _check_capacity(self) -> None:
        with self._registry_lock:
            self._check_capacity_locked()

    def _check_capacity_locked(self) -> None:
        if len(self._session_locks) >= self.max_sessions:
            raise ServiceOverloadedError(
                f"Session limit reached ({self.max_sessions} live sessions); "
                "retry later or close an existing session"
            )

    def _lock_for(self, session_id: str) -> threading.Lock:
        with self._registry_lock:
            lock = self._session_locks.get(session_id)
            if lock is None:
                raise UnknownResourceError(f"Unknown session '{session_id}'")
            return lock

    def _touch(self, session_id: str) -> None:
        with self._registry_lock:
            if session_id in self._last_used:
                self._last_used[session_id] = self._clock()

    def next_results(
        self, session_id: str, count: "int | None" = None
    ) -> NextResultsResponse:
        """Thread-safe :meth:`SeeSawService.next_results`."""
        check_deadline("next-results dispatch")
        with timed_acquire(self._lock_for(session_id)):
            # Re-check after the lock wait: time queued behind another round
            # is exactly the budget a dead request must not spend on an
            # engine dispatch.
            check_deadline("engine dispatch")
            response = self.service.next_results(session_id, count)
        self._touch(session_id)
        return response

    def give_feedback(
        self, request: FeedbackRequest, idempotency_key: "str | None" = None
    ) -> SessionInfo:
        """Thread-safe :meth:`SeeSawService.give_feedback`, optionally idempotent.

        With an ``idempotency_key``, the first apply records its result under
        the key; a replay with the *same* key and payload returns that
        recorded :class:`SessionInfo` without re-applying the feedback (a
        client retrying a timed-out request cannot double-label an image),
        and a replay with the same key but a *different* payload raises
        :class:`IdempotencyConflictError` — silently answering a different
        request with the cached result would hide a client bug.
        """
        check_deadline("feedback apply")
        with timed_acquire(self._lock_for(request.session_id)):
            if idempotency_key is not None:
                fingerprint = self._feedback_fingerprint(request)
                cache = self._idempotency.get(request.session_id)
                recorded = cache.get(idempotency_key) if cache is not None else None
                if recorded is not None:
                    recorded_fingerprint, recorded_info = recorded
                    if recorded_fingerprint != fingerprint:
                        raise IdempotencyConflictError(
                            f"Idempotency key '{idempotency_key}' was already "
                            f"used with a different feedback payload for "
                            f"session '{request.session_id}'"
                        )
                    info = recorded_info
                else:
                    info = self.service.give_feedback(request)
                    cache = self._idempotency.setdefault(
                        request.session_id, OrderedDict()
                    )
                    cache[idempotency_key] = (fingerprint, info)
                    while len(cache) > IDEMPOTENCY_KEYS_PER_SESSION:
                        cache.popitem(last=False)
            else:
                info = self.service.give_feedback(request)
        self._touch(request.session_id)
        return info

    @staticmethod
    def _feedback_fingerprint(request: FeedbackRequest) -> object:
        """A hashable identity of one feedback payload (for replay detection)."""
        return (
            request.image_id,
            request.relevant,
            tuple((box.x, box.y, box.width, box.height) for box in request.boxes),
        )

    def session_info(self, session_id: str) -> SessionInfo:
        """Thread-safe :meth:`SeeSawService.session_info`."""
        with timed_acquire(self._lock_for(session_id)):
            return self.service.session_info(session_id)

    def list_sessions(
        self, cursor: "str | None" = None, limit: "int | None" = None
    ) -> SessionPage:
        """One page of live sessions, in creation order, with telemetry.

        The cursor is opaque to clients; internally it is the creation
        sequence number of the last listed session, so a page boundary stays
        valid when sessions on either side of it are closed between pages.
        Telemetry fields are read without taking each session's lock — a
        listing must not queue behind every in-flight round, and a
        single-round-stale counter is fine for monitoring reads.
        """
        after = decode_cursor(cursor) if cursor is not None else 0
        if limit is None:
            limit = DEFAULT_PAGE_LIMIT
        if limit < 1 or limit > MAX_PAGE_LIMIT:
            raise TransportError(
                f"Field 'limit' must be between 1 and {MAX_PAGE_LIMIT}, got {limit}"
            )
        now = self._clock()
        with self._registry_lock:
            ordered = sorted(
                (seq, session_id)
                for session_id, seq in self._created_seq.items()
                if seq > after
            )
            last_used = dict(self._last_used)
        page, remainder = ordered[:limit], ordered[limit:]
        entries: "list[SessionListEntry]" = []
        for seq, session_id in page:
            try:
                info = self.service.session_info(session_id)
                stats = self.service.session_stats(session_id)
            except UnknownResourceError:
                # Closed between the registry snapshot and this read; the
                # listing simply skips it (its cursor slot stays consumed).
                continue
            telemetry = SessionTelemetry(
                idle_seconds=max(0.0, now - last_used.get(session_id, now)),
                lookup_seconds=stats.lookup_seconds,
                update_seconds=stats.update_seconds,
                seconds_per_round=stats.seconds_per_round,
            )
            entries.append(SessionListEntry(**vars(info), telemetry=telemetry))
        next_cursor = encode_cursor(page[-1][0]) if remainder and page else None
        return SessionPage(sessions=tuple(entries), next_cursor=next_cursor)

    def close_session(self, session_id: str) -> None:
        """Close a session and release its bookkeeping."""
        self._remove_session(session_id)

    def _remove_session(self, session_id: str, only_if_expired: bool = False) -> bool:
        """Atomically retire one session; returns True if this call owned it.

        The registry entries are popped under the registry lock, then the
        service-side close runs *while holding the session's own lock*: a
        request already past ``_lock_for`` finishes its round against a live
        session instead of having it deleted mid-flight, and two concurrent
        removers (close vs. evict, or double close) race on the pop — the
        loser sees no entry and does nothing, so nothing is double-deleted
        and no lock entry is left behind.

        ``only_if_expired`` re-checks the TTL under the registry lock at pop
        time: an eviction decision made earlier must not retire a session a
        concurrent request touched in the meantime.
        """
        with self._registry_lock:
            if only_if_expired:
                last_used = self._last_used.get(session_id)
                if (
                    last_used is None
                    or self._clock() - last_used <= self.session_ttl_seconds
                ):
                    return False
            lock = self._session_locks.pop(session_id, None)
            self._last_used.pop(session_id, None)
            self._created_seq.pop(session_id, None)
            self._idempotency.pop(session_id, None)
        if lock is None:
            # Already closed or evicted (or never existed); closing the
            # service side again is a harmless no-op, kept for callers that
            # bypass the manager's registry.
            self.service.close_session(session_id)
            return False
        with lock:
            self.service.close_session(session_id)
        return True

    # ------------------------------------------------------------------
    # eviction and introspection
    # ------------------------------------------------------------------
    def evict_expired(self) -> "list[str]":
        """Close sessions idle longer than the TTL; returns the evicted ids.

        Expiry is decided under the registry lock, but each removal goes
        through :meth:`_remove_session` so an eviction racing a concurrent
        ``close_session`` settles on exactly one owner per session.
        """
        now = self._clock()
        with self._registry_lock:
            expired = [
                session_id
                for session_id, last_used in self._last_used.items()
                if now - last_used > self.session_ttl_seconds
            ]
        return [
            session_id
            for session_id in expired
            if self._remove_session(session_id, only_if_expired=True)
        ]

    @property
    def active_session_count(self) -> int:
        """Number of live (non-evicted) sessions."""
        with self._registry_lock:
            return len(self._session_locks)

    # ------------------------------------------------------------------
    # graceful drain
    # ------------------------------------------------------------------
    def attach_inflight_tracker(self, tracker: InFlightTracker) -> None:
        """Register the app pipeline's in-flight tracker.

        One tracker serves three consumers: admission control (the
        middleware that owns it), ``/healthz`` (the live count below), and
        :meth:`drain` (which waits for the count to reach zero).
        """
        self._inflight_tracker = tracker

    @property
    def in_flight(self) -> int:
        """Requests currently inside the app pipeline (0 when untracked)."""
        tracker = self._inflight_tracker
        return tracker.count if tracker is not None else 0

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Flip to draining: ``/healthz`` reports it, new sessions get 503."""
        self._draining.set()

    def drain(self, timeout_s: "float | None" = None) -> bool:
        """Stop accepting new sessions and wait out in-flight work.

        Returns ``True`` when in-flight reached zero inside the budget
        (``config.drain_timeout_s`` when not given), ``False`` when the
        budget ran out first — the caller closes the listener either way;
        the return value only says whether any request was cut off.
        Idempotent and safe to call from a signal handler's thread.
        """
        self.begin_drain()
        if timeout_s is None:
            timeout_s = self.service.config.drain_timeout_s
        deadline = time.monotonic() + float(timeout_s)
        while self.in_flight > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        return True

    def capabilities(self) -> "dict[str, object]":
        """The payload ``GET /v1/capabilities`` returns.

        Everything a client needs to negotiate up front: the protocol
        revision, which optional features this deployment serves, the hard
        request limits, and the compute topology requests will score
        through.  Deployment-static by design — unlike ``/healthz`` it
        carries no live counters, so clients may cache it per connection.
        """
        config = self.service.config
        return {
            "protocol": {
                "version": PROTOCOL_VERSION,
                "revision": PROTOCOL_REVISION,
            },
            "features": {
                "streaming_ndjson": True,
                "idempotent_feedback": True,
                "cursor_paging": True,
                "rate_limiting": config.rate_limit_rps > 0,
                "metrics_exposition": True,
                "tracing": config.telemetry.enabled,
                "graph_ann": config.ann_search,
                "deadline_propagation": True,
                "admission_control": config.max_in_flight > 0,
                "graceful_drain": True,
                "retry_hints": True,
                "live_datasets": config.live_datasets,
            },
            "limits": {
                "max_sessions": self.max_sessions,
                "max_count": MAX_RESULT_COUNT,
                "max_page_limit": MAX_PAGE_LIMIT,
                "idempotency_keys_per_session": IDEMPOTENCY_KEYS_PER_SESSION,
                "session_ttl_seconds": self.session_ttl_seconds,
                "rate_limit_rps": config.rate_limit_rps,
                "rate_limit_burst": config.rate_limit_burst,
                "request_deadline_ms": config.request_deadline_ms,
                "max_in_flight": config.max_in_flight,
                "drain_timeout_s": config.drain_timeout_s,
            },
            "compute": {
                "compute_dtype": config.compute_dtype,
                "n_shards": config.n_shards,
                "quantized_store": config.quantized_store,
                "ann_search": config.ann_search,
                "ann_ef": config.ann_ef,
                "ann_graph_degree": config.ann_graph_degree,
                "mmap_index": config.mmap_index,
            },
            "datasets": list(self.service.dataset_names),
            # Current registry version per dataset (protocol revision 4).
            # Technically not deployment-static, but versions only move on
            # explicit mutations; clients pinning a version re-read this.
            "dataset_versions": self.service.live.versions(),
        }

    # ------------------------------------------------------------------
    # live datasets (protocol revision 4)
    # ------------------------------------------------------------------
    def list_datasets(self) -> "list[dict[str, object]]":
        """All registered datasets' registry manifests."""
        return self.service.live.list_datasets()

    def describe_dataset(self, name: str) -> "dict[str, object]":
        """The registry manifest of one dataset."""
        return self.service.live.describe(name)

    def upsert_images(
        self, name: str, images: "Sequence[object]"
    ) -> "dict[str, object]":
        """Add or replace images in a live dataset (serialized per dataset)."""
        self._check_draining()
        check_deadline("dataset upsert")
        return self.service.live.upsert_images(name, images)  # type: ignore[arg-type]

    def delete_images(
        self, name: str, image_ids: "Sequence[int]"
    ) -> "dict[str, object]":
        """Delete images from a live dataset (serialized per dataset)."""
        self._check_draining()
        check_deadline("dataset delete")
        return self.service.live.delete_images(name, image_ids)

    def force_merge(self, name: str) -> "dict[str, object]":
        """Synchronously compact the dataset's delta segment."""
        check_deadline("dataset merge")
        return self.service.live.force_merge(name)

    # ------------------------------------------------------------------
    # metrics exposition (GET /v1/metrics)
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The Prometheus text exposition of the service's registry."""
        return self.service.metrics.to_prometheus_text()

    def metrics_json(self) -> "dict[str, object]":
        """The JSON exposition (same snapshot, quantile estimates included)."""
        return self.service.metrics.to_json()

    def health(self) -> "dict[str, object]":
        """The payload ``GET /v1/healthz`` returns."""
        return {
            "state": "draining" if self.draining else "serving",
            "uptime_seconds": max(0.0, self._clock() - self._started_at),
            "in_flight": self.in_flight,
            "open_connections": int(self.service.http_open_connections.value),
            "datasets": list(self.service.dataset_names),
            "active_sessions": self.active_session_count,
            "max_sessions": self.max_sessions,
            "index_cache_hits": self.service.cache_hits,
            "index_cache_misses": self.service.cache_misses,
            # One columnar query engine per in-memory index, shared by all
            # sessions on that dataset; per-session state is only the
            # SeenMask each session's context holds across HTTP rounds.
            "cached_engines": self.service.cached_engine_count,
            # Sharding topology.
            "n_shards": self.service.config.n_shards,
            "store_shards": self.service.store_shard_counts,
            # Storage & compute tiers: the scoring dtype, whether the int8
            # candidate tier is on, and whether cache loads memory-map.
            "compute_dtype": self.service.config.compute_dtype,
            "quantized_store": self.service.config.quantized_store,
            "ann_search": self.service.config.ann_search,
            "mmap_index": self.service.config.mmap_index,
            "store_tiers": self.service.store_tiers,
            # Physical generation per dataset: bumps on every mutation *and*
            # every merge swap, so dashboards can watch compactions land.
            "dataset_generations": self.service.live.dataset_generations(),
        }
