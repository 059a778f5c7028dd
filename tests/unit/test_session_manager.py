"""SessionManager concurrency semantics: locking, capacity, TTL eviction."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.config import SeeSawConfig
from repro.core.indexing import SeeSawIndex
from repro.obs import MetricsRegistry
from repro.exceptions import (
    ServiceOverloadedError,
    SessionError,
    UnknownResourceError,
)
from repro.server import (
    FeedbackRequest,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def service(tiny_dataset, tiny_clip):
    # A private registry keeps counter assertions exact even though other
    # tests in this pytest process share the global registry.
    service = SeeSawService(
        SeeSawConfig(embedding_dim=64, seed=7), registry=MetricsRegistry()
    )
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    return service


def start_request(query: str = "a cat_easy") -> StartSessionRequest:
    return StartSessionRequest(dataset="tiny", text_query=query, batch_size=2)


class TestValidation:
    def test_bad_batch_size_rejected_up_front(self, service):
        with pytest.raises(SessionError, match="batch_size"):
            service.start_session(
                StartSessionRequest(dataset="tiny", text_query="a cat", batch_size=0)
            )

    def test_empty_query_rejected_up_front(self, service):
        with pytest.raises(SessionError, match="text_query"):
            service.start_session(
                StartSessionRequest(dataset="tiny", text_query="   ", batch_size=1)
            )

    def test_reregistering_dataset_invalidates_stale_index(
        self, tiny_dataset, tiny_clip
    ):
        service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7))
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        stale = service.index_for("tiny")
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=False)
        assert not service.has_index("tiny")
        assert service.index_for("tiny") is not stale

    def test_unknown_dataset_is_unknown_resource(self, service):
        manager = SessionManager(service)
        with pytest.raises(UnknownResourceError, match="not registered"):
            manager.start_session(
                StartSessionRequest(dataset="missing", text_query="a cat")
            )


class TestCapacityAndTtl:
    def test_capacity_limit(self, service):
        manager = SessionManager(service, max_sessions=2)
        manager.start_session(start_request())
        manager.start_session(start_request())
        with pytest.raises(ServiceOverloadedError, match="Session limit"):
            manager.start_session(start_request())

    def test_closing_frees_capacity(self, service):
        manager = SessionManager(service, max_sessions=1)
        info = manager.start_session(start_request())
        manager.close_session(info.session_id)
        assert manager.active_session_count == 0
        manager.start_session(start_request())

    def test_idle_sessions_are_evicted(self, service):
        clock = FakeClock()
        manager = SessionManager(
            service, session_ttl_seconds=100.0, clock=clock
        )
        stale = manager.start_session(start_request())
        clock.advance(50.0)
        fresh = manager.start_session(start_request())
        clock.advance(60.0)  # stale idle 110s > TTL, fresh idle 60s < TTL
        evicted = manager.evict_expired()
        assert evicted == [stale.session_id]
        assert fresh.session_id in service.session_ids
        assert stale.session_id not in service.session_ids
        with pytest.raises(UnknownResourceError):
            manager.next_results(stale.session_id)

    def test_activity_refreshes_ttl(self, service):
        clock = FakeClock()
        manager = SessionManager(service, session_ttl_seconds=100.0, clock=clock)
        info = manager.start_session(start_request())
        clock.advance(90.0)
        manager.next_results(info.session_id)  # touches the session
        clock.advance(90.0)
        assert manager.evict_expired() == []
        assert info.session_id in service.session_ids

    def test_start_session_triggers_eviction(self, service):
        clock = FakeClock()
        manager = SessionManager(
            service, max_sessions=1, session_ttl_seconds=10.0, clock=clock
        )
        manager.start_session(start_request())
        clock.advance(11.0)
        # At capacity, but the idle session is expired; the start must succeed.
        manager.start_session(start_request())
        assert manager.active_session_count == 1


class TestConcurrency:
    def test_index_built_exactly_once_across_threads(
        self, tiny_dataset, tiny_clip, monkeypatch
    ):
        service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7))
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=False)
        manager = SessionManager(service)

        build_calls: list[int] = []
        original_build = SeeSawIndex.build.__func__

        def counting_build(cls, *args, **kwargs):
            build_calls.append(1)
            return original_build(cls, *args, **kwargs)

        monkeypatch.setattr(SeeSawIndex, "build", classmethod(counting_build))

        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                barrier.wait(timeout=10.0)
                manager.ensure_index("tiny", multiscale=True)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(build_calls) == 1
        assert service.has_index("tiny", multiscale=True)

    def test_concurrent_feedback_on_separate_sessions(self, service):
        manager = SessionManager(service)
        infos = [manager.start_session(start_request()) for _ in range(4)]
        errors: list[BaseException] = []

        def drive(session_id: str) -> None:
            try:
                for _ in range(2):
                    batch = manager.next_results(session_id)
                    for item in batch.items:
                        manager.give_feedback(
                            FeedbackRequest(
                                session_id=session_id,
                                image_id=item.image_id,
                                relevant=False,
                            )
                        )
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(info.session_id,)) for info in infos
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        for info in infos:
            summary = manager.session_info(info.session_id)
            assert summary.total_shown == 4
            assert summary.rounds == 2

    def test_concurrent_rounds_match_sequential_rounds(self, service):
        """Sessions run side by side see exactly what they see run alone."""
        manager = SessionManager(service)
        queries = ["a cat_easy", "a cat_hard", "a cat_easy", "a cat_hard"]

        def drive(session_id: str, shown: "list[list[int]]") -> None:
            for _ in range(3):
                batch = manager.next_results(session_id)
                shown.append([item.image_id for item in batch.items])
                for item in batch.items:
                    manager.give_feedback(
                        FeedbackRequest(
                            session_id=session_id,
                            image_id=item.image_id,
                            relevant=item.image_id % 2 == 0,
                        )
                    )

        sequential: "list[list[list[int]]]" = []
        for query in queries:
            info = manager.start_session(start_request(query))
            sequential.append([])
            drive(info.session_id, sequential[-1])

        concurrent: "list[list[list[int]]]" = [[] for _ in queries]
        infos = [manager.start_session(start_request(query)) for query in queries]
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(infos))

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                drive(infos[index].session_id, concurrent[index])
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(infos))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert concurrent == sequential

    def test_racing_next_on_one_session_yields_one_round(self, service):
        """The session lock admits one round; the other sees it pending."""
        manager = SessionManager(service)
        info = manager.start_session(start_request())
        barrier = threading.Barrier(2)
        outcomes: "list[object]" = []

        def worker() -> None:
            barrier.wait(timeout=10.0)
            try:
                outcomes.append(manager.next_results(info.session_id))
            except SessionError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(outcomes) == 2
        errors = [outcome for outcome in outcomes if isinstance(outcome, SessionError)]
        assert len(errors) == 1
        assert "unlabelled" in str(errors[0])
        assert manager.session_info(info.session_id).total_shown == 2


class TestCloseEvictRaces:
    """Regressions for the close/evict race: removal must be atomic.

    Closing (or evicting) a session used to drop the registry entries and
    then close the service-side session without holding the session's own
    lock: a request already inside its round could have the session deleted
    mid-flight, and a close racing an eviction could interleave their
    partial deletes.  ``_remove_session`` now owns the whole retirement
    under the session lock; these tests pin that behavior.
    """

    def test_close_waits_for_inflight_round(self, service, monkeypatch):
        manager = SessionManager(service)
        info = manager.start_session(start_request())
        entered = threading.Event()
        release = threading.Event()
        original = type(service).next_results

        def slow_next(self, session_id, count=None):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(self, session_id, count)

        monkeypatch.setattr(type(service), "next_results", slow_next)
        round_outcome: list[object] = []
        request_thread = threading.Thread(
            target=lambda: round_outcome.append(manager.next_results(info.session_id))
        )
        request_thread.start()
        assert entered.wait(timeout=10.0)
        close_thread = threading.Thread(
            target=manager.close_session, args=(info.session_id,)
        )
        close_thread.start()
        # The close must block behind the in-flight round, not rip the
        # session out from under it.
        close_thread.join(timeout=0.2)
        assert close_thread.is_alive()
        release.set()
        request_thread.join(timeout=10.0)
        close_thread.join(timeout=10.0)
        assert not close_thread.is_alive()
        # The round completed against a live session...
        assert round_outcome and len(round_outcome[0].items) == 2
        # ...and afterwards the session is fully gone, nothing left behind.
        assert manager.active_session_count == 0
        assert info.session_id not in service.session_ids
        assert info.session_id not in manager._session_locks
        assert info.session_id not in manager._last_used

    def test_concurrent_close_and_evict_single_owner(self, service):
        clock = FakeClock()
        manager = SessionManager(service, session_ttl_seconds=10.0, clock=clock)
        infos = [manager.start_session(start_request()) for _ in range(8)]
        clock.advance(11.0)  # everything is now expired
        evicted_lists: list[list[str]] = []
        barrier = threading.Barrier(5, timeout=10.0)
        errors: list[BaseException] = []

        def evictor() -> None:
            try:
                barrier.wait()
                evicted_lists.append(manager.evict_expired())
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def closer(session_ids: list[str]) -> None:
            try:
                barrier.wait()
                for session_id in session_ids:
                    manager.close_session(session_id)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        session_ids = [info.session_id for info in infos]
        threads = [threading.Thread(target=evictor) for _ in range(3)] + [
            threading.Thread(target=closer, args=(session_ids[:4],)),
            threading.Thread(target=closer, args=(session_ids[4:],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        # Each session was evicted at most once across all evictors (no
        # double-delete), and nothing is left behind anywhere.
        evicted = [session_id for chunk in evicted_lists for session_id in chunk]
        assert len(evicted) == len(set(evicted))
        assert manager.active_session_count == 0
        assert not manager._session_locks
        assert not manager._last_used
        assert not service.session_ids

    def test_close_after_evict_is_clean_noop(self, service):
        clock = FakeClock()
        manager = SessionManager(service, session_ttl_seconds=10.0, clock=clock)
        info = manager.start_session(start_request())
        clock.advance(11.0)
        assert manager.evict_expired() == [info.session_id]
        manager.close_session(info.session_id)  # must not raise
        assert manager.evict_expired() == []
        assert manager.active_session_count == 0

    def test_registry_invariant_under_churn(self, service):
        """Random start/close/evict churn never desyncs the three tables."""
        manager = SessionManager(service, max_sessions=16, session_ttl_seconds=0.05)
        rng = random.Random(7)
        errors: list[BaseException] = []

        def churn(seed: int) -> None:
            local = random.Random(seed)
            own: list[str] = []
            try:
                for _ in range(25):
                    action = local.random()
                    if action < 0.5:
                        try:
                            own.append(manager.start_session(start_request()).session_id)
                        except ServiceOverloadedError:
                            pass
                    elif action < 0.8 and own:
                        manager.close_session(own.pop(local.randrange(len(own))))
                    else:
                        manager.evict_expired()
                    if local.random() < 0.2:
                        time.sleep(0.01)
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(rng.randrange(10_000),))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        manager.evict_expired()  # TTL is tiny; this may reap survivors
        with manager._registry_lock:
            assert set(manager._session_locks) == set(manager._last_used)
            assert set(manager._session_locks) >= set(service.session_ids)


class TestEvictionTouchRace:
    def test_eviction_spares_sessions_touched_after_the_decision(self, service):
        """A session renewed between expiry decision and removal survives."""
        clock = FakeClock()
        manager = SessionManager(service, session_ttl_seconds=100.0, clock=clock)
        info = manager.start_session(start_request())
        clock.advance(101.0)  # expired by the decision...
        # ...but a request touches it before the evictor gets to the pop
        # (the lock-released gap between deciding and removing).
        decided = manager._last_used  # noqa: F841 - decision uses the same table
        with manager._registry_lock:
            expired = [
                session_id
                for session_id, last_used in manager._last_used.items()
                if clock() - last_used > manager.session_ttl_seconds
            ]
        assert expired == [info.session_id]
        manager.next_results(info.session_id)  # concurrent touch
        removed = [
            session_id
            for session_id in expired
            if manager._remove_session(session_id, only_if_expired=True)
        ]
        assert removed == []
        assert info.session_id in service.session_ids
        assert manager.active_session_count == 1

    def test_ttl_eviction_races_inflight_next(self, service, monkeypatch):
        """Eviction must wait behind an in-flight round, never rip it out.

        The session expired on the clock while a ``next`` round was already
        executing under its session lock: the evictor pops the registry
        entries but the service-side close blocks on that lock, so the
        round finishes against a live session and only then is it retired
        — no half-deleted session, no error surfaced to the in-flight
        caller.
        """
        clock = FakeClock()
        manager = SessionManager(service, session_ttl_seconds=50.0, clock=clock)
        info = manager.start_session(start_request())
        entered = threading.Event()
        release = threading.Event()
        original = type(service).next_results

        def slow_next(self, session_id, count=None):
            entered.set()
            assert release.wait(timeout=10.0)
            return original(self, session_id, count)

        monkeypatch.setattr(type(service), "next_results", slow_next)
        round_outcome: list[object] = []
        request_thread = threading.Thread(
            target=lambda: round_outcome.append(manager.next_results(info.session_id))
        )
        request_thread.start()
        assert entered.wait(timeout=10.0)
        # The session expires while the round is mid-flight.
        clock.advance(51.0)
        evicted: list[list[str]] = []
        evict_thread = threading.Thread(
            target=lambda: evicted.append(manager.evict_expired())
        )
        evict_thread.start()
        # The evictor is stuck behind the in-flight round's session lock.
        evict_thread.join(timeout=0.2)
        assert evict_thread.is_alive()
        release.set()
        request_thread.join(timeout=10.0)
        evict_thread.join(timeout=10.0)
        assert not evict_thread.is_alive()
        # The in-flight round completed normally against a live session...
        assert round_outcome and len(round_outcome[0].items) == 2
        # ...the eviction then owned the retirement exactly once...
        assert evicted == [[info.session_id]]
        # ...and nothing of the session survives anywhere.
        assert manager.active_session_count == 0
        assert info.session_id not in service.session_ids
        assert info.session_id not in manager._session_locks
        assert info.session_id not in manager._last_used
