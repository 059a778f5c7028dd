"""The `/v1` service under concurrent and hostile load, as fixed scripts.

Each test is one load shape that once flushed out a serving bug: replayed
feedback, slow streaming readers, sessions churning beside live traffic,
queries racing upserts and segment merges, and a client whose transport
fails inside a fault window.  A script has a set call order and set counts;
where a window matters the clock is a fake one.  Every test asserts which
errors the shape may raise — exactly that set, or an empty one — and fails
on anything else.  (A burst past the rate limiter is
``test_http_v1.py::TestRateLimiting::test_429_over_http_then_recovery``.)
Timing under load is ``perf/``'s job; the one time bound here is a generous
ceiling on each read beside a merge, which a read blocked by it would miss.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time

import pytest

from repro.config import SeeSawConfig
from repro.exceptions import (
    IdempotencyConflictError,
    ReproError,
    ServiceOverloadedError,
    UnknownResourceError,
)
from repro.live.delta import DeltaVectorStore
from repro.obs import MetricsRegistry
from repro.server import (
    FeedbackRequest,
    HTTPClient,
    InProcessClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    serve_in_background,
)

from chaos import FaultPlan, FaultyClient

QUERY = "a cat_easy"


def _stack(tiny_dataset, tiny_clip, **config):
    service = SeeSawService(
        SeeSawConfig(embedding_dim=64, seed=7, **config), registry=MetricsRegistry()
    )
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    return service, SeeSawApp(SessionManager(service))


@pytest.fixture(scope="module")
def app(tiny_dataset, tiny_clip):
    """One sharded service for every script that needs no fresh state."""
    return _stack(tiny_dataset, tiny_clip, n_shards=2)[1]


@pytest.fixture(scope="module")
def server(app):
    with serve_in_background(app) as server:
        yield server


def _start(client, batch_size: int = 3, query: str = QUERY):
    return client.start_session(
        StartSessionRequest(dataset="tiny", text_query=query, batch_size=batch_size)
    ).session_id


def _label(client, session_id: str, items) -> None:
    for item in items:
        client.give_feedback(FeedbackRequest(session_id, item.image_id, False))


def _run_threads(targets, timeout: float = 60.0) -> "list[BaseException]":
    """Run each target on its own thread; what they raised, in order."""
    failures: "list[BaseException]" = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # reported by the caller
            failures.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads), "a script deadlocked"
    return failures


def test_feedback_replayed_from_two_threads_applies_once(server):
    """Same key, same payload: one result for both; another payload: 409."""
    owner = HTTPClient(server.url, client_id="replay-owner")
    session_id = _start(owner)
    items = owner.next_results(session_id).items
    barrier = threading.Barrier(2, timeout=10.0)
    outcomes: "list[list[object]]" = [[], []]

    def replayer(slot: int) -> None:
        client = HTTPClient(server.url, client_id=f"replay-{slot}")
        for item in items:
            key = f"key-{item.image_id}"
            barrier.wait()
            outcomes[slot].append(
                client.give_feedback(
                    FeedbackRequest(session_id, item.image_id, True), idempotency_key=key
                )
            )
            barrier.wait()
            try:
                client.give_feedback(
                    FeedbackRequest(session_id, item.image_id, False), idempotency_key=key
                )
            except IdempotencyConflictError as exc:
                outcomes[slot].append(type(exc).__name__)

    assert _run_threads([lambda: replayer(0), lambda: replayer(1)]) == []
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1::2] == ["IdempotencyConflictError"] * len(items)
    # Each judgement was applied once: the page is complete, every one positive.
    info = owner.session_info(session_id)
    assert (info.rounds, info.positives_found) == (1, len(items))
    assert len(owner.next_results(session_id).items) == len(items)


def test_slow_stream_reader_gets_the_single_shot_items_then_reuses_the_connection(
    server,
):
    client = HTTPClient(server.url, client_id="drip")
    streamed, single = _start(client), _start(client)
    host, port = server.server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        conn.request(
            "GET", f"/v1/sessions/{streamed}/next",
            headers={"Accept": "application/x-ndjson"},
        )
        response = conn.getresponse()
        records = []
        while line := response.readline():
            records.append(json.loads(line))
            time.sleep(0.02)  # the reader sips one record at a time
        assert [record["kind"] for record in records] == ["meta"] + ["item"] * 3 + ["end"]
        assert not response.will_close
        socket_before = conn.sock
        conn.request("GET", f"/v1/sessions/{single}/next")
        reply = conn.getresponse()
        assert reply.status == 200
        assert conn.sock is socket_before
        assert [record["item"] for record in records[1:-1]] == json.loads(reply.read())["items"]
    finally:
        conn.close()


@pytest.mark.parametrize("transport", ["inprocess", "http"])
def test_churning_sessions_beside_next_stream_and_info_raise_nothing(
    app, server, transport
):
    """Four users, each three session lifetimes of next, stream, info and
    close-then-restart, interleaved on one shared client."""
    client = InProcessClient(app) if transport == "inprocess" else HTTPClient(server.url)
    barrier = threading.Barrier(4, timeout=10.0)

    def user(query: str) -> None:
        barrier.wait()
        for _ in range(3):
            session_id = _start(client, query=query)
            _label(client, session_id, client.next_results(session_id).items)
            items = list(client.stream_next_results(session_id))
            assert len(items) == 3
            _label(client, session_id, items)
            info = client.session_info(session_id)
            assert (info.rounds, info.total_shown) == (2, 6)
            client.close_session(session_id)
            with pytest.raises(UnknownResourceError):
                client.session_info(session_id)

    queries = ["a cat_easy", "a cat_hard", "a cat_easy", "a cat_hard"]
    assert _run_threads([lambda q=q: user(q) for q in queries]) == []


UPSERTED_ID_BASE = 1_000_000
MERGE_CALL_BOUND_S = 2.0
"""Each query call beside a merge must answer within this.  Generous for a
tiny corpus, whose calls take milliseconds; a read that waits for the merge
instead of running beside it misses it, since the merge holds its swap until
those reads are done."""


def _tolerating_overload(call) -> None:
    try:
        call()
    except ServiceOverloadedError:
        pass  # the delta cap's typed backpressure: the one error allowed


def test_queries_race_upserts_and_two_forced_merges(
    tiny_dataset, tiny_clip, monkeypatch
):
    """A curator upserts six images and forces a merge after the third and
    the sixth.  Each merge holds its new generation back from the swap until
    the query thread has run one whole session beside it; a session opened
    before the merge then takes its next page from across the swap."""
    service, app = _stack(tiny_dataset, tiny_clip, live_datasets=True)
    sources = [
        image for image in tiny_dataset.images
        if any(obj.category == "cat_easy" for obj in image.objects)
    ][:6]
    upserted = [UPSERTED_ID_BASE + i for i in range(len(sources))]
    merge_after_upsert = (2, 5)
    go, merging, raced, merged = (
        [threading.Event() for _ in merge_after_upsert] for _ in range(4)
    )
    build_sealed = service.live.merger._build_sealed

    def build_beside_queries(*args):
        k = sum(event.is_set() for event in merging)
        merging[k].set()
        index = build_sealed(*args)
        raced[k].wait(timeout=30.0)  # the swap waits for the racing session
        return index

    monkeypatch.setattr(service.live.merger, "_build_sealed", build_beside_queries)
    beside_merge_s: "list[float]" = []
    try:
        with serve_in_background(app) as server:

            def curator() -> None:
                client = HTTPClient(server.url, client_id="curator")
                for i, (image_id, source) in enumerate(zip(upserted, sources)):
                    image = dataclasses.replace(source, image_id=image_id)
                    _tolerating_overload(lambda: client.upsert_images("tiny", [image]))
                    if i in merge_after_upsert:
                        k = merge_after_upsert.index(i)
                        go[k].wait(timeout=30.0)
                        try:
                            client.merge_dataset("tiny")
                        finally:
                            merged[k].set()

            def reader() -> None:
                client = HTTPClient(server.url, client_id="reader")

                def timed(call):
                    start = time.perf_counter()
                    result = call()
                    beside_merge_s.append(time.perf_counter() - start)
                    return result

                def session(call=lambda f: f()) -> None:
                    session_id = call(lambda: _start(client))
                    for _ in range(2):
                        for item in call(lambda: client.next_results(session_id).items):
                            call(lambda: client.give_feedback(
                                FeedbackRequest(session_id, item.image_id, False)
                            ))
                    call(lambda: client.close_session(session_id))

                def merges_completed() -> int:
                    return client.describe_dataset("tiny")["merges_completed"]

                try:
                    for k in range(len(merge_after_upsert)):
                        _tolerating_overload(session)  # beside the upserts
                        spanning = _start(client)
                        _label(client, spanning, client.next_results(spanning).items)
                        before = merges_completed()
                        go[k].set()
                        assert merging[k].wait(timeout=30.0)
                        session(timed)  # beside the merge: no error at all
                        raced[k].set()
                        assert merged[k].wait(timeout=30.0)
                        assert merges_completed() == before + 1
                        assert len(client.next_results(spanning).items) == 3
                        client.close_session(spanning)
                finally:  # a failed reader must not hold the curator up
                    for event in go + raced:
                        event.set()

            assert _run_threads([curator, reader]) == []
            assert len(beside_merge_s) == 2 * 10  # 2 merges x 10 calls
            assert max(beside_merge_s) <= MERGE_CALL_BOUND_S, beside_merge_s
            client = HTTPClient(server.url, client_id="verify")
            manifest = client.describe_dataset("tiny")
            assert (manifest["merges_completed"], manifest["delta_rows"]) == (2, 0)
            assert manifest["image_count"] == len(tiny_dataset.images) + len(upserted)
            # The sealed generation, not a delta view, is what is served.
            assert not isinstance(service.index_for("tiny").store, DeltaVectorStore)
            # Every upserted image is served: page through the whole corpus.
            session_id = _start(client, batch_size=10)
            shown: "set[int]" = set()
            while items := client.next_results(session_id).items:
                shown.update(item.image_id for item in items)
                _label(client, session_id, items)
            assert set(upserted) <= shown
    finally:
        service.live.close()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


CHAOS_PLAN = FaultPlan(
    seed=97,
    latency_ms=80.0,
    latency_probability=0.15,
    error_probability=0.08,
    reset_probability=0.08,
    truncate_probability=0.05,
    skew_probability=0.05,
    window_start_seconds=1.5,
    window_stop_seconds=4.0,
)
CHAOS_TAXONOMY = {
    "InternalServiceError",  # an injected 500
    "ConnectionFailedError",  # a reset, or a unary truncate
    "TransportError",  # a stream cut before its 'end' record
    "DeadlineExceededError",  # a skewed, already-expired deadline
}
"""Every error a call inside the window may raise.  Tighter than the faults
alone allow for a client that reuses a session after a failure (which adds
SessionError and UnknownResourceError) or retries (CircuitOpenError): this
script abandons a session at its first failure and has no retry policy."""


def test_chaos_window_is_typed_and_every_call_outside_it_succeeds(server):
    clock, slept = FakeClock(), []
    client = FaultyClient(
        HTTPClient(server.url, client_id="chaos"),
        CHAOS_PLAN,
        clock=clock,
        sleep=slept.append,
        registry=MetricsRegistry(),
    )

    def session() -> None:
        """Start; a labelled stream, a labelled page, info, close."""
        session_id = _start(client)
        page = list(client.stream_next_results(session_id))
        assert len(page) == 3  # a cut stream must raise, never come up short
        _label(client, session_id, page)
        page = client.next_results(session_id).items
        assert len(page) == 3
        _label(client, session_id, page)
        assert client.session_info(session_id).rounds == 2
        client.close_session(session_id)

    for _ in range(4):  # before the window: nothing may fail
        session()
    assert slept == []

    clock.now = 2.0
    failures: "list[str]" = []
    for _ in range(30):
        try:
            session()
        except ReproError as exc:
            failures.append(type(exc).__name__)
    assert failures and set(failures) <= CHAOS_TAXONOMY, failures
    assert slept and set(slept) == {CHAOS_PLAN.latency_ms / 1000.0}

    clock.now = 4.5
    slept.clear()
    for _ in range(4):  # after the window: every call succeeds again
        session()
    assert slept == []
