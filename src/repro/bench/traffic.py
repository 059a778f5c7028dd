"""Open-loop traffic harness for the `/v1` service.

Fires requests at a :class:`~repro.server.client.SeeSawClientProtocol`
(so the in-process and HTTP transports run the exact same workload) on a
Poisson arrival schedule that is fixed *before* the run starts and never
waits for responses.  That open-loop decoupling is the whole point: a
closed-loop driver (N threads in lockstep) slows its own offered load the
moment the server slows down, which hides queueing collapse entirely.  Here
a request that arrives while the service is wedged is charged every
millisecond from its *scheduled* arrival to its completion — the
coordinated-omission-free latency the tail gates assert against.

One run produces:

* per-request records (op, scheduled/actual/completed offsets, outcome);
* a :class:`TrafficSummary` — p50/p99/p999 latency, offered vs achieved
  throughput, and an error taxonomy split into expected and unexpected;
* a JSONL artifact under ``benchmarks/results/`` (``meta`` line, one
  ``request`` line per record, terminal ``summary`` line) plus `/v1/metrics`
  counter snapshots taken before and after the run;
* gate checking (:func:`assert_tail_gates`) that fails CI on the tails,
  never the means.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.bench.scenarios import TailGates, TrafficScenario
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.exceptions import BenchmarkError, ReproError
from repro.server.api import FeedbackRequest, StartSessionRequest
from repro.server.client import SeeSawClientProtocol

__all__ = [
    "RequestRecord",
    "TrafficRun",
    "TrafficSummary",
    "poisson_schedule",
    "scenario_schedule",
    "run_scenario",
    "summarize",
    "gate_violations",
    "assert_tail_gates",
    "write_run_jsonl",
    "read_run_jsonl",
    "run_and_report",
]


# ----------------------------------------------------------------------
# arrival schedules
# ----------------------------------------------------------------------
def poisson_schedule(
    rate_rps: float, duration_seconds: float, rng: np.random.Generator
) -> "list[float]":
    """Poisson arrival offsets: exponential inter-arrival gaps at ``rate_rps``."""
    if rate_rps <= 0:
        raise BenchmarkError(f"rate_rps must be positive, got {rate_rps}")
    if duration_seconds <= 0:
        raise BenchmarkError(f"duration_seconds must be positive, got {duration_seconds}")
    arrivals: "list[float]" = []
    offset = 0.0
    while True:
        offset += float(rng.exponential(1.0 / rate_rps))
        if offset >= duration_seconds:
            return arrivals
        arrivals.append(offset)


def scenario_schedule(
    scenario: TrafficScenario, rng: "np.random.Generator | None" = None
) -> "list[float]":
    """The scenario's full arrival schedule, burst profile applied.

    A bursty scenario is generated by thinning: candidates arrive at the
    peak rate and are kept with probability ``rate(t) / peak`` — the
    standard construction for an inhomogeneous Poisson process, so the
    off-phase is still exactly Poisson at the base rate.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    if scenario.burst is None:
        return poisson_schedule(scenario.rate_rps, scenario.duration_seconds, rng)
    peak = scenario.rate_rps * scenario.burst.factor
    arrivals: "list[float]" = []
    offset = 0.0
    while True:
        offset += float(rng.exponential(1.0 / peak))
        if offset >= scenario.duration_seconds:
            return arrivals
        keep = float(rng.random()) * peak
        if keep <= scenario.burst.rate_at(offset, scenario.rate_rps):
            arrivals.append(offset)


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------
@dataclass
class RequestRecord:
    """One protocol call inside an open-loop run (offsets from run start)."""

    op: str
    interaction: str
    index: int
    scheduled_at: float
    started_at: float
    completed_at: float
    ok: bool
    primary: bool
    error: "str | None" = None
    items: int = 0

    @property
    def latency_seconds(self) -> float:
        """Completion minus *scheduled* arrival — the open-loop latency.

        Includes every source of waiting the request actually experienced:
        dispatcher lag, executor queueing when all workers are busy, slot
        contention, and the service time itself.
        """
        return self.completed_at - self.scheduled_at

    @property
    def service_seconds(self) -> float:
        """Completion minus actual call start (the closed-loop view)."""
        return self.completed_at - self.started_at

    def to_json(self) -> "dict[str, Any]":
        return {
            "kind": "request",
            "op": self.op,
            "interaction": self.interaction,
            "index": self.index,
            "scheduled_at": round(self.scheduled_at, 6),
            "started_at": round(self.started_at, 6),
            "completed_at": round(self.completed_at, 6),
            "ok": self.ok,
            "primary": self.primary,
            "error": self.error,
            "items": self.items,
            "latency_ms": round(self.latency_seconds * 1000.0, 3),
        }


@dataclass
class TrafficRun:
    """Everything one scenario run produced, before summarization."""

    scenario: TrafficScenario
    transport: str
    arrivals: int
    elapsed_seconds: float
    records: "list[RequestRecord]"
    metrics_before: "dict[str, float] | None" = None
    metrics_after: "dict[str, float] | None" = None


@dataclass(frozen=True)
class TrafficSummary:
    """The gateable digest of one run — what the JSONL summary line holds."""

    scenario: str
    transport: str
    duration_seconds: float
    elapsed_seconds: float
    arrivals: int
    offered_rps: float
    achieved_rps: float
    achieved_ratio: float
    requests: int
    ok_requests: int
    failed_requests: int
    p50_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    error_taxonomy: "Mapping[str, int]" = field(default_factory=dict)
    unexpected_errors: int = 0
    recovery_p99_ms: "float | None" = None
    """Chaos scenarios with a bounded fault window only: p99 over the ok
    primaries scheduled after the window closed — the healed-tail series
    the recovery gate asserts against.  ``None`` for fault-free runs."""

    def to_json(self) -> "dict[str, Any]":
        payload = {
            "kind": "summary",
            "scenario": self.scenario,
            "transport": self.transport,
            "duration_seconds": round(self.duration_seconds, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "arrivals": self.arrivals,
            "offered_rps": round(self.offered_rps, 3),
            "achieved_rps": round(self.achieved_rps, 3),
            "achieved_ratio": round(self.achieved_ratio, 4),
            "requests": self.requests,
            "ok_requests": self.ok_requests,
            "failed_requests": self.failed_requests,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "p999_ms": round(self.p999_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "error_taxonomy": dict(self.error_taxonomy),
            "unexpected_errors": self.unexpected_errors,
        }
        if self.recovery_p99_ms is not None:
            payload["recovery_p99_ms"] = round(self.recovery_p99_ms, 3)
        return payload


def _nearest_rank(sorted_values: "Sequence[float]", quantile: float) -> float:
    """Nearest-rank percentile over an ascending sample (no interpolation)."""
    if not sorted_values:
        return float("nan")
    index = max(0, math.ceil(quantile * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def summarize(run: TrafficRun) -> TrafficSummary:
    """Digest a run: tail percentiles over the *primary* open-loop records.

    Each interaction's first call carries the arrival's queueing delay, so
    primaries are the honest open-loop latency series; follow-up calls
    (feedback for every shown item, session restarts) count toward the
    request totals and the error taxonomy but not the percentiles.
    """
    primaries = [record for record in run.records if record.primary]
    ok_latencies = sorted(
        record.latency_seconds for record in primaries if record.ok
    )
    taxonomy = Counter(
        record.error for record in run.records if record.error is not None
    )
    expected = set(run.scenario.expected_errors)
    unexpected = sum(
        count for name, count in taxonomy.items() if name not in expected
    )
    offered = run.arrivals / run.scenario.duration_seconds
    ok_primaries = sum(1 for record in primaries if record.ok)
    achieved = ok_primaries / run.elapsed_seconds if run.elapsed_seconds > 0 else 0.0
    recovery_p99: "float | None" = None
    faults = run.scenario.faults
    if faults is not None and faults.window_stop_seconds is not None:
        recovery = sorted(
            record.latency_seconds
            for record in primaries
            if record.ok and record.scheduled_at >= faults.window_stop_seconds
        )
        recovery_p99 = _nearest_rank(recovery, 0.99) * 1000.0
    return TrafficSummary(
        scenario=run.scenario.name,
        transport=run.transport,
        duration_seconds=run.scenario.duration_seconds,
        elapsed_seconds=run.elapsed_seconds,
        arrivals=run.arrivals,
        offered_rps=offered,
        achieved_rps=achieved,
        achieved_ratio=achieved / offered if offered > 0 else 0.0,
        requests=len(run.records),
        ok_requests=sum(1 for record in run.records if record.ok),
        failed_requests=sum(1 for record in run.records if not record.ok),
        p50_ms=_nearest_rank(ok_latencies, 0.50) * 1000.0,
        p99_ms=_nearest_rank(ok_latencies, 0.99) * 1000.0,
        p999_ms=_nearest_rank(ok_latencies, 0.999) * 1000.0,
        max_ms=(ok_latencies[-1] * 1000.0) if ok_latencies else float("nan"),
        error_taxonomy=dict(sorted(taxonomy.items())),
        unexpected_errors=unexpected,
        recovery_p99_ms=recovery_p99,
    )


# ----------------------------------------------------------------------
# tail gates
# ----------------------------------------------------------------------
def gate_violations(
    summary: TrafficSummary, gates: "TailGates | None" = None
) -> "list[str]":
    """Every gate the summary fails, as human-readable one-liners."""
    if gates is None:
        raise BenchmarkError("gate_violations needs the scenario's TailGates")
    violations: "list[str]" = []
    if math.isnan(summary.p99_ms):
        violations.append("no successful primary requests: percentiles undefined")
        return violations
    if summary.p99_ms > gates.p99_ms:
        violations.append(
            f"p99 {summary.p99_ms:.1f}ms exceeds the {gates.p99_ms:.1f}ms gate"
        )
    if gates.p999_ms is not None and summary.p999_ms > gates.p999_ms:
        violations.append(
            f"p999 {summary.p999_ms:.1f}ms exceeds the {gates.p999_ms:.1f}ms gate"
        )
    if summary.achieved_ratio < gates.min_achieved_ratio:
        violations.append(
            f"achieved/offered throughput {summary.achieved_ratio:.2f} below "
            f"the {gates.min_achieved_ratio:.2f} floor "
            f"({summary.achieved_rps:.1f}/{summary.offered_rps:.1f} rps)"
        )
    if summary.unexpected_errors > gates.max_unexpected_errors:
        violations.append(
            f"{summary.unexpected_errors} unexpected errors "
            f"(taxonomy: {dict(summary.error_taxonomy)})"
        )
    if gates.recovery_p99_ms is not None:
        if summary.recovery_p99_ms is None or math.isnan(summary.recovery_p99_ms):
            violations.append(
                "no successful primary requests after the fault window: "
                "recovery percentile undefined"
            )
        elif summary.recovery_p99_ms > gates.recovery_p99_ms:
            violations.append(
                f"post-fault-window p99 {summary.recovery_p99_ms:.1f}ms exceeds "
                f"the {gates.recovery_p99_ms:.1f}ms recovery gate"
            )
    return violations


def assert_tail_gates(
    summary: TrafficSummary, gates: "TailGates | None" = None
) -> None:
    """Raise :class:`BenchmarkError` listing every failed gate (CI's assert)."""
    violations = gate_violations(summary, gates)
    if violations:
        raise BenchmarkError(
            f"Scenario '{summary.scenario}' ({summary.transport}) failed its "
            f"tail gates: " + "; ".join(violations)
        )


# ----------------------------------------------------------------------
# JSONL artifacts
# ----------------------------------------------------------------------
def write_run_jsonl(
    path: "str | Path",
    run: TrafficRun,
    summary: "TrafficSummary | None" = None,
) -> Path:
    """Write one run's JSONL artifact: meta, every request, then the summary."""
    if summary is None:
        summary = summarize(run)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": "meta",
        "scenario": run.scenario.to_json(),
        "transport": run.transport,
        "arrivals": run.arrivals,
        "metrics_before": run.metrics_before,
        "metrics_after": run.metrics_after,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta) + "\n")
        for record in run.records:
            handle.write(json.dumps(record.to_json()) + "\n")
        handle.write(json.dumps(summary.to_json()) + "\n")
    return path


def read_run_jsonl(path: "str | Path") -> "dict[str, Any]":
    """Load an artifact back as ``{"meta": ..., "requests": [...], "summary": ...}``."""
    meta: "dict[str, Any] | None" = None
    summary: "dict[str, Any] | None" = None
    requests: "list[dict[str, Any]]" = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "meta":
                meta = record
            elif kind == "request":
                requests.append(record)
            elif kind == "summary":
                summary = record
            else:
                raise BenchmarkError(f"Unknown JSONL record kind '{kind}' in {path}")
    if meta is None or summary is None:
        raise BenchmarkError(f"Traffic artifact {path} is missing meta/summary lines")
    return {"meta": meta, "requests": requests, "summary": summary}


# ----------------------------------------------------------------------
# the open-loop runner
# ----------------------------------------------------------------------
class _SessionSlot:
    """One live session the workload multiplexes onto, with its own lock."""

    __slots__ = ("lock", "session_id")

    def __init__(self, session_id: str) -> None:
        self.lock = threading.Lock()
        self.session_id = session_id


class _Recorder:
    """Thread-safe record sink with the run's clock baked in."""

    def __init__(self, t0: float) -> None:
        self._t0 = t0
        self._lock = threading.Lock()
        self.records: "list[RequestRecord]" = []

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def add(self, record: RequestRecord) -> None:
        with self._lock:
            self.records.append(record)


def _metrics_totals(client: SeeSawClientProtocol) -> "dict[str, float] | None":
    """Per-family counter totals from `/v1/metrics` (None if unavailable)."""
    try:
        payload = client.metrics_json()
    except Exception:
        return None
    totals: "dict[str, float]" = {}
    for metric in payload.get("metrics", ()):
        if metric.get("type") != "counter":
            continue
        totals[metric["name"]] = float(
            sum(entry.get("value", 0.0) for entry in metric.get("series", ()))
        )
    return totals


def _ingest_image(image_id: int, category: str, rnd: random.Random) -> SyntheticImage:
    """A one-object synthetic image for the live-ingest mutate op."""
    return SyntheticImage(
        image_id=image_id,
        width=640,
        height=480,
        context="indoor",
        objects=(
            ObjectInstance(
                category=category,
                box=BoundingBox(
                    float(rnd.randrange(0, 300)),
                    float(rnd.randrange(0, 200)),
                    200.0,
                    180.0,
                ),
            ),
        ),
    )


class _OpenLoopWorker:
    """Executes one arrival's interaction against a session slot."""

    def __init__(
        self,
        client: SeeSawClientProtocol,
        scenario: TrafficScenario,
        dataset: str,
        queries: "Sequence[str]",
        slots: "list[_SessionSlot]",
        recorder: _Recorder,
        mutation_categories: "Sequence[str]" = (),
    ) -> None:
        self.client = client
        self.scenario = scenario
        self.dataset = dataset
        self.queries = list(queries)
        self.slots = slots
        self.recorder = recorder
        self.mutation_categories = tuple(mutation_categories)

    # -- plumbing ------------------------------------------------------
    def _acquire_slot(self, rnd: random.Random) -> _SessionSlot:
        """A free slot if any (shuffled try-locks), else block on one.

        Blocking is deliberate: in an open loop the arrival happened whether
        or not a session is free, and the time spent waiting for one is real
        latency the percentiles must see.
        """
        order = list(self.slots)
        rnd.shuffle(order)
        for slot in order:
            if slot.lock.acquire(blocking=False):
                return slot
        slot = order[0]
        slot.lock.acquire()
        return slot

    def _call(
        self,
        op: str,
        interaction: str,
        index: int,
        scheduled_at: float,
        primary: bool,
        fn: "Callable[[], Any]",
    ) -> "tuple[Any, RequestRecord]":
        """Run one protocol call, timing it into a :class:`RequestRecord`.

        Only the interaction's primary call is charged from the scheduled
        arrival; follow-ups are charged from their actual start.
        """
        started = self.recorder.now()
        origin = scheduled_at if primary else started
        result: Any = None
        ok = True
        error: "str | None" = None
        try:
            result = fn()
        except ReproError as exc:
            ok = False
            error = type(exc).__name__
        except Exception as exc:  # harness never dies mid-run; taxonomy tells
            ok = False
            error = f"Harness:{type(exc).__name__}"
        record = RequestRecord(
            op=op,
            interaction=interaction,
            index=index,
            scheduled_at=origin,
            started_at=started,
            completed_at=self.recorder.now(),
            ok=ok,
            primary=primary,
            error=error,
        )
        self.recorder.add(record)
        return result, record

    def _start_request(self, rnd: random.Random) -> StartSessionRequest:
        return StartSessionRequest(
            dataset=self.dataset,
            text_query=rnd.choice(self.queries),
            batch_size=self.scenario.batch_size,
        )

    def _restart_session(
        self, slot: _SessionSlot, interaction: str, index: int, rnd: random.Random
    ) -> None:
        """Close the slot's session and start a fresh one in its place."""
        stale = slot.session_id
        self._call(
            "close", interaction, index, 0.0, False,
            lambda: self.client.close_session(stale),
        )
        info, record = self._call(
            "start", interaction, index, 0.0, False,
            lambda: self.client.start_session(self._start_request(rnd)),
        )
        if record.ok and info is not None:
            slot.session_id = info.session_id

    def _feedback(
        self,
        slot: _SessionSlot,
        image_ids: "Sequence[int]",
        interaction: str,
        index: int,
        rnd: random.Random,
    ) -> None:
        for image_id in image_ids:
            request = FeedbackRequest(
                session_id=slot.session_id,
                image_id=image_id,
                relevant=rnd.random() < 0.3,
            )
            _, record = self._call(
                "feedback", interaction, index, 0.0, False,
                lambda request=request: self.client.give_feedback(request),
            )
            if not record.ok:
                # A failed label (e.g. a 429 mid-storm) leaves the round
                # partially judged and the session unservable for /next;
                # recycle it so the slot returns to a clean state, the way
                # a real client would abandon a broken tab.
                self._restart_session(slot, interaction, index, rnd)
                return

    # -- interactions --------------------------------------------------
    def run(self, op: str, index: int, scheduled_at: float) -> None:
        rnd = random.Random(self.scenario.seed * 100_003 + index)
        slot = self._acquire_slot(rnd)
        try:
            handler = {
                "next": self._op_next,
                "stream": self._op_stream,
                "replay": self._op_replay,
                "churn": self._op_churn,
                "info": self._op_info,
                "mutate": self._op_mutate,
            }[op]
            handler(slot, index, scheduled_at, rnd)
        finally:
            slot.lock.release()

    def _op_next(
        self, slot: _SessionSlot, index: int, scheduled_at: float, rnd: random.Random
    ) -> None:
        response, record = self._call(
            "next", "next", index, scheduled_at, True,
            lambda: self.client.next_results(slot.session_id),
        )
        if not record.ok or response is None:
            if record.error == "UnknownResourceError":
                self._restart_session(slot, "next", index, rnd)
            return
        record.items = len(response.items)
        if not response.items:
            # Dataset exhausted for this session: recycle it so later
            # arrivals on this slot keep producing real rounds.
            self._restart_session(slot, "next", index, rnd)
            return
        self._feedback(
            slot, [item.image_id for item in response.items], "next", index, rnd
        )

    def _op_stream(
        self, slot: _SessionSlot, index: int, scheduled_at: float, rnd: random.Random
    ) -> None:
        items: "list[Any]" = []

        def consume() -> int:
            for item in self.client.stream_next_results(slot.session_id):
                items.append(item)
                if self.scenario.drip_seconds > 0:
                    time.sleep(self.scenario.drip_seconds)
            return len(items)

        _, record = self._call("stream", "stream", index, scheduled_at, True, consume)
        if not record.ok:
            if record.error == "UnknownResourceError":
                self._restart_session(slot, "stream", index, rnd)
            return
        record.items = len(items)
        if not items:
            self._restart_session(slot, "stream", index, rnd)
            return
        self._feedback(slot, [item.image_id for item in items], "stream", index, rnd)

    def _op_replay(
        self, slot: _SessionSlot, index: int, scheduled_at: float, rnd: random.Random
    ) -> None:
        """Adversarial idempotency: duplicate key, then a conflicting payload."""
        response, record = self._call(
            "next", "replay", index, scheduled_at, True,
            lambda: self.client.next_results(slot.session_id),
        )
        if not record.ok or response is None:
            if record.error == "UnknownResourceError":
                self._restart_session(slot, "replay", index, rnd)
            return
        record.items = len(response.items)
        if not response.items:
            self._restart_session(slot, "replay", index, rnd)
            return
        target = response.items[0]
        key = f"traffic-replay-{self.scenario.seed}-{index}"
        request = FeedbackRequest(
            session_id=slot.session_id, image_id=target.image_id, relevant=True
        )
        first, first_record = self._call(
            "feedback", "replay", index, 0.0, False,
            lambda: self.client.give_feedback(request, idempotency_key=key),
        )
        if first_record.ok:
            # Same key + same payload must replay the original result
            # without applying the feedback twice.
            def replay() -> Any:
                info = self.client.give_feedback(request, idempotency_key=key)
                if info != first:
                    raise BenchmarkError("idempotent replay returned a different result")
                return info

            self._call("replay", "replay", index, 0.0, False, replay)
            # Same key + different payload must be refused, not silently
            # answered from the cache.
            conflicting = FeedbackRequest(
                session_id=slot.session_id, image_id=target.image_id, relevant=False
            )

            def conflict() -> None:
                # The IdempotencyConflictError this provokes propagates into
                # the record (it is the scenario's *expected* taxonomy); a
                # server that silently answers the conflicting payload from
                # its cache is the actual failure.
                self.client.give_feedback(conflicting, idempotency_key=key)
                raise BenchmarkError("conflicting idempotency replay was not refused")

            self._call("replay", "replay", index, 0.0, False, conflict)
        self._feedback(
            slot,
            [item.image_id for item in response.items[1:]],
            "replay",
            index,
            rnd,
        )

    def _op_churn(
        self, slot: _SessionSlot, index: int, scheduled_at: float, rnd: random.Random
    ) -> None:
        stale = slot.session_id
        _, record = self._call(
            "close", "churn", index, scheduled_at, True,
            lambda: self.client.close_session(stale),
        )
        info, start_record = self._call(
            "start", "churn", index, 0.0, False,
            lambda: self.client.start_session(self._start_request(rnd)),
        )
        if start_record.ok and info is not None:
            slot.session_id = info.session_id

    def _op_info(
        self, slot: _SessionSlot, index: int, scheduled_at: float, rnd: random.Random
    ) -> None:
        _, record = self._call(
            "info", "info", index, scheduled_at, True,
            lambda: self.client.session_info(slot.session_id),
        )
        if not record.ok and record.error == "UnknownResourceError":
            self._restart_session(slot, "info", index, rnd)

    def _op_mutate(
        self, slot: _SessionSlot, index: int, scheduled_at: float, rnd: random.Random
    ) -> None:
        """Upsert one fresh image into the live dataset mid-traffic.

        Ids start at 1_000_000 (far above any synthetic corpus) and carry
        the arrival index, so every mutate arrival grows the dataset by a
        distinct image instead of replacing a prior one.
        """
        image = _ingest_image(
            1_000_000 + index, rnd.choice(self.mutation_categories), rnd
        )
        self._call(
            "mutate", "mutate", index, scheduled_at, True,
            lambda: self.client.upsert_images(self.dataset, [image]),
        )


def run_scenario(
    client: SeeSawClientProtocol,
    scenario: TrafficScenario,
    dataset: str,
    queries: "Sequence[str]",
    transport: str = "inprocess",
    mutation_categories: "Sequence[str]" = (),
) -> TrafficRun:
    """Drive one scenario open-loop against ``client`` and collect records.

    ``queries`` is the text-query pool new sessions draw from; ``transport``
    is a label for the artifact (``inprocess`` / ``http``), not behaviour —
    the same code path runs whatever the client speaks.

    A scenario with a fault plan runs its workload through a
    :class:`~repro.faults.client.FaultyClient` wrapped around ``client``,
    armed at the run's t0 so the plan's window offsets line up with the
    arrival offsets.  Setup (seeding the session slots), teardown, and the
    metrics snapshots use the raw client — the chaos applies to the
    measured workload, not to the harness's own bookkeeping.

    A scenario mixing ``mutate`` ops needs ``mutation_categories`` — the
    category pool upserted images draw from (the dataset's own catalog;
    the registry rejects categories it has never embedded).  Forced merges
    (``scenario.forced_merges``) run on a background thread at evenly
    spaced offsets through the raw client: they are control-plane actions,
    not offered load, so they record as non-primary (their build latency
    stays out of the query percentiles) while any error they raise still
    lands in the taxonomy and trips the unexpected-errors gate.
    """
    if not queries:
        raise BenchmarkError("run_scenario needs a non-empty query pool")
    mutates = any(name == "mutate" for name, _ in scenario.mix.weights())
    if mutates and not mutation_categories:
        raise BenchmarkError(
            "scenario mixes 'mutate' ops but no mutation_categories were given"
        )
    rng = np.random.default_rng(scenario.seed)
    arrivals = scenario_schedule(scenario, rng)
    names_weights = scenario.mix.weights()
    names = [name for name, _ in names_weights]
    weights = np.array([weight for _, weight in names_weights], dtype=np.float64)
    probabilities = weights / weights.sum()
    ops = [
        names[i]
        for i in rng.choice(len(names), size=len(arrivals), p=probabilities)
    ]

    session_rnd = random.Random(scenario.seed)
    slots = [
        _SessionSlot(
            client.start_session(
                StartSessionRequest(
                    dataset=dataset,
                    text_query=session_rnd.choice(list(queries)),
                    batch_size=scenario.batch_size,
                )
            ).session_id
        )
        for _ in range(scenario.session_count)
    ]
    metrics_before = _metrics_totals(client)
    workload_client = client
    faulty: "Any | None" = None
    if scenario.faults is not None and scenario.faults.any_faults:
        from repro.faults.client import FaultyClient

        faulty = FaultyClient(client, scenario.faults)
        workload_client = faulty
    t0 = time.perf_counter()
    if faulty is not None:
        faulty.arm()
    recorder = _Recorder(t0)
    worker = _OpenLoopWorker(
        workload_client,
        scenario,
        dataset,
        queries,
        slots,
        recorder,
        mutation_categories=mutation_categories,
    )
    merge_thread: "threading.Thread | None" = None
    if scenario.forced_merges > 0:
        # Merges go through the raw client (control plane, never faulted)
        # and record as non-primary so the sealed-build latency stays out
        # of the query percentiles — but their errors still hit the
        # taxonomy, which is the zero-downtime assertion.
        def run_forced_merges() -> None:
            for i in range(scenario.forced_merges):
                offset = scenario.duration_seconds * (i + 1) / (
                    scenario.forced_merges + 1
                )
                delay = (t0 + offset) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                worker._call(
                    "merge", "merge", -(i + 1), 0.0, False,
                    lambda: client.merge_dataset(dataset),
                )

        merge_thread = threading.Thread(
            target=run_forced_merges, name="traffic-merge", daemon=True
        )
        merge_thread.start()
    try:
        with ThreadPoolExecutor(
            max_workers=scenario.max_inflight, thread_name_prefix="traffic"
        ) as pool:
            futures = []
            for index, (arrival, op) in enumerate(zip(arrivals, ops)):
                delay = (t0 + arrival) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(worker.run, op, index, arrival))
            for future in futures:
                future.result()
        elapsed = time.perf_counter() - t0
    finally:
        if merge_thread is not None:
            merge_thread.join(timeout=60.0)
        for slot in slots:
            try:
                client.close_session(slot.session_id)
            except Exception:
                pass
    metrics_after = _metrics_totals(client)
    return TrafficRun(
        scenario=scenario,
        transport=transport,
        arrivals=len(arrivals),
        elapsed_seconds=elapsed,
        records=recorder.records,
        metrics_before=metrics_before,
        metrics_after=metrics_after,
    )


def run_and_report(
    client: SeeSawClientProtocol,
    scenario: TrafficScenario,
    dataset: str,
    queries: "Sequence[str]",
    results_dir: "str | Path",
    transport: str = "inprocess",
    mutation_categories: "Sequence[str]" = (),
) -> TrafficSummary:
    """Run a scenario, write its JSONL artifact, and return the summary.

    The artifact lands at ``<results_dir>/traffic_<scenario>_<transport>.jsonl``
    — the fixed scoreboard path the CI gates and the async-serving /
    scatter-gather roadmap items report against.
    """
    run = run_scenario(
        client,
        scenario,
        dataset,
        queries,
        transport=transport,
        mutation_categories=mutation_categories,
    )
    summary = summarize(run)
    path = Path(results_dir) / f"traffic_{scenario.name}_{transport}.jsonl"
    write_run_jsonl(path, run, summary)
    return summary
