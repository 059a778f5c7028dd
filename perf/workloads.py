"""The four workloads: what each lap sends, and what it checks.

A workload is built from ``(seed, lap_seconds, quick)``.  The corpus is a
fixed fixture (``CORPUS_SEED``); the seed decides the traffic — the order of
the queries, the arrival schedule and which user asks what.  The lap script
is an exact function of those three arguments, so every lap of a run (and
every run with the same arguments) sends the same calls and must get the
same pages back; only time varies.  ``lap_seconds`` sizes the script at a
nominal rate, it is not a deadline.

Why these four, and what each is expected to move, is in ``README.md``.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.config import MultiscaleConfig, SeeSawConfig
from repro.data import BoundingBox, ImageDataset, ObjectInstance, SyntheticImage, load_dataset
from repro.embedding import SyntheticClip
from repro.store.cache import IndexCache

from perf.harness import OUT_DIR, CallLog, Corpus, Lap, ServerChild, UserSession, check

CORPUS_SEED = 0
"""Seed of every served corpus: fixed, so a metric's spread across ``--seed``
values is run-to-run noise and not a different dataset."""

UPSERT_ID_BASE = 1_000_000
"""Ids of upserted images start here, far above any generated image id."""

GENERATOR_THREADS = 2


def seeded(seed: int, *labels: object) -> random.Random:
    """A stream that depends only on its arguments (string seeding hashes with
    SHA-512, independent of ``PYTHONHASHSEED``)."""
    return random.Random("/".join(str(part) for part in (seed, *labels)))


def cycled(names: "Sequence[str]", count: int) -> "list[str]":
    """``count`` names taken from ``names`` in turn: the same multiset whatever
    is done to its order afterwards."""
    return (list(names) * -(-count // len(names)))[:count]


class Workload:
    """Base: the corpus, the child's spec, and the per-lap hooks."""

    name = ""
    dataset_name = ""
    size_scale = 1.0
    quick_size_scale = 1.0
    page = 3
    rounds_per_session = 0
    """Rounds of one closed-loop session (unused by the open loop)."""
    nominal_rounds_per_s = 56.0
    """About what one closed-loop user gets through on the reference VM:
    ``lap_seconds`` times this is the number of rounds a lap script holds."""
    quick_sessions = 4
    """Closed-loop sessions of a ``--quick`` lap."""
    config: "dict[str, Any]" = {}
    """``SeeSawConfig`` overrides of the server child (default config otherwise)."""

    def __init__(self, seed: int, lap_seconds: float, quick: bool) -> None:
        self.quick = quick
        self.lap_seconds = lap_seconds
        self.scale = self.quick_size_scale if quick else self.size_scale
        self.corpus = Corpus(
            self.dataset_name,
            load_dataset(self.dataset_name, seed=CORPUS_SEED, size_scale=self.scale),
        )
        self.fixture_s = 0.0

    def closed_sessions(self) -> int:
        """How many closed-loop sessions one lap runs."""
        if self.quick:
            return self.quick_sessions
        return max(1, round(self.lap_seconds * self.nominal_rounds_per_s / self.rounds_per_session))

    def closed_session(self, log: CallLog, category: str, lap: "Lap | None") -> None:
        """One whole closed-loop session; ``lap=None`` discards it (warm-up)."""
        session = UserSession(log, self.corpus, category, self.page)
        first_page = session.start()
        turnarounds = [session.round() for _ in range(self.rounds_per_session)]
        session.close()
        if lap is not None:
            lap.first_page_ms.append(first_page)
            lap.turnaround_ms.extend(turnarounds)
            lap.rounds += len(turnarounds)
            lap.finish(session)

    def child_config(self) -> "dict[str, Any]":
        return dict(self.config)

    def child_spec(self, trace: bool, spans_path: str) -> "dict[str, Any]":
        return {
            "dataset": self.dataset_name,
            "dataset_seed": CORPUS_SEED,
            "size_scale": self.scale,
            "config": self.child_config(),
            "trace": trace,
            "spans_path": spans_path,
        }

    def prepare(self) -> None:
        """Fixture work done once per run, outside every timed span."""

    def check_health(self, health: "dict[str, Any]") -> None:
        check(self.dataset_name in health["datasets"], f"dataset missing: {health}")

    def warm_up(self, child: ServerChild) -> None:
        raise NotImplementedError

    def measure(self, child: ServerChild, lap: Lap) -> None:
        raise NotImplementedError

    def verify(self, child: ServerChild, lap: Lap) -> None:
        """Checks that need the live server, after the measured segment."""


# ---------------------------------------------------------------------------
# closed loop, one user, immutable corpus
# ---------------------------------------------------------------------------
class ClosedSessions(Workload):
    """One user running whole sessions back to back.

    The lap's sessions query the catalog's categories in turn, then the seed
    shuffles them: whatever the seed a lap does the same multiset of
    sessions, so their order changes, the work and the AP canary do not.
    """

    def __init__(self, seed: int, lap_seconds: float, quick: bool) -> None:
        super().__init__(seed, lap_seconds, quick)
        names = self.corpus.dataset.category_names
        self.script = cycled(names, self.closed_sessions())
        seeded(seed, self.name).shuffle(self.script)

    def warm_up(self, child: ServerChild) -> None:
        log = CallLog(child.url, "perf-warmup")
        for category in self.script[:2]:
            self.closed_session(log, category, None)

    def measure(self, child: ServerChild, lap: Lap) -> None:
        log = CallLog(child.url, "perf-user")
        for category in self.script:
            self.closed_session(log, category, lap)
        lap.calls, lap.attempted = log.calls, log.attempted


class Page10Small(ClosedSessions):
    name = "page10_small"
    dataset_name = "bdd"
    size_scale = quick_size_scale = 0.15
    page = 10
    rounds_per_session = 6


class WarmLarge(ClosedSessions):
    name = "warm_large"
    dataset_name = "bdd"
    size_scale = 0.5
    """500 images, 11 000 vectors (11 MB f64).  Not more: a scan that streams
    far more than a core's own cache moves with the host's memory traffic —
    at 66 000 vectors ``next`` read 5.4 to 10 ms within an hour on one commit."""
    quick_size_scale = 0.3
    page = 3
    rounds_per_session = 20
    nominal_rounds_per_s = 70.0
    quick_sessions = 2

    def __init__(self, seed: int, lap_seconds: float, quick: bool) -> None:
        super().__init__(seed, lap_seconds, quick)
        self.cache_dir = OUT_DIR / f"fixture-{self.name}-{self.scale}"

    def child_config(self) -> "dict[str, Any]":
        return {"index_cache_dir": str(self.cache_dir)}

    def prepare(self) -> None:
        """Seed the index cache the children warm-start from.

        Built without the kNN graph — the exact build is quadratic in the
        11 000 vectors and is not what this workload measures — under exactly
        the key the service will look up.  The entry is kept in ``perf/out``
        between runs of one checkout; ``fixture_s`` reports the build when it
        happens.
        """
        dataset = self.corpus.dataset
        embedding = SyntheticClip.for_dataset(dataset, dim=128, seed=CORPUS_SEED)
        config = SeeSawConfig().with_overrides(multiscale=MultiscaleConfig(enabled=True))
        cache = IndexCache(self.cache_dir)
        if not cache.contains(cache.key(dataset, embedding, config)):
            started = time.perf_counter()
            cache.load_or_build(dataset, embedding, config, build_graph=False)
            self.fixture_s = time.perf_counter() - started

    def check_health(self, health: "dict[str, Any]") -> None:
        super().check_health(health)
        check(
            health["index_cache_hits"] == 1 and health["index_cache_misses"] == 0,
            f"warm start rebuilt the index: {health}",
        )


# ---------------------------------------------------------------------------
# open loop, independent users on a schedule
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Arrival:
    offset: float
    """Seconds after the phase start at which the op is due."""
    slot: int
    op: str


class OpenMixed(Workload):
    """Eight users, each living the same life at seed-chosen times.

    A user's life is ``LIFETIME``: 6 rounds, 2 stream rounds, 1 info read,
    then churn — the 60/20/10/10 mix, exactly.  A lap is whole lifetimes per
    slot, so whatever the seed it does the same ops on the same multiset of
    queries; the seed decides *when* each op is due (a Poisson process
    conditioned on its count: sorted uniform times), which slot each arrival
    belongs to, and which slot gets which query.
    """

    name = "open_mixed"
    dataset_name = "lvis"
    size_scale = 1.0
    quick_size_scale = 0.25
    page = 3
    rate = 30.0
    slots = 8
    LIFETIME = (
        "round", "stream", "round", "info", "round", "round", "stream", "round", "round", "churn",
    )

    def __init__(self, seed: int, lap_seconds: float, quick: bool) -> None:
        super().__init__(seed, lap_seconds, quick)
        per_lifetime = self.slots * len(self.LIFETIME)
        # 80 ops at 30/s are 2.7 s of schedule.
        self.lifetimes = 1 if quick else max(1, round(lap_seconds * self.rate / per_lifetime))
        stream = seeded(seed, self.name)
        names = self.corpus.dataset.category_names
        closed = self.slots * self.lifetimes
        check(len(names) >= closed + 2 * self.slots, "corpus has too few categories")
        # The sessions the measured phase closes — the AP canary — query the
        # first categories of the catalog, dealt to the slots by the seed; the
        # sessions opened before them and left open after them take the next.
        dealt = list(names[:closed])
        stream.shuffle(dealt)
        self.queries = [
            [names[closed + slot]]
            + dealt[slot * self.lifetimes : (slot + 1) * self.lifetimes]
            + [names[closed + self.slots + slot]]
            for slot in range(self.slots)
        ]
        # The warm-up is one lifetime per slot, sent faster than the server
        # takes them: it is discarded, only how long it takes matters.
        self.warm_script = self._schedule(stream, 1, 4 * self.rate)
        self.script = self._schedule(stream, self.lifetimes, 100.0 if quick else self.rate)

    def _schedule(self, stream: random.Random, lifetimes: int, rate: float) -> "list[Arrival]":
        per_slot = lifetimes * len(self.LIFETIME)
        count = self.slots * per_slot
        times = sorted(stream.uniform(0.0, count / rate) for _ in range(count))
        owners = [slot for slot in range(self.slots) for _ in range(per_slot)]
        stream.shuffle(owners)
        tickets = [0] * self.slots
        arrivals = []
        for offset, slot in zip(times, owners):
            arrivals.append(Arrival(offset, slot, self.LIFETIME[tickets[slot] % len(self.LIFETIME)]))
            tickets[slot] += 1
        return arrivals

    def warm_up(self, child: ServerChild) -> None:
        """Open every slot's first session, then live one lifetime: each slot
        enters the measured phase on a fresh session's first page."""
        self.logs = [CallLog(child.url, f"perf-gen-{index}") for index in range(GENERATOR_THREADS)]
        self.sessions: "list[list[UserSession]]" = []
        for slot in range(self.slots):
            session = UserSession(self._log(slot), self.corpus, self.queries[slot][0], self.page)
            session.start()
            self.sessions.append([session])
        self._run_phase(self.warm_script, None)
        for log in self.logs:
            log.reset()

    def measure(self, child: ServerChild, lap: Lap) -> None:
        self._run_phase(self.script, lap)
        lap.calls = sorted(
            (call for log in self.logs for call in log.calls), key=lambda call: call[1]
        )
        lap.attempted = sum(log.attempted for log in self.logs)
        # Slot order, then session order within the slot: the same whatever
        # the two generator threads' interleaving was.  history[0] was closed
        # by the warm-up; the last session is still on its first page.
        for history in self.sessions:
            for session in history[1:-1]:
                lap.finish(session)
            lap.transcript.append(history[-1].shown)

    def _log(self, slot: int) -> CallLog:
        return self.logs[slot % GENERATOR_THREADS]

    def _run_phase(self, arrivals: "list[Arrival]", lap: "Lap | None") -> None:
        """Each generator thread owns the slots congruent to it and runs their
        arrivals in due order, so a slot's ops execute in ticket order and its
        transcript does not depend on scheduling."""
        start_at = time.perf_counter() + 0.05
        with ThreadPoolExecutor(GENERATOR_THREADS) as pool:
            futures = [
                pool.submit(
                    self._worker,
                    [a for a in arrivals if a.slot % GENERATOR_THREADS == index],
                    start_at,
                )
                for index in range(GENERATOR_THREADS)
            ]
            outcomes = [future.result() for future in futures]
        if lap is not None:
            for turnarounds, first_pages, lags in outcomes:
                lap.turnaround_ms.extend(turnarounds)
                lap.first_page_ms.extend(first_pages)
                lap.lag_ms.extend(lags)
                lap.rounds += len(turnarounds)

    def _worker(
        self, arrivals: "list[Arrival]", start_at: float
    ) -> "tuple[list[float], list[float], list[float]]":
        turnarounds, first_pages, lags = [], [], []
        for arrival in arrivals:
            due = start_at + arrival.offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append((time.perf_counter() - due) * 1000.0)
            history = self.sessions[arrival.slot]
            session = history[-1]
            if arrival.op == "info":
                session.info()
            elif arrival.op == "churn":
                query = self.queries[arrival.slot][len(history)]
                fresh = UserSession(self._log(arrival.slot), self.corpus, query, self.page)
                first_pages.append(fresh.start(due))
                session.close()
                history.append(fresh)
            else:
                turnarounds.append(session.round(due, stream=arrival.op == "stream"))
        return turnarounds, first_pages, lags


# ---------------------------------------------------------------------------
# closed loop, one curator writing beside their own reads
# ---------------------------------------------------------------------------
class LiveRW(Workload):
    """One curator: upsert an image, query its category, now and then delete
    and merge.

    The whole script — which categories, in which order, what the images look
    like — is drawn from ``CORPUS_SEED``: here the corpus *is* the script, and
    a corpus that moved with ``--seed`` would move the AP canary with it.
    ``--seed`` changes nothing on this workload.
    """

    name = "live_rw"
    dataset_name = "bdd"
    size_scale = quick_size_scale = 0.15
    page = 3
    config = {"live_datasets": True}
    rounds_per_session = 4
    merge_every = 40
    """40 upserts x 16 patch rows = 640 delta rows, below the 825-row
    auto-trigger (0.25 x 3300 base rows): every merge is one the script forced."""
    delete_every = 10

    def __init__(self, seed: int, lap_seconds: float, quick: bool) -> None:
        super().__init__(seed, lap_seconds, quick)
        if quick:  # 4 cycles, 2 deletes, 1 merge
            self.merge_every, self.delete_every = 4, 2
        stream = seeded(CORPUS_SEED, self.name)
        contexts = sorted({image.context for image in self.corpus.dataset.images})
        self.base = self.corpus.dataset
        categories = cycled(self.base.category_names, self.closed_sessions())
        stream.shuffle(categories)
        self.script = [
            self._fresh_image(stream, UPSERT_ID_BASE + cycle, category, contexts)
            for cycle, category in enumerate(categories)
        ]

    @staticmethod
    def _fresh_image(
        stream: random.Random, image_id: int, category: str, contexts: "list[str]"
    ) -> "tuple[str, SyntheticImage]":
        """A 640x480 image (16 multiscale patches) with one large ``category`` object."""
        side = stream.uniform(0.45, 0.7) * 480
        box = BoundingBox(stream.uniform(0, 640 - side), stream.uniform(0, 480 - side), side, side)
        target = ObjectInstance(category, box, instance_id=image_id, distinctiveness=1.0)
        return category, SyntheticImage(image_id, 640, 480, stream.choice(contexts), (target,))

    def _mirror(self, images: "dict[int, SyntheticImage]") -> None:
        """Point the oracle at the corpus as the server now holds it."""
        self.corpus.dataset = ImageDataset(
            name=self.base.name,
            images=list(images.values()),
            categories=self.base.categories,
            description=self.base.description,
        )

    def warm_up(self, child: ServerChild) -> None:
        self.corpus.dataset = self.base
        log = CallLog(child.url, "perf-warmup")
        for category, _ in self.script[:2]:
            self.closed_session(log, category, None)

    def measure(self, child: ServerChild, lap: Lap) -> None:
        log = CallLog(child.url, "perf-curator")
        client, name = log.client, self.dataset_name
        images = {image.image_id: image for image in self.base.images}
        upserted: "list[int]" = []
        version = log.call("describe", client.describe_dataset, name)["version"]
        self.merges = 0

        def mutated(manifest: "dict[str, Any]") -> None:
            nonlocal version
            version += 1
            check(
                manifest["version"] == version,
                f"mutation published version {manifest['version']}, expected {version}",
            )
            check(
                manifest["merges_completed"] == self.merges,
                f"{manifest['merges_completed']} merges completed, the script forced "
                f"{self.merges}: a background merge fired, the run is not fixed-work",
            )
            lap.delta_rows_peak = max(lap.delta_rows_peak, manifest["delta_rows"])

        for cycle, (category, image) in enumerate(self.script, start=1):
            mutated(log.call("upsert", client.upsert_images, name, [image]))
            images[image.image_id] = image
            upserted.append(image.image_id)
            if cycle % self.delete_every == 0:
                oldest = upserted.pop(0)
                mutated(log.call("delete", client.delete_images, name, [oldest]))
                del images[oldest]
            self._mirror(images)
            self.closed_session(log, category, lap)
            if cycle % self.merge_every == 0:
                manifest = log.call("merge", client.merge_dataset, name)
                self.merges += 1
                check(manifest["delta_rows"] == 0, f"delta not empty after merge: {manifest}")
                check(
                    manifest["merges_completed"] == self.merges,
                    f"{manifest['merges_completed']} merges completed after forcing {self.merges}",
                )
        lap.calls, lap.attempted = log.calls, log.attempted

    def verify(self, child: ServerChild, lap: Lap) -> None:
        """The merged corpus still serves what was upserted into it."""
        client = CallLog(child.url, "perf-verify")
        manifest = client.client.describe_dataset(self.dataset_name)
        check(
            manifest["merges_completed"] == self.merges,
            f"{manifest['merges_completed']} merges completed at lap end, forced {self.merges}",
        )
        category = self.script[-1][0]
        session = UserSession(client, self.corpus, category, 10)
        session.start()
        for _ in range(2):
            session.round()
        session.close()
        check(
            any(image_id >= UPSERT_ID_BASE for image_id in session.shown),
            f"no upserted image among the first 30 results for '{category}'",
        )


WORKLOADS: "dict[str, type[Workload]]" = {
    cls.name: cls for cls in (Page10Small, WarmLarge, OpenMixed, LiveRW)
}
