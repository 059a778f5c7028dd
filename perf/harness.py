"""Plumbing shared by the workloads: the server child, timed calls, one user.

Everything here drives the shipped surface only — the child is
``perf/launcher.py``, calls go through :class:`repro.server.HTTPClient`, and
relevance comes from :class:`repro.bench.simulate.OracleUser`.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence
from urllib.parse import urlsplit

from repro.bench.simulate import OracleJudgement, OracleUser
from repro.data import ImageDataset
from repro.metrics.average_precision import average_precision_at_cutoff
from repro.server import BoxPayload, FeedbackRequest, HTTPClient, ResultItem, StartSessionRequest

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
"""What every server child runs under: one BLAS thread (2 vCPUs are shared
with the generator) and a fixed hash seed."""

ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = ALLOWED_CPUS[:1]
GENERATOR_CPUS = ALLOWED_CPUS[1:] or ALLOWED_CPUS
"""Placement: the server child on the first CPU this process may use, the
generator (``run.py`` pins itself) on the others, so the two never migrate
onto each other mid-round.  On this VM that alone made the closed loops
6-14 % faster and took the outliers out; with one CPU they share it."""

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

READY_TIMEOUT_S = 120.0
"""How long a child may take to build (or load) its index and serve."""


class CheckFailed(Exception):
    """An output was wrong: the run prints no metrics and exits non-zero."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values: "Sequence[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def median(values: "Sequence[float]") -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# the server child
# ---------------------------------------------------------------------------
class ServerChild:
    """One launch of ``perf/launcher.py``; a context manager that always reaps.

    ``setup_s`` is ``Popen`` → first 200 from ``/healthz``: the launcher
    prints its URL only once the dataset index is resident and the listener
    is up, so the first probe is the first that can succeed.
    """

    def __init__(self, spec: "dict[str, Any]") -> None:
        self.spec = spec
        self.process: "subprocess.Popen[bytes] | None" = None
        self.url = ""
        self.setup_s = 0.0
        self.import_s = 0.0
        self.health: "dict[str, Any]" = {}

    def __enter__(self) -> "ServerChild":
        env = dict(os.environ, **CHILD_ENV)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(PERF_DIR / "launcher.py"),
                json.dumps(dict(self.spec, cpus=SERVER_CPUS)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(REPO_ROOT),
        )
        try:
            readable, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
            check(bool(readable), f"server child not ready within {READY_TIMEOUT_S:.0f} s")
            line = self.process.stdout.readline()
            if not line:
                raise CheckFailed(
                    f"server child exited with code {self.process.wait()} before serving"
                )
            ready = json.loads(line)
            self.url, self.import_s = ready["url"], ready["import_s"]
            self.health = HTTPClient(self.url).healthz()
            self.setup_s = time.perf_counter() - started
            check(self.health.get("state") == "serving", f"server not serving: {self.health}")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        """SIGTERM (the launcher drains, then writes its spans), SIGKILL after 5 s.

        The drained server's accept loop looks at its stop flag only when its
        0.5 s poll ends; a connection ends the poll at once, so the wait is
        ~0.1 s instead of ~0.6 s per launch.
        """
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            give_up = time.perf_counter() + 5.0
            while process.poll() is None:
                if time.perf_counter() > give_up:
                    process.kill()
                    break
                time.sleep(0.02)
                if self.url:
                    try:
                        socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                    except OSError:
                        pass  # the listener is closed: the child is on its way out
        finally:
            process.stdin.close()
            process.stdout.close()
            process.wait()

    @property
    def port(self) -> int:
        return int(urlsplit(self.url).port)

    def cpu_seconds(self) -> float:
        """The child's ``utime + stime`` so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM``."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise CheckFailed("VmHWM missing from /proc status")


def connect_microseconds(port: int, samples: int = 200) -> float:
    """Median cost of one TCP connect + close to the server (the client opens
    one connection per call)."""
    costs = []
    for _ in range(samples):
        started = time.perf_counter()
        socket.create_connection(("127.0.0.1", port), timeout=5.0).close()
        costs.append((time.perf_counter() - started) * 1e6)
    return median(costs)


# ---------------------------------------------------------------------------
# timed calls and one simulated user
# ---------------------------------------------------------------------------
class CallLog:
    """An :class:`HTTPClient` whose every call is timed as ``(kind, start, end)``.

    One log per generator thread.  A call that raises propagates: the scripts
    are sized so that no call fails, and a session cannot continue past one.
    """

    def __init__(self, url: str, client_id: str) -> None:
        self.client = HTTPClient(url, client_id=client_id)
        self.attempted = 0
        self.calls: "list[tuple[str, float, float]]" = []

    def reset(self) -> None:
        """Forget the calls so far (the end of a warm-up)."""
        self.attempted = 0
        self.calls = []

    def call(self, kind: str, fn: "Callable[..., Any]", *args: Any) -> Any:
        self.attempted += 1
        started = time.perf_counter()
        result = fn(*args)
        self.calls.append((kind, started, time.perf_counter()))
        return result


@dataclass
class Corpus:
    """The generator's view of what the server serves: the oracle's ground truth."""

    name: str
    dataset: ImageDataset
    samples: "dict[str, list[Any]]" = field(
        default_factory=lambda: {"next": [], "feedback": []}
    )
    """The run's own first payloads, kept for the direct codec measurements."""

    SAMPLE_LIMIT = 200

    def keep(self, kind: str, payload: Any) -> None:
        bucket = self.samples[kind]
        if len(bucket) < self.SAMPLE_LIMIT:
            bucket.append(payload)


class UserSession:
    """One user on one text query: start → first page → label, next, label, …

    Every page is checked as it arrives (item count, no repeat within the
    session, finite non-increasing scores); the checks run outside the timed
    spans.  Timings are returned in milliseconds, from ``due`` (the scheduled
    time, open loop) or from the first send (closed loop).
    """

    def __init__(self, log: CallLog, corpus: Corpus, category: str, page: int) -> None:
        self.log = log
        self.corpus = corpus
        self.page = page
        self.oracle = OracleUser(corpus.dataset, category)
        self.prompt = corpus.dataset.category(category).prompt
        self.session_id = ""
        self.pending: "list[OracleJudgement]" = []
        """The oracle's verdicts on the page now awaiting feedback."""
        self.shown: "list[int]" = []
        self.relevance: "list[bool]" = []

    def start(self, due: "float | None" = None) -> float:
        client = self.log.client
        request = StartSessionRequest(
            dataset=self.corpus.name, text_query=self.prompt, batch_size=self.page
        )
        began = time.perf_counter() if due is None else due
        info = self.log.call("start", client.start_session, request)
        self.session_id = info.session_id
        response = self.log.call("next", client.next_results, self.session_id, self.page)
        elapsed = time.perf_counter() - began
        self.corpus.keep("next", response)
        self._accept(list(response.items))
        return elapsed * 1000.0

    def round(self, due: "float | None" = None, stream: bool = False) -> float:
        """Label the pending page (the last label runs the aligner update), fetch the next."""
        client = self.log.client
        requests = [
            FeedbackRequest(
                session_id=self.session_id,
                image_id=judgement.image_id,
                relevant=judgement.relevant,
                boxes=tuple(
                    BoxPayload(box.x, box.y, box.width, box.height) for box in judgement.boxes
                ),
            )
            for judgement in self.pending
        ]
        began = time.perf_counter() if due is None else due
        for position, request in enumerate(requests):
            last = position == len(requests) - 1
            self.log.call("update_feedback" if last else "feedback", client.give_feedback, request)
        if stream:
            items = self.log.call(
                "stream_next",
                lambda: list(client.stream_next_results(self.session_id, self.page)),
            )
        else:
            response = self.log.call("next", client.next_results, self.session_id, self.page)
            items = list(response.items)
            self.corpus.keep("next", response)
        elapsed = time.perf_counter() - began
        for request in requests:
            self.corpus.keep("feedback", request)
        self._accept(items)
        return elapsed * 1000.0

    def info(self) -> None:
        info = self.log.call("info", self.log.client.session_info, self.session_id)
        check(
            info.total_shown == len(self.shown),
            f"{self.session_id}: server counts {info.total_shown} shown, script {len(self.shown)}",
        )

    def close(self) -> None:
        self.log.call("close", self.log.client.close_session, self.session_id)

    def _accept(self, items: "list[ResultItem]") -> None:
        where = f"{self.session_id} ({self.prompt})"
        check(len(items) == self.page, f"{where}: page of {len(items)}, asked for {self.page}")
        scores = [item.score for item in items]
        check(all(math.isfinite(score) for score in scores), f"{where}: non-finite score")
        check(scores == sorted(scores, reverse=True), f"{where}: scores increase within a page")
        self.pending = [self.oracle.judge(item.image_id) for item in items]
        for judgement in self.pending:
            check(
                judgement.image_id not in self.shown,
                f"{where}: image {judgement.image_id} repeated",
            )
            self.shown.append(judgement.image_id)
            self.relevance.append(judgement.relevant)

    def average_precision(self) -> float:
        return average_precision_at_cutoff(self.relevance, self.oracle.total_relevant, 10, 60)


# ---------------------------------------------------------------------------
# one lap's measurements
# ---------------------------------------------------------------------------
@dataclass
class Lap:
    """Everything one lap (one server launch + one replay of the lap script) yields."""

    setup_s: float = 0.0
    import_s: float = 0.0
    segment_start: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    rounds: int = 0
    attempted: int = 0
    """Calls sent; ``calls`` holds the ones that returned their typed result."""
    turnaround_ms: "list[float]" = field(default_factory=list)
    first_page_ms: "list[float]" = field(default_factory=list)
    calls: "list[tuple[str, float, float]]" = field(default_factory=list)
    transcript: "list[list[int]]" = field(default_factory=list)
    precisions: "list[float]" = field(default_factory=list)
    lag_ms: "list[float]" = field(default_factory=list)
    delta_rows_peak: int = 0
    connect_us: float = 0.0
    spans: "dict[str, Any] | None" = None

    def finish(self, session: UserSession) -> None:
        """Fold a finished session into the transcript and the AP canary."""
        self.transcript.append(session.shown)
        self.precisions.append(session.average_precision())

    def canary_ap(self) -> float:
        """Mean AP of the lap's sessions; ``fsum`` so their order cannot move it."""
        return math.fsum(self.precisions) / len(self.precisions)

    def call_ms(self, kind: str) -> "list[float]":
        return [(end - start) * 1000.0 for name, start, end in self.calls if name == kind]
