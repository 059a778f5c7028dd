"""Drive the real SeeSaw HTTP service end-to-end, the way Figure 3 deploys it.

The script demonstrates all three layers of the service subsystem:

1. **Cold start (process 1, this one):** register two datasets with an
   on-disk index cache — every index is built once and persisted.
2. **Warm start (process 2):** re-exec this script in ``--serve`` mode with
   the same cache directory.  The child process loads every index from disk
   (zero re-embedding, verified via the cache-hit counters in ``/v1/healthz``)
   and exposes the JSON API on an ephemeral port.
3. **Concurrent traffic:** 8 client threads each run a full interactive
   session (start → next → feedback → next) against the child server through
   the typed `/v1` :class:`HTTPClient` — capability discovery up front,
   chunked NDJSON streaming for the first batch, and idempotency keys on
   every feedback call (each one is retried once to prove replays are free).

Run with:  python examples/service_demo.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.config import SeeSawConfig
from repro.data import load_dataset
from repro.embedding import SyntheticClip
from repro.server import (
    BoxPayload,
    FeedbackRequest,
    HTTPClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
    serve_in_background,
)

DATASETS = ("objectnet", "bdd")
QUERIES = ("a dustpan", "a wheelchair")
SIZE_SCALE = 0.1
SEED = 1
CONCURRENT_SESSIONS = 8
ROUNDS_PER_SESSION = 2


def build_service(cache_dir: str) -> SeeSawService:
    """Register every demo dataset, building or cache-loading its index.

    The demo serves the sharded topology: each index's store is
    partitioned into two image-aligned shards, which the 8 concurrent
    sessions below score against.
    """
    service = SeeSawService(SeeSawConfig(index_cache_dir=cache_dir, n_shards=2))
    for name in DATASETS:
        dataset = load_dataset(name, seed=SEED, size_scale=SIZE_SCALE)
        embedding = SyntheticClip.for_dataset(dataset, dim=128, seed=SEED)
        service.register_dataset(dataset, embedding, preprocess=True)
    return service


def serve(cache_dir: str, ready_file: str) -> None:
    """Child-process entry: warm-start the service and publish the port."""
    start = time.perf_counter()
    service = build_service(cache_dir)
    startup_seconds = time.perf_counter() - start
    app = SeeSawApp(SessionManager(service))
    with serve_in_background(app) as server:
        # Write-then-rename so the polling parent never reads a partial file.
        staging = Path(ready_file + ".tmp")
        staging.write_text(
            json.dumps(
                {
                    "url": server.url,
                    "startup_seconds": startup_seconds,
                    "cache_hits": service.cache_hits,
                    "cache_misses": service.cache_misses,
                }
            ),
            encoding="utf-8",
        )
        staging.replace(ready_file)
        # Serve until the parent kills us.
        while True:
            time.sleep(0.5)


def run_one_session(base_url: str, worker: int) -> "tuple[str, int, int]":
    """One simulated user driving the `/v1` protocol end to end.

    Round 1 renders incrementally off the chunked NDJSON stream; later
    rounds use the single-shot path.  Every feedback call carries an
    idempotency key and is sent twice — the replay returns the recorded
    result without double-applying, which is what makes client-side retry
    loops safe against timeouts.
    """
    client = HTTPClient(base_url, client_id=f"demo-worker-{worker}")
    dataset_name = DATASETS[worker % len(DATASETS)]
    query = QUERIES[worker % len(QUERIES)]
    dataset = load_dataset(dataset_name, seed=SEED, size_scale=SIZE_SCALE)
    category = query.split()[-1]
    info = client.start_session(
        StartSessionRequest(dataset=dataset_name, text_query=query, batch_size=3)
    )
    for round_index in range(ROUNDS_PER_SESSION):
        if round_index == 0:
            items = list(client.stream_next_results(info.session_id))
        else:
            items = list(client.next_results(info.session_id).items)
        for item in items:
            boxes = dataset.image(item.image_id).ground_truth_boxes(category)
            feedback = FeedbackRequest(
                session_id=info.session_id,
                image_id=item.image_id,
                relevant=bool(boxes),
                boxes=[
                    BoxPayload(box.x, box.y, box.width, box.height)
                    for box in boxes
                ],
            )
            key = f"{info.session_id}-r{round_index}-i{item.image_id}"
            first = client.give_feedback(feedback, idempotency_key=key)
            replay = client.give_feedback(feedback, idempotency_key=key)
            assert replay == first, "idempotent replay must not re-apply"
    summary = client.session_info(info.session_id)
    client.close_session(info.session_id)
    client.close()  # hang up the kept-alive connection the calls above shared
    return summary.session_id, summary.total_shown, summary.positives_found


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="seesaw-cache-") as cache_dir:
        # ------------------------------------------------------------------
        # 1. Cold start: build every index once and persist it.
        # ------------------------------------------------------------------
        start = time.perf_counter()
        service = build_service(cache_dir)
        cold_seconds = time.perf_counter() - start
        print(
            f"[cold ] process 1 built {service.cache_misses} indexes "
            f"in {cold_seconds:.2f}s and persisted them to {cache_dir}"
        )
        assert service.cache_misses == len(DATASETS), "cold start should build"

        # ------------------------------------------------------------------
        # 2. Warm start: a *second process* serves from the on-disk cache.
        # ------------------------------------------------------------------
        ready_file = str(Path(cache_dir) / "server-ready.json")
        child = subprocess.Popen(
            [sys.executable, __file__, "--serve", cache_dir, ready_file]
        )
        try:
            deadline = time.monotonic() + 60.0
            while not Path(ready_file).exists():
                if child.poll() is not None:
                    raise RuntimeError("server process exited before becoming ready")
                if time.monotonic() > deadline:
                    raise RuntimeError("server process did not become ready in time")
                time.sleep(0.05)
            ready = json.loads(Path(ready_file).read_text(encoding="utf-8"))
            if ready["cache_misses"] != 0 or ready["cache_hits"] != len(DATASETS):
                raise RuntimeError(
                    f"warm start re-built indexes: {ready}"
                )
            print(
                f"[warm ] process 2 loaded {ready['cache_hits']} indexes from disk "
                f"in {ready['startup_seconds']:.3f}s "
                f"({cold_seconds / max(ready['startup_seconds'], 1e-9):.0f}x faster, "
                f"no re-embedding) and listens on {ready['url']}"
            )

            # --------------------------------------------------------------
            # 3. Concurrent traffic: 8 sessions in parallel over /v1.
            # --------------------------------------------------------------
            client = HTTPClient(ready["url"], client_id="demo-main")
            capabilities = client.capabilities()
            print(
                f"[v1   ] protocol {capabilities['protocol']['version']} "
                f"rev {capabilities['protocol']['revision']}, features on: "
                + ", ".join(
                    sorted(
                        name
                        for name, enabled in capabilities["features"].items()
                        if enabled
                    )
                )
            )
            print(f"[v1   ] healthz: {client.healthz()}")
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CONCURRENT_SESSIONS) as pool:
                outcomes = list(
                    pool.map(
                        lambda worker: run_one_session(ready["url"], worker),
                        range(CONCURRENT_SESSIONS),
                    )
                )
            elapsed = time.perf_counter() - start
            for session_id, shown, positives in outcomes:
                print(
                    f"[v1   ]   {session_id}: {positives} relevant "
                    f"of {shown} shown"
                )
            print(
                f"[v1   ] {len(outcomes)} concurrent sessions completed "
                f"without error in {elapsed:.2f}s "
                f"(streamed first rounds, idempotent feedback replays)"
            )
            client.close()
        finally:
            child.terminate()
            child.wait(timeout=10.0)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--serve":
        serve(sys.argv[2], sys.argv[3])
    else:
        main()
