"""The benchmark's server child: one dataset behind the shipped ``/v1`` stack.

``python3 perf/launcher.py '<spec json>'`` pins itself to the spec's CPUs,
builds the dataset the spec names, registers it (cold build, or cache load
when the spec's config sets ``index_cache_dir``), serves it on an ephemeral
port and prints one JSON line (``url``, ``import_s``) to stdout.  SIGTERM drains and exits; so does EOF on
stdin, so a generator that dies cannot leave the child behind.  With
``trace`` set the layer boundaries are wrapped first (:mod:`perf.tracing`)
and the spans are written to ``spans_path`` after the drain.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from pathlib import Path


def main(spec: "dict[str, object]") -> None:
    # Blocked here, before any thread exists, so every thread inherits the
    # mask and SIGTERM stays pending until the main thread's sigwait takes it.
    # (A handler would do only if the kernel happened to pick the main thread.)
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    os.sched_setaffinity(0, spec["cpus"])  # likewise inherited by every thread
    started = time.perf_counter()
    import repro.server as server

    import_s = time.perf_counter() - started
    from repro.config import SeeSawConfig
    from repro.data import load_dataset
    from repro.embedding import SyntheticClip

    recorder = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from perf import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    dataset = load_dataset(
        spec["dataset"], seed=spec["dataset_seed"], size_scale=spec["size_scale"]
    )
    embedding = SyntheticClip.for_dataset(dataset, dim=128, seed=spec["dataset_seed"])
    service = server.SeeSawService(SeeSawConfig(**spec["config"]))
    service.register_dataset(dataset, embedding)
    app = server.SeeSawApp(server.SessionManager(service))
    background = server.serve_in_background(app).start()

    def watch_parent() -> None:
        # Raw reads: a buffered read would hold stdin's lock into interpreter
        # shutdown.  Empty means EOF — the generator closed the pipe or died.
        while os.read(0, 4096):
            pass
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch_parent, name="perf-parent-watch", daemon=True).start()
    print(json.dumps({"url": background.url, "import_s": import_s}), flush=True)
    signal.sigwait({signal.SIGTERM})
    background.drain()
    if recorder is not None:
        recorder.dump(spec["spans_path"])


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
