"""Run one workload of the repo's benchmark and print its metrics.

    python3 perf/run.py --workload page10_small [--seed 0] [--seconds N] [--trace 0|1] [--quick]

A run is three laps (``--trace 1``: one untraced lap and one traced lap);
each lap launches a fresh server child, warms it up, replays the same
seed-determined lap script and checks every page it gets back.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics, as ``BENCHMARK.json`` declares them.  A failed check prints no
metrics and exits non-zero.  Details and the metric tables: ``README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no program to measure — {REPO_ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]
# The generator builds corpora (and the warm_large fixture) with numpy: keep
# it to one BLAS thread too, and set that before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any  # noqa: E402

import numpy  # noqa: E402

from repro.server.codec import (  # noqa: E402
    decode_feedback_request,
    dump_json,
    encode_feedback_request,
    encode_next_results_response,
    parse_json,
)

from perf import tracing  # noqa: E402
from perf.harness import (  # noqa: E402
    CHILD_ENV,
    GENERATOR_CPUS,
    OUT_DIR,
    SERVER_CPUS,
    Corpus,
    Lap,
    ServerChild,
    check,
    connect_microseconds,
    median,
    percentile,
)
from perf.workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
LAPS = 3
MAX_TRACE_OVERHEAD = 1.25
"""Traced / untraced ``turnaround_p50_ms`` above which the traced lap is not
the program the untraced laps measured."""


# ---------------------------------------------------------------------------
# laps
# ---------------------------------------------------------------------------
def run_lap(workload: Workload, trace: bool) -> Lap:
    """One server launch, warm-up, measured replay of the lap script, checks."""
    lap = Lap()
    spans_path = OUT_DIR / f"{workload.name}.spans.json"
    with ServerChild(workload.child_spec(trace, str(spans_path))) as child:
        lap.setup_s, lap.import_s = child.setup_s, child.import_s
        workload.check_health(child.health)
        workload.warm_up(child)
        cpu_before = child.cpu_seconds()
        lap.segment_start = time.perf_counter()
        workload.measure(child, lap)
        lap.wall_s = time.perf_counter() - lap.segment_start
        lap.cpu_s = child.cpu_seconds() - cpu_before
        lap.rss_mb = child.peak_rss_mb()
        workload.verify(child, lap)
        if trace:
            lap.connect_us = connect_microseconds(child.port)
    if trace:
        lap.spans = tracing.summarize(
            spans_path, lap.segment_start, lap.segment_start + lap.wall_s
        )
        check(
            lap.spans["requests"] == len(lap.calls),
            f"{lap.spans['requests']} traced requests for {len(lap.calls)} client calls",
        )
    return lap


def transcript_hash(lap: Lap) -> str:
    """sha256 over every shown image-id sequence, in script order."""
    return hashlib.sha256(json.dumps(lap.transcript).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(laps: "list[Lap]") -> "dict[str, float]":
    """Every measured value is the median over laps of the lap value."""
    return {
        "setup_s": median([lap.setup_s for lap in laps]),
        "turnaround_p50_ms": median([median(lap.turnaround_ms) for lap in laps]),
        "first_page_p50_ms": median([median(lap.first_page_ms) for lap in laps]),
        "rounds_per_s": median([lap.rounds / lap.wall_s for lap in laps]),
        "server_cpu_ms_per_round": median([lap.cpu_s * 1000.0 / lap.rounds for lap in laps]),
        "server_peak_rss_mb": median([lap.rss_mb for lap in laps]),
        # A call that does not return its typed result raises and ends the
        # run, so a run that reports at all reports 1.
        "ok_ratio": sum(len(lap.calls) for lap in laps) / sum(lap.attempted for lap in laps),
        "canary_ap": laps[0].canary_ap(),
    }


def codec_microseconds(corpus: Corpus) -> "tuple[float, float]":
    """Direct: the server-side codec work on the run's own first payloads."""
    responses = corpus.samples["next"]
    bodies = [
        (dump_json(encode_feedback_request(request)), request.session_id)
        for request in corpus.samples["feedback"]
    ]
    encode, decode = [], []
    for _ in range(5):
        started = time.perf_counter()
        for response in responses:
            dump_json(encode_next_results_response(response))
        encode.append((time.perf_counter() - started) / len(responses) * 1e6)
        started = time.perf_counter()
        for body, session_id in bodies:
            decode_feedback_request(parse_json(body), session_id=session_id)
        decode.append((time.perf_counter() - started) / len(bodies) * 1e6)
    return median(encode), median(decode)


def per_layer(workload: Workload, plain: Lap, traced: Lap) -> "dict[str, float]":
    """Client-observed numbers from the untraced lap, span numbers from the traced one."""
    spans, rounds = traced.spans, traced.rounds
    self_ms = {layer: seconds * 1000.0 for layer, seconds in spans["self_seconds"].items()}
    client_ms = sum(end - start for _, start, end in traced.calls) * 1000.0
    encode_us, decode_us = codec_microseconds(workload.corpus)
    iterations = spans["lbfgs_iterations"]

    def per_round(layer: str) -> float:
        return self_ms.get(layer, 0.0) / rounds

    overhead = median(traced.turnaround_ms) / median(plain.turnaround_ms)
    if overhead > MAX_TRACE_OVERHEAD:
        # Not a failed check: the ratio is of two single laps, and two
        # untraced laps of one run have been seen 1.2-1.4 apart on a busy host.
        print(
            f"perf/run.py: trace.overhead_ratio {overhead:.3f} > {MAX_TRACE_OVERHEAD}: "
            "do not read this run's per-layer times, run it again",
            file=sys.stderr,
        )
    return {
        "client.self_ms_per_round": (client_ms - spans["root_seconds"] * 1000.0) / rounds,
        "client.calls_per_round": len(traced.calls) / rounds,
        "client.next_p50_ms": median(plain.call_ms("next")),
        "client.feedback_p50_ms": median(plain.call_ms("feedback")),
        "client.update_feedback_p50_ms": median(plain.call_ms("update_feedback")),
        "client.start_p50_ms": median(plain.call_ms("start")),
        "client.turnaround_p95_ms": percentile(plain.turnaround_ms, 95),
        "gen.lag_p95_ms": percentile(plain.lag_ms, 95),
        "wire.connect_us": traced.connect_us,
        "http.self_ms_per_round": per_round("http"),
        "http.requests_per_connection": spans["requests"] / spans["connections"],
        "app.self_ms_per_round": per_round("app"),
        "codec.encode_next_us": encode_us,
        "codec.decode_feedback_us": decode_us,
        "manager.self_ms_per_round": per_round("manager"),
        "service.self_ms_per_round": per_round("service"),
        "session.self_ms_per_round": per_round("session"),
        "aligner.update_ms_per_round": per_round("aligner"),
        "aligner.lbfgs_iters_per_update": sum(iterations) / max(1, len(iterations)),
        "engine.self_ms_per_round": per_round("engine"),
        "vectorstore.score_ms_per_round": per_round("vectorstore"),
        "vectorstore.rows_scored_per_round": spans["rows_scored"] / rounds,
        "live.upsert_p50_ms": median(plain.call_ms("upsert")),
        "live.merge_p50_s": median(plain.call_ms("merge")) / 1000.0,
        "live.delta_rows_peak": float(plain.delta_rows_peak),
        "indexing.embed_s": spans["setup"]["embed_s"],
        "indexing.graph_s": spans["setup"]["graph_s"],
        "store.cache_load_s": spans["setup"]["cache_load_s"],
        "setup.import_s": plain.import_s,
        "trace.overhead_ratio": overhead,
    }


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------
def environment() -> "dict[str, Any]":
    """What a surprising number is explained by before the code is."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    timewait = -1
    for line in Path("/proc/net/sockstat").read_text().splitlines():
        fields = line.split()
        if fields[0] == "TCP:" and "tw" in fields:
            timewait = int(fields[fields.index("tw") + 1])
    return {
        "git_sha": sha or "not a git checkout",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "child_env": CHILD_ENV,
        "server_cpus": SERVER_CPUS,
        "generator_cpus": GENERATOR_CPUS,
        "tcp_timewait_at_start": timewait,
    }


def lap_record(lap: Lap) -> "dict[str, Any]":
    """The lap values behind every median, with the sample count of each percentile."""
    kinds = sorted({kind for kind, _, _ in lap.calls})
    return {
        "setup_s": lap.setup_s,
        "import_s": lap.import_s,
        "wall_s": lap.wall_s,
        "server_cpu_s": lap.cpu_s,
        "server_peak_rss_mb": lap.rss_mb,
        "rounds": lap.rounds,
        "turnaround_p50_ms": median(lap.turnaround_ms),
        "turnaround_p95_ms": percentile(lap.turnaround_ms, 95),
        "turnaround_samples": len(lap.turnaround_ms),
        "first_page_p50_ms": median(lap.first_page_ms),
        "first_page_samples": len(lap.first_page_ms),
        "lag_p95_ms": percentile(lap.lag_ms, 95),
        "lag_samples": len(lap.lag_ms),
        "client_call_s": sum(end - start for _, start, end in lap.calls),
        "calls": {kind: len(lap.call_ms(kind)) for kind in kinds},
        "call_p50_ms": {kind: median(lap.call_ms(kind)) for kind in kinds},
        "sessions": len(lap.precisions),
        "canary_ap": lap.canary_ap(),
        "transcript_sha256": transcript_hash(lap),
        "delta_rows_peak": lap.delta_rows_peak,
        "traced": lap.spans is not None,
        "layer_self_s": lap.spans["self_seconds"] if lap.spans else None,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def run_workload(
    name: str, seed: int = 0, seconds: float = BENCHMARK["run_seconds"], trace: bool = False,
    quick: bool = False,
) -> "dict[str, Any]":
    """Run ``name`` once; returns the run record (also written to ``perf/out``).

    ``record["end_to_end"]`` is always there (from the untraced laps);
    ``record["per_layer"]`` only with ``trace``.
    """
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    workload = WORKLOADS[name](seed, seconds / LAPS, quick)
    workload.prepare()
    lap_count = 1 if quick or trace else LAPS
    laps = [run_lap(workload, trace=False) for _ in range(lap_count)]
    if trace:
        laps.append(run_lap(workload, trace=True))
    hashes = {transcript_hash(lap) for lap in laps}
    check(len(hashes) == 1, f"laps returned different transcripts: {sorted(hashes)}")
    check(
        len({tuple(lap.precisions) for lap in laps}) == 1 and len({lap.rounds for lap in laps}) == 1,
        "laps disagree on rounds or AP",
    )
    plain = [lap for lap in laps if lap.spans is None]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "environment": env,
        "fixture_s": workload.fixture_s,
        "transcript_sha256": hashes.pop(),
        "attempted": sum(lap.attempted for lap in laps),
        "failed": sum(lap.attempted - len(lap.calls) for lap in laps),
        "end_to_end": end_to_end(plain),
        "per_layer": per_layer(workload, plain[0], laps[-1]) if trace else None,
        "laps": [lap_record(lap) for lap in laps],
    }
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1))
    return record


def with_units(values: "dict[str, float]", declared: "list[dict[str, Any]]") -> "dict[str, Any]":
    """``values`` keyed and united exactly as ``BENCHMARK.json`` declares them."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=BENCHMARK["run_seconds"],
        help="measured time the three lap scripts are sized for (not a deadline)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="1/20-size script, one lap: plumbing check only"
    )
    args = parser.parse_args(argv)

    def terminate(signum: int, frame: object) -> None:
        raise SystemExit(f"perf/run.py: signal {signum}")  # unwinds through ServerChild.__exit__

    signal.signal(signal.SIGTERM, terminate)
    os.sched_setaffinity(0, GENERATOR_CPUS)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except Exception as exc:  # the boundary: report the failure, print no metrics
        print(f"perf/run.py: {args.workload} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = with_units(record["per_layer"], BENCHMARK["per_layer"])
    else:
        metrics = with_units(record["end_to_end"], BENCHMARK["end_to_end"])
    for metric, entry in metrics.items():
        print(f"{metric:36s} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
