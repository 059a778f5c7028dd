"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 perf/aa.py [--runs 10] [--workload NAME ...]

Runs every workload ``--runs`` times in two alternating sets (A, B, A, B, …;
run *i* of both sets uses seed *i*), each run a fresh ``perf/run.py`` process
exactly as the driver starts it, at ``BENCHMARK.json``'s ``run_seconds``.
Per end-to-end metric it prints, as a markdown table, the two set medians,
how much worse B's median is than A's as a share of A's, each set's spread
(distance between the first and third quartile as a share of the median) and
the bound from ``BENCHMARK.json``.  Exits non-zero when a gap or a spread is
beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> "dict[str, float]":
    """One driver-style run; returns its end-to-end metric values."""
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed calls: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: "list[float]") -> float:
    """Interquartile distance as a share of the median (the driver's noise measure)."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 3)")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    workloads = args.workload or [entry["name"] for entry in BENCHMARK["workloads"]]
    failures = []
    print("| workload | metric | unit | median A | median B | B worse by | spread A | spread B | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets: "tuple[list[dict[str, float]], list[dict[str, float]]]" = ([], [])
        started = time.perf_counter()
        for index in range(args.runs):
            for values in sets:
                values.append(run_once(workload, index))
        wall = (time.perf_counter() - started) / (2 * args.runs)
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run[name] for run in values] for values in sets)
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = spread(a), spread(b)
            print(
                f"| {workload} | {name} | {metric['unit']} | {median_a:.6g} | {median_b:.6g} "
                f"| {worse:+.2%} | {spreads[0]:.2%} | {spreads[1]:.2%} | {bound:g} |",
                flush=True,
            )
            if worse > bound:
                failures.append(f"{workload} {name}: B worse than A by {worse:.2%} > {bound:g}")
            if max(spreads) > bound:
                failures.append(f"{workload} {name}: spread {max(spreads):.2%} > {bound:g}")
        print(f"| {workload} | *wall per run* | s | {wall:.1f} | | | | | |", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
