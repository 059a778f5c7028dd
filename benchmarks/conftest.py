"""Shared fixtures for the benchmark suite.

Each ``bench_*.py`` file regenerates one table or figure of the paper.  By
default the benchmarks run at a reduced scale (smaller synthetic datasets and
a subsample of queries) so the whole suite completes in a few minutes; set
``REPRO_FULL_BENCH=1`` to run at full paper scale.  Every benchmark writes its
paper-style text report to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.runner import BenchmarkSettings
from repro.bench.suite import ExperimentScale, build_bundles

RESULTS_DIR = Path(__file__).parent / "results"


def _bench_scale() -> ExperimentScale:
    if os.environ.get("REPRO_FULL_BENCH", "") not in ("", "0", "false", "False"):
        return ExperimentScale(size_scale=1.0, max_queries_per_dataset=10_000)
    return ExperimentScale(size_scale=0.15, max_queries_per_dataset=10)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale used by every benchmark in this run."""
    return _bench_scale()


@pytest.fixture(scope="session")
def settings() -> BenchmarkSettings:
    """The paper's task cutoffs: find 10 relevant images within 60 shown."""
    return BenchmarkSettings()


@pytest.fixture(scope="session")
def bundles(scale: ExperimentScale):
    """Dataset bundles for all four evaluation datasets (built once)."""
    return build_bundles(scale)


@pytest.fixture(scope="session")
def save_report():
    """Write a benchmark's text report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[report saved to {path}]")

    return _save
