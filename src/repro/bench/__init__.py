"""Benchmark harness regenerating every table and figure of the evaluation.

The central pieces are:

* :class:`repro.bench.tasks.BenchmarkQuery` — one (dataset, category) search task.
* :class:`repro.bench.simulate.OracleUser` — replays ground-truth boxes as
  feedback, exactly as §5.1 describes.
* :func:`repro.bench.runner.run_search_task` — drives one method through one
  task and measures AP and latency.
* :mod:`repro.bench.experiments` — one entry point per paper table/figure.
"""

from repro.bench.runner import BenchmarkSettings, SessionOutcome, run_search_task
from repro.bench.simulate import OracleUser
from repro.bench.suite import DatasetBundle, build_bundle, method_factories
from repro.bench.tasks import BenchmarkQuery, queries_for_dataset

__all__ = [
    "BenchmarkQuery",
    "queries_for_dataset",
    "OracleUser",
    "BenchmarkSettings",
    "SessionOutcome",
    "run_search_task",
    "DatasetBundle",
    "build_bundle",
    "method_factories",
]
