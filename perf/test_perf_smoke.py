"""Plumbing check of the benchmark at 1/20 size (``--quick``): no timing is asserted.

Every workload is run twice with one seed — once plain, once traced — through
the same command line the driver uses; ``page10_small`` once more with
another seed.  Workloads run two at a time to keep the tier-1 cost down.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def quick_run(workload: str, seed: int, trace: int) -> "tuple[dict, dict]":
    """``(stdout result, run record)`` of one ``--quick`` run."""
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--quick"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((REPO_ROOT / "perf" / "out" / f"{workload}.json").read_text())
    return result, record


def smoke(workload: str) -> "dict[str, tuple[dict, dict]]":
    # One workload's runs go one after the other: they share its run record.
    runs = {"plain": quick_run(workload, 0, 0), "traced": quick_run(workload, 0, 1)}
    if workload == "page10_small":
        runs["other_seed"] = quick_run(workload, 1, 0)
    return runs


@pytest.fixture(scope="module")
def runs() -> "dict[str, dict[str, tuple[dict, dict]]]":
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(WORKLOADS, pool.map(smoke, WORKLOADS)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload):
    assert len(BENCHMARK["end_to_end"]) == 8 and len(BENCHMARK["per_layer"]) == 30
    for mode, declared in (("plain", "end_to_end"), ("traced", "per_layer")):
        result, _ = runs[workload][mode]
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert list(metrics) == [metric["name"] for metric in BENCHMARK[declared]]
        for metric in BENCHMARK[declared]:
            assert NAME.fullmatch(metric["name"])
            assert metrics[metric["name"]]["unit"] == metric["unit"]
            assert isinstance(metrics[metric["name"]]["value"], (int, float))
    end_to_end = runs[workload]["plain"][0]["metrics"]
    assert all(entry["value"] > 0 for entry in end_to_end.values()), end_to_end
    assert end_to_end["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(runs, workload):
    (_, plain), (_, traced) = runs[workload]["plain"], runs[workload]["traced"]
    assert plain["transcript_sha256"] == traced["transcript_sha256"]
    assert plain["end_to_end"]["canary_ap"] == traced["end_to_end"]["canary_ap"]
    assert plain["laps"][0]["calls"] == traced["laps"][0]["calls"] == traced["laps"][1]["calls"]
    assert plain["laps"][0]["rounds"] == traced["laps"][1]["rounds"]


def test_another_seed_changes_the_transcript(runs):
    (_, plain), (_, other) = runs["page10_small"]["plain"], runs["page10_small"]["other_seed"]
    assert plain["transcript_sha256"] != other["transcript_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_inside_the_client_calls(runs, workload):
    _, record = runs[workload]["traced"]
    lap = record["laps"][-1]
    assert lap["traced"]
    assert all(seconds >= 0 for seconds in lap["layer_self_s"].values()), lap["layer_self_s"]
    assert 0 < sum(lap["layer_self_s"].values()) <= lap["client_call_s"]
    per_layer = record["per_layer"]
    assert all(value >= 0 for value in per_layer.values()), per_layer
    if workload == "live_rw":
        assert per_layer["live.delta_rows_peak"] > 0 and per_layer["live.merge_p50_s"] > 0
    if workload == "open_mixed":
        assert record["laps"][0]["lag_samples"] > 0
