"""Open-loop traffic smoke: the scenario pack against both transports.

Short, scaled-down runs of every pack scenario against an in-process
service, plus steady / replay / storm runs over a real HTTP socket — enough
traffic to exercise the sharded store, the NDJSON streaming path, idempotent
feedback, and the rate limiter, while asserting the error taxonomy stays
exactly as each scenario declares it.
"""

from __future__ import annotations

import pytest

from repro.bench.scenarios import SCENARIO_PACK, get_scenario
from repro.bench.traffic import (
    assert_tail_gates,
    read_run_jsonl,
    run_and_report,
    run_scenario,
    summarize,
)
from repro.config import SeeSawConfig
from repro.server import (
    HTTPClient,
    InProcessClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    serve_in_background,
)

QUERIES = ("a cat_easy", "a cat_hard")
SMOKE_DURATION = 1.0
SMOKE_RATE = 15.0
SMOKE_SESSIONS = 4


def _smoke(name: str):
    return get_scenario(name).scaled(
        duration_seconds=SMOKE_DURATION,
        rate_rps=SMOKE_RATE,
        session_count=SMOKE_SESSIONS,
    )


@pytest.fixture(scope="module")
def inprocess_client(tiny_dataset, tiny_clip):
    """An in-process client over a sharded, live-enabled service.

    ``live_datasets=True`` so the pack's ``live_ingest`` row can upsert and
    force-merge; the other scenarios never mutate, so they are unaffected.
    """
    service = SeeSawService(
        SeeSawConfig(
            embedding_dim=64, seed=7, n_shards=2, live_datasets=True,
        )
    )
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    yield InProcessClient(SeeSawApp(SessionManager(service)))
    service.live.close()


@pytest.fixture(scope="module")
def http_server(tiny_dataset, tiny_clip):
    """A real socket server with the same topology as the in-process run."""
    service = SeeSawService(
        SeeSawConfig(embedding_dim=64, seed=7, n_shards=2)
    )
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    with serve_in_background(SeeSawApp(SessionManager(service))) as server:
        yield server


@pytest.mark.parametrize(
    "scenario", SCENARIO_PACK, ids=lambda scenario: scenario.name
)
def test_scenario_pack_inprocess(inprocess_client, tiny_dataset, scenario):
    """Every pack scenario runs open-loop in process with a clean taxonomy."""
    run = run_scenario(
        inprocess_client,
        scenario.scaled(
            duration_seconds=SMOKE_DURATION,
            rate_rps=SMOKE_RATE,
            session_count=SMOKE_SESSIONS,
        ),
        dataset="tiny",
        queries=QUERIES,
        transport="inprocess",
        mutation_categories=tuple(
            info.name for info in tiny_dataset.categories
        ),
    )
    summary = summarize(run)
    assert run.arrivals > 0
    assert summary.requests >= run.arrivals
    assert summary.ok_requests > 0
    # No scenario may produce errors outside its declared taxonomy.  (This
    # fixture's app has no rate limiter, so even the storm runs clean here —
    # its 429s come from the limited HTTP server below.)
    assert summary.unexpected_errors == 0, summary.error_taxonomy
    assert summary.p50_ms <= summary.p99_ms <= summary.p999_ms <= summary.max_ms
    assert summary.achieved_rps > 0


def test_steady_open_loop_http_with_gates_and_artifact(http_server, tmp_path):
    """The steady scoreboard run over a real socket: gates + JSONL artifact."""
    client = HTTPClient(http_server.url, client_id="traffic-smoke")
    scenario = _smoke("steady")
    summary = run_and_report(
        client,
        scenario,
        dataset="tiny",
        queries=QUERIES,
        results_dir=tmp_path,
        transport="http",
    )
    assert summary.error_taxonomy == {}
    assert summary.unexpected_errors == 0
    assert_tail_gates(summary, scenario.gates)
    artifact = read_run_jsonl(tmp_path / "traffic_steady_http.jsonl")
    assert artifact["summary"]["transport"] == "http"
    assert len(artifact["requests"]) == summary.requests
    # The harness captured /v1/metrics counter snapshots around the run,
    # and the run actually moved the server's request counters.
    before = artifact["meta"]["metrics_before"]
    after = artifact["meta"]["metrics_after"]
    assert before is not None and after is not None
    assert after["seesaw_requests_total"] > before["seesaw_requests_total"]


def test_feedback_replay_adversarial_http(http_server):
    """The replay scenario provokes (and survives) idempotency conflicts."""
    client = HTTPClient(http_server.url, client_id="traffic-replay")
    scenario = _smoke("feedback_replay")
    run = run_scenario(
        client, scenario, dataset="tiny", queries=QUERIES, transport="http"
    )
    summary = summarize(run)
    assert summary.unexpected_errors == 0, summary.error_taxonomy
    # The adversarial path really ran: conflicting replays were refused.
    assert summary.error_taxonomy.get("IdempotencyConflictError", 0) > 0
    replay_ops = [r for r in run.records if r.op == "replay"]
    assert replay_ops, "no replay interactions were scheduled"


def test_rate_limit_storm_http(tiny_dataset, tiny_clip):
    """Arrivals far above the token bucket: 429s flow, nothing else breaks."""
    scenario = get_scenario("rate_limit_storm").scaled(
        duration_seconds=1.2, rate_rps=60.0, session_count=SMOKE_SESSIONS
    )
    service = SeeSawService(
        SeeSawConfig(
            embedding_dim=64,
            seed=7,
            rate_limit_rps=scenario.server_rate_limit_rps,
            rate_limit_burst=20,
        )
    )
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    with serve_in_background(SeeSawApp(SessionManager(service))) as server:
        client = HTTPClient(server.url, client_id="traffic-storm")
        run = run_scenario(
            client, scenario, dataset="tiny", queries=QUERIES, transport="http"
        )
    summary = summarize(run)
    assert summary.unexpected_errors == 0, summary.error_taxonomy
    # The storm actually hit the limiter.
    assert summary.error_taxonomy.get("RateLimitedError", 0) > 0
    # And the service still served real work underneath it.
    assert summary.ok_requests > 0
