"""Table 6: per-iteration system latency vs database size for each method."""

from repro.bench.experiments import (
    table6_ann_recall_latency,
    table6_dtype_throughput,
    table6_engine_latency,
    table6_latency,
    table6_protocol_streaming,
    table6_sharded_latency,
    table6_telemetry_overhead,
)


def test_table6_latency(benchmark, bundles, scale, settings, save_report):
    result = benchmark.pedantic(
        lambda: table6_latency(bundles, scale, settings, queries_per_index=2),
        rounds=1,
        iterations=1,
    )
    save_report("table6_latency", result.format_text())
    # Reproduction targets: SeeSaw's per-round latency stays far below the
    # full label-propagation variant on the largest (multiscale) indexes.
    largest = result.rows[-1]
    assert largest["SeeSaw"] <= largest["prop."] * 1.5
    # Zero-shot CLIP (no model update) is the cheapest method everywhere.
    for row in result.rows:
        assert row["CLIP"] <= row["SeeSaw"] + 0.05


def test_table6_engine_vs_legacy(benchmark, bundles, save_report):
    """Engine rows: per-round latency of the columnar engine vs the legacy
    object path, on the exact and forest stores."""
    result = benchmark.pedantic(
        lambda: table6_engine_latency(bundles["bdd"]),
        rounds=1,
        iterations=1,
    )
    save_report("table6_engine_latency", result.format_text())
    by_store = {row["store"]: row for row in result.rows}
    assert set(by_store) == {"exact", "forest"}
    # The columnar rewrite must be a measurable win where the engine owns
    # the whole path (exact store: mask once, reduceat pool, argpartition —
    # a multi-x margin, safe to gate strictly).
    exact = by_store["exact"]
    assert exact["engine_ms"] < exact["legacy_ms"], (
        f"engine slower than legacy on exact store: "
        f"{exact['engine_ms']:.3f}ms vs {exact['legacy_ms']:.3f}ms"
    )
    # The forest row is dominated by shared candidate gathering, so the
    # engine's edge is small (~1.1x); allow scheduler noise in the gate.
    forest = by_store["forest"]
    assert forest["engine_ms"] < forest["legacy_ms"] * 1.15, (
        f"engine regressed vs legacy on forest store: "
        f"{forest['engine_ms']:.3f}ms vs {forest['legacy_ms']:.3f}ms"
    )


def test_table6_sharded_latency(benchmark, bundles, save_report):
    """Scaling rows: bulk scoring on the flat store and its sharded wrapper."""
    result = benchmark.pedantic(
        lambda: table6_sharded_latency(bundles["bdd"], repeats=5),
        rounds=1,
        iterations=1,
    )
    save_report("table6_sharded_latency", result.format_text())
    per_round = {row["mode"]: row["per_round_ms"] for row in result.rows}
    assert set(per_round) == {"score_all/flat", "score_all/sharded"}
    assert all(ms > 0 for ms in per_round.values())


def test_table6_dtype_throughput(benchmark, bundles, save_report, tmp_path):
    """Storage & compute tier rows: float64 vs float32 vs int8+rerank
    scoring, and the mmap cold index load."""
    result = benchmark.pedantic(
        lambda: table6_dtype_throughput(bundles["bdd"], cache_dir=str(tmp_path)),
        rounds=1,
        iterations=1,
    )
    save_report("table6_dtype_throughput", result.format_text())
    scoring = result.scoring_ms()
    assert set(scoring) == {"float64", "float32", "int8+rerank"}
    # The acceptance gate: halving the bytes per score must buy measurable
    # per-round latency (the real margin is ~2x; the headroom absorbs CI
    # scheduler noise without ever letting a regression to parity pass).
    assert scoring["float32"] < scoring["float64"] * 0.9, (
        f"float32 scoring did not beat float64: "
        f"{scoring['float32']:.3f}ms vs {scoring['float64']:.3f}ms"
    )


def test_table6_ann_recall_latency(benchmark, save_report):
    """Graph-ANN tier rows: recall@k vs per-round latency as the ``ef`` beam
    widens, with the exact scan as both the recall oracle and the latency
    bar.  The corpus is a seeded clustered unit-sphere mixture (the
    image-embedding regime the tier targets); one graph build serves the
    whole sweep because ``ef`` is a search-time knob."""
    result = benchmark.pedantic(
        lambda: table6_ann_recall_latency(repeats=5),
        rounds=1,
        iterations=1,
    )
    save_report("table6_ann_recall_latency", result.format_text())
    # The acceptance gate, restated from the experiment's own assertion:
    # some swept ef must hold recall@k >= 0.95 *while* beating the exact
    # store's per-round latency — the tier must have a real operating point,
    # not a recall knob that only works at brute-force cost.
    passing = result.passing(min_recall=0.95)
    assert passing, "no ef with recall >= 0.95 under the exact-scan latency"
    best = passing[0]
    assert float(best["speedup_vs_exact"]) > 1.0
    # And the curve must be a curve: recall is monotone non-decreasing in ef
    # (a wider beam never loses candidates on a deterministic descent).
    recalls = [float(row["recall_at_k"]) for row in result.rows]
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:])), (
        f"recall not monotone in ef: {recalls}"
    )


def test_table6_protocol_streaming(benchmark, bundles, save_report):
    """Protocol rows: `/v1` next-batch delivery, chunked NDJSON streaming vs
    single-shot JSON, over real HTTP.  Item parity between the two delivery
    modes is asserted inside the experiment; the gates here are about wire
    behaviour, with generous headroom — these are millisecond-scale localhost
    timings and the win being measured (first paint before the full body
    lands) only grows with batch size and real network latency."""
    result = benchmark.pedantic(
        lambda: table6_protocol_streaming(bundles["bdd"], repeats=5),
        rounds=1,
        iterations=1,
    )
    save_report("table6_protocol_streaming", result.format_text())
    streaming = result.by_mode("ndjson")
    single = result.by_mode("json")
    assert set(streaming) == set(single) and streaming
    largest = max(streaming)
    # Streaming must deliver the first decodable item no later than (a
    # generous multiple of) the single-shot body — the whole point of the
    # NDJSON path is that first paint does not wait for the last byte.
    assert streaming[largest]["first_item_ms"] <= single[largest]["total_ms"] * 1.5, (
        f"streaming first item slower than the whole single-shot body: "
        f"{streaming[largest]['first_item_ms']:.3f}ms vs "
        f"{single[largest]['total_ms']:.3f}ms"
    )
    # And line framing must not make the full batch materially slower.
    assert streaming[largest]["total_ms"] <= single[largest]["total_ms"] * 2.0, (
        f"streaming total regressed vs single-shot: "
        f"{streaming[largest]['total_ms']:.3f}ms vs "
        f"{single[largest]['total_ms']:.3f}ms"
    )


def test_table6_telemetry_overhead(benchmark, bundles, save_report):
    """Observability row: per-round engine latency with tracing spans
    enabled vs disabled (interleaved min-of-repeats)."""
    result = benchmark.pedantic(
        lambda: table6_telemetry_overhead(bundles["bdd"], repeats=5),
        rounds=1,
        iterations=1,
    )
    save_report("table6_telemetry_overhead", result.format_text())
    # Enabled mode actually traced the hot path (score/pool/select spans).
    assert result.spans_recorded > 0
    # The acceptance gate: enabled telemetry costs < 5% per round.  These
    # are sub-millisecond timings, so a small absolute epsilon (50µs)
    # absorbs scheduler jitter that a pure ratio would amplify at this
    # scale without ever letting a real per-span regression through.
    assert result.enabled_ms <= result.disabled_ms * 1.05 + 0.05, (
        f"telemetry overhead above 5%: enabled {result.enabled_ms:.3f}ms vs "
        f"disabled {result.disabled_ms:.3f}ms ({result.overhead_pct:+.1f}%)"
    )
