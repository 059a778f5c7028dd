"""One entry point per table and figure of the paper's evaluation.

Every experiment takes pre-built :class:`~repro.bench.suite.DatasetBundle`
objects plus an :class:`~repro.bench.suite.ExperimentScale`, returns a result
object holding the raw numbers, and can render a paper-style text report.
The benchmark scripts under ``benchmarks/`` are thin wrappers around these
functions; they are also importable for ad-hoc analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.baselines import (
    EnsMethod,
    FewShotClipMethod,
    RocchioMethod,
    ZeroShotClipMethod,
    fit_ideal_vector,
)
from repro.baselines.propagation_search import PropagationMethod
from repro.bench.reporting import format_cdf, format_mean_ap_matrix, format_table
from repro.bench.runner import BenchmarkSettings, SessionOutcome, run_query_set
from repro.bench.suite import DatasetBundle, ExperimentScale
from repro.bench.tasks import BenchmarkQuery
from repro.config import LossWeights, SeeSawConfig
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.embedding.calibration import PlattScaler
from repro.exceptions import BenchmarkError
from repro.metrics.aggregates import (
    HARD_SUBSET_THRESHOLD,
    ApDistribution,
    hard_subset,
    mean_average_precision,
)
from repro.metrics.average_precision import average_precision_full
from repro.users.model import BASELINE_TIMING, SEESAW_TIMING, AnnotationTimeModel
from repro.users.study import StudyQuery, StudyResult, simulate_user_study


def _ap_map(outcomes: Mapping[str, SessionOutcome]) -> "dict[str, float]":
    return {key: outcome.average_precision for key, outcome in outcomes.items()}


def _mean_over(ap: Mapping[str, float], keys: "Sequence[str] | None" = None) -> float:
    if keys is None:
        return mean_average_precision(list(ap.values()))
    return mean_average_precision([ap[key] for key in keys if key in ap])


# ---------------------------------------------------------------------------
# Figure 1 — zero-shot CLIP AP distribution
# ---------------------------------------------------------------------------
@dataclass
class Figure1Result:
    """CDF of zero-shot AP per dataset and the fraction of hard queries."""

    distributions: "dict[str, ApDistribution]"

    def format_text(self) -> str:
        rows = []
        for name, dist in self.distributions.items():
            rows.append(
                [
                    name,
                    len(dist.per_query),
                    dist.mean,
                    dist.median,
                    dist.fraction_below(HARD_SUBSET_THRESHOLD),
                    dist.count_below(HARD_SUBSET_THRESHOLD),
                ]
            )
        return format_table(
            ["dataset", "queries", "mean AP", "median AP", "frac AP<.5", "count AP<.5"],
            rows,
            title="Figure 1: zero-shot CLIP AP distribution per dataset",
        )


def figure1_zero_shot_cdf(
    bundles: Mapping[str, DatasetBundle],
    scale: ExperimentScale,
    settings: "BenchmarkSettings | None" = None,
) -> Figure1Result:
    """Zero-shot CLIP AP per query on the coarse index (Figure 1)."""
    settings = settings or BenchmarkSettings()
    distributions: dict[str, ApDistribution] = {}
    for name, bundle in bundles.items():
        outcomes = run_query_set(
            bundle.coarse_index, ZeroShotClipMethod, bundle.queries(scale), settings
        )
        distributions[name] = ApDistribution(
            dataset=name, method="zero_shot", per_query=_ap_map(outcomes)
        )
    return Figure1Result(distributions=distributions)


# ---------------------------------------------------------------------------
# Figure 4 — ideal query vector vs initial query vector (ObjectNet)
# ---------------------------------------------------------------------------
@dataclass
class Figure4Result:
    """Per-category (initial AP, ideal AP) pairs on the ObjectNet-like dataset."""

    points: "list[tuple[str, float, float]]"

    @property
    def median_initial(self) -> float:
        return float(np.median([p[1] for p in self.points])) if self.points else float("nan")

    @property
    def median_ideal(self) -> float:
        return float(np.median([p[2] for p in self.points])) if self.points else float("nan")

    @property
    def fraction_ideal_perfect(self) -> float:
        """Fraction of categories whose ideal vector reaches AP = 1."""
        if not self.points:
            return float("nan")
        return float(np.mean([p[2] >= 0.999 for p in self.points]))

    def format_text(self) -> str:
        rows = [
            ["median", self.median_initial, self.median_ideal],
            ["fraction ideal AP=1", float("nan"), self.fraction_ideal_perfect],
        ]
        header = format_table(
            ["statistic", "initial query AP", "ideal query AP"],
            rows,
            title="Figure 4: ideal vs initial query vector AP (ObjectNet-like)",
        )
        return header


def figure4_ideal_vs_initial(
    bundle: DatasetBundle,
    scale: ExperimentScale,
    lambda_norm: float = 1.0,
) -> Figure4Result:
    """Fit the per-category best linear query and compare with the text query."""
    index = bundle.coarse_index
    vectors = np.asarray(index.store.vectors)
    image_ids = index.segments.image_ids[index.segments.vector_image_rows].tolist()
    points: list[tuple[str, float, float]] = []
    for query in bundle.queries(scale):
        labels = np.array(
            [
                1.0 if bundle.dataset.is_relevant(image_id, query.category) else 0.0
                for image_id in image_ids
            ]
        )
        if labels.max() == labels.min():
            continue
        text_vector = bundle.embedding.embed_text(query.prompt)
        initial_ap = average_precision_full(vectors @ text_vector, labels)
        ideal_vector = fit_ideal_vector(vectors, labels, lambda_norm=lambda_norm)
        ideal_ap = average_precision_full(vectors @ ideal_vector, labels)
        points.append((query.category, initial_ap, ideal_ap))
    return Figure4Result(points=points)


# ---------------------------------------------------------------------------
# Figure 5 — ΔAP CDF of SeeSaw over zero-shot CLIP
# ---------------------------------------------------------------------------
@dataclass
class Figure5Result:
    """Per-dataset ΔAP (SeeSaw − zero-shot) for all queries and the hard subset."""

    delta_all: "dict[str, dict[str, float]]"
    delta_hard: "dict[str, dict[str, float]]"

    def improvement_fraction(self, dataset: str) -> float:
        """Fraction of queries whose AP improved or stayed the same."""
        values = np.array(list(self.delta_all[dataset].values()))
        return float(np.mean(values >= -1e-9)) if values.size else float("nan")

    def format_text(self) -> str:
        sections = []
        for dataset in self.delta_all:
            sections.append(
                format_cdf(
                    {
                        "all queries": list(self.delta_all[dataset].values()),
                        "hard subset": list(self.delta_hard[dataset].values()),
                    },
                    thresholds=(-0.25, 0.0, 0.25, 0.5, 0.75),
                    title=f"Figure 5 [{dataset}]: CDF of change in AP (SeeSaw - zero-shot)",
                )
            )
            sections.append(
                f"  fraction of queries improving or unchanged: "
                f"{self.improvement_fraction(dataset):.2f}"
            )
        return "\n".join(sections)


def figure5_delta_ap(
    bundles: Mapping[str, DatasetBundle],
    scale: ExperimentScale,
    settings: "BenchmarkSettings | None" = None,
    config: "SeeSawConfig | None" = None,
) -> Figure5Result:
    """ΔAP of full SeeSaw (multiscale) over coarse zero-shot CLIP (Figure 5)."""
    settings = settings or BenchmarkSettings()
    delta_all: dict[str, dict[str, float]] = {}
    delta_hard: dict[str, dict[str, float]] = {}
    for name, bundle in bundles.items():
        queries = bundle.queries(scale)
        zero = _ap_map(
            run_query_set(bundle.coarse_index, ZeroShotClipMethod, queries, settings)
        )
        seesaw_config = config or bundle.config
        seesaw = _ap_map(
            run_query_set(
                bundle.multiscale_index,
                lambda: SeeSawSearchMethod(seesaw_config),
                queries,
                settings,
            )
        )
        deltas = {key: seesaw[key] - zero[key] for key in seesaw}
        hard = set(hard_subset(zero))
        delta_all[name] = deltas
        delta_hard[name] = {key: value for key, value in deltas.items() if key in hard}
    return Figure5Result(delta_all=delta_all, delta_hard=delta_hard)


# ---------------------------------------------------------------------------
# Table 2 — ablation of SeeSaw components
# ---------------------------------------------------------------------------
ABLATION_ROWS = (
    "zero-shot CLIP",
    "+multiscale",
    "+few-shot CLIP",
    "+Query align",
    "+DB align",
)


@dataclass
class Table2Result:
    """mAP per ablation row and dataset, over all queries and the hard subset."""

    all_queries: "dict[str, dict[str, float]]"
    hard_queries: "dict[str, dict[str, float]]"
    datasets: "tuple[str, ...]"

    def format_text(self) -> str:
        return "\n\n".join(
            [
                format_mean_ap_matrix(
                    self.all_queries, self.datasets, title="Table 2 (all queries)"
                ),
                format_mean_ap_matrix(
                    self.hard_queries, self.datasets, title="Table 2 (hard subset)"
                ),
            ]
        )


def table2_ablation(
    bundles: Mapping[str, DatasetBundle],
    scale: ExperimentScale,
    settings: "BenchmarkSettings | None" = None,
) -> Table2Result:
    """Add SeeSaw's components one at a time and record the mAP after each."""
    settings = settings or BenchmarkSettings()
    all_queries: dict[str, dict[str, float]] = {row: {} for row in ABLATION_ROWS}
    hard_queries: dict[str, dict[str, float]] = {row: {} for row in ABLATION_ROWS}
    for name, bundle in bundles.items():
        queries = bundle.queries(scale)
        config = bundle.config
        query_align_config = config.with_overrides(use_db_alignment=False)
        per_row: dict[str, dict[str, float]] = {}
        per_row["zero-shot CLIP"] = _ap_map(
            run_query_set(bundle.coarse_index, ZeroShotClipMethod, queries, settings)
        )
        per_row["+multiscale"] = _ap_map(
            run_query_set(bundle.multiscale_index, ZeroShotClipMethod, queries, settings)
        )
        per_row["+few-shot CLIP"] = _ap_map(
            run_query_set(
                bundle.multiscale_index, lambda: FewShotClipMethod(config), queries, settings
            )
        )
        per_row["+Query align"] = _ap_map(
            run_query_set(
                bundle.multiscale_index,
                lambda: SeeSawSearchMethod(query_align_config),
                queries,
                settings,
            )
        )
        per_row["+DB align"] = _ap_map(
            run_query_set(
                bundle.multiscale_index,
                lambda: SeeSawSearchMethod(config),
                queries,
                settings,
            )
        )
        hard = hard_subset(per_row["zero-shot CLIP"])
        for row in ABLATION_ROWS:
            all_queries[row][name] = _mean_over(per_row[row])
            hard_queries[row][name] = _mean_over(per_row[row], hard)
    return Table2Result(
        all_queries=all_queries,
        hard_queries=hard_queries,
        datasets=tuple(bundles),
    )


# ---------------------------------------------------------------------------
# Table 3 — baseline comparison (no multiscale)
# ---------------------------------------------------------------------------
BASELINE_ROWS = ("zero-shot CLIP", "few-shot CLIP", "ENS", "Rocchio", "this work")


@dataclass
class Table3Result:
    """mAP of every method on the coarse index, all queries and hard subset."""

    all_queries: "dict[str, dict[str, float]]"
    hard_queries: "dict[str, dict[str, float]]"
    datasets: "tuple[str, ...]"

    def format_text(self) -> str:
        return "\n\n".join(
            [
                format_mean_ap_matrix(
                    self.all_queries, self.datasets, title="Table 3 (all queries, no multiscale)"
                ),
                format_mean_ap_matrix(
                    self.hard_queries, self.datasets, title="Table 3 (hard subset, no multiscale)"
                ),
            ]
        )


def table3_baselines(
    bundles: Mapping[str, DatasetBundle],
    scale: ExperimentScale,
    settings: "BenchmarkSettings | None" = None,
) -> Table3Result:
    """Compare SeeSaw with zero-shot, few-shot, ENS, and Rocchio (Table 3)."""
    settings = settings or BenchmarkSettings()
    all_queries: dict[str, dict[str, float]] = {row: {} for row in BASELINE_ROWS}
    hard_queries: dict[str, dict[str, float]] = {row: {} for row in BASELINE_ROWS}
    for name, bundle in bundles.items():
        queries = bundle.queries(scale)
        index = bundle.coarse_index
        config = bundle.config
        horizon = settings.max_images
        per_row = {
            "zero-shot CLIP": _ap_map(
                run_query_set(index, ZeroShotClipMethod, queries, settings)
            ),
            "few-shot CLIP": _ap_map(
                run_query_set(index, lambda: FewShotClipMethod(config), queries, settings)
            ),
            "ENS": _ap_map(
                run_query_set(index, lambda: EnsMethod(horizon=horizon), queries, settings)
            ),
            "Rocchio": _ap_map(run_query_set(index, RocchioMethod, queries, settings)),
            "this work": _ap_map(
                run_query_set(index, lambda: SeeSawSearchMethod(config), queries, settings)
            ),
        }
        hard = hard_subset(per_row["zero-shot CLIP"])
        for row in BASELINE_ROWS:
            all_queries[row][name] = _mean_over(per_row[row])
            hard_queries[row][name] = _mean_over(per_row[row], hard)
    return Table3Result(
        all_queries=all_queries,
        hard_queries=hard_queries,
        datasets=tuple(bundles),
    )


# ---------------------------------------------------------------------------
# Table 4 — ENS sensitivity to horizon and calibration
# ---------------------------------------------------------------------------
@dataclass
class Table4Result:
    """ENS mAP (averaged over datasets) per reward horizon, raw vs calibrated."""

    horizons: "tuple[int, ...]"
    raw: "dict[int, float]"
    calibrated: "dict[int, float]"

    def format_text(self) -> str:
        rows = [
            ["raw gamma_i"] + [self.raw[h] for h in self.horizons],
            ["calibrated gamma_i"] + [self.calibrated[h] for h in self.horizons],
        ]
        return format_table(
            ["gamma source"] + [f"t={h}" for h in self.horizons],
            rows,
            title="Table 4: ENS mAP vs reward horizon and score calibration",
        )


def _calibrator_for_query(
    bundle: DatasetBundle, query: BenchmarkQuery
) -> "PlattScaler":
    """Platt-scale CLIP scores against ground truth (not possible in practice)."""
    index = bundle.coarse_index
    text_vector = bundle.embedding.embed_text(query.prompt)
    scores = np.asarray(index.store.vectors) @ text_vector
    image_ids = index.segments.image_ids[index.segments.vector_image_rows].tolist()
    labels = np.array(
        [
            1.0 if bundle.dataset.is_relevant(image_id, query.category) else 0.0
            for image_id in image_ids
        ]
    )
    return PlattScaler().fit(scores, labels)


def table4_ens_horizon(
    bundles: Mapping[str, DatasetBundle],
    scale: ExperimentScale,
    horizons: Sequence[int] = (1, 2, 10, 60),
    settings: "BenchmarkSettings | None" = None,
) -> Table4Result:
    """ENS accuracy as a function of the reward horizon and calibration."""
    settings = settings or BenchmarkSettings()
    raw: dict[int, list[float]] = {h: [] for h in horizons}
    calibrated: dict[int, list[float]] = {h: [] for h in horizons}
    for bundle in bundles.values():
        queries = bundle.queries(scale)
        index = bundle.coarse_index
        for horizon in horizons:
            raw_outcomes = run_query_set(
                index,
                lambda: EnsMethod(horizon=horizon, shrink_horizon=False),
                queries,
                settings,
            )
            raw[horizon].append(_mean_over(_ap_map(raw_outcomes)))
            calibrated_values: list[float] = []
            for query in queries:
                scaler = _calibrator_for_query(bundle, query)
                method = EnsMethod(
                    horizon=horizon,
                    shrink_horizon=False,
                    gamma_calibrator=scaler.transform,
                )
                outcome = run_query_set(index, lambda: method, [query], settings)
                calibrated_values.append(outcome[query.key].average_precision)
            calibrated[horizon].append(mean_average_precision(calibrated_values))
    return Table4Result(
        horizons=tuple(horizons),
        raw={h: mean_average_precision(raw[h]) for h in horizons},
        calibrated={h: mean_average_precision(calibrated[h]) for h in horizons},
    )


# ---------------------------------------------------------------------------
# Table 5 — user annotation time per image
# ---------------------------------------------------------------------------
@dataclass
class Table5Result:
    """Mean annotation seconds per image, baseline vs SeeSaw UIs."""

    baseline_skip: tuple[float, float]
    baseline_mark: tuple[float, float]
    seesaw_skip: tuple[float, float]
    seesaw_mark: tuple[float, float]

    def format_text(self) -> str:
        rows = [
            ["not marked", *self.baseline_skip, *self.seesaw_skip],
            ["marked relevant", *self.baseline_mark, *self.seesaw_mark],
        ]
        return format_table(
            ["image", "baseline mean", "baseline ±", "seesaw mean", "seesaw ±"],
            rows,
            title="Table 5: annotation time per image (seconds)",
        )


def table5_annotation_time(samples: int = 2000, seed: int = 0) -> Table5Result:
    """Per-image annotation time of the simulated users (Table 5)."""
    baseline = AnnotationTimeModel(BASELINE_TIMING, seed=seed)
    seesaw = AnnotationTimeModel(SEESAW_TIMING, seed=seed + 1)
    return Table5Result(
        baseline_skip=baseline.confidence_interval(False, samples),
        baseline_mark=baseline.confidence_interval(True, samples),
        seesaw_skip=seesaw.confidence_interval(False, samples),
        seesaw_mark=seesaw.confidence_interval(True, samples),
    )


# ---------------------------------------------------------------------------
# Figure 6 — end-to-end time to complete the task
# ---------------------------------------------------------------------------
DEFAULT_STUDY_QUERIES = (
    StudyQuery(category="dog", prompt="a dog", difficulty="hard"),
    StudyQuery(category="wheelchair", prompt="a wheelchair", difficulty="hard"),
    StudyQuery(category="car_with_open_door", prompt="a car with open door", difficulty="hard"),
    StudyQuery(category="car", prompt="a car", difficulty="easy"),
    StudyQuery(category="person", prompt="a person", difficulty="easy"),
    StudyQuery(category="bicycle", prompt="a bicycle", difficulty="easy"),
)


@dataclass
class Figure6Result:
    """Median task-completion times per query and system."""

    results: "list[StudyResult]"

    def format_text(self) -> str:
        rows = []
        for result in self.results:
            rows.append(
                [
                    result.query.difficulty,
                    result.query.category,
                    result.system,
                    result.median_seconds,
                    result.ci_low,
                    result.ci_high,
                    result.completion_rate,
                ]
            )
        return format_table(
            ["difficulty", "query", "system", "median s", "ci low", "ci high", "completed"],
            rows,
            title="Figure 6: time to find 10 examples (360 s budget)",
            float_format="{:.1f}",
        )


def figure6_user_study(
    bundle: DatasetBundle,
    queries: "Sequence[StudyQuery] | None" = None,
    users_per_system: int = 8,
    target_results: int = 10,
    time_budget_seconds: float = 360.0,
    seed: int = 0,
) -> Figure6Result:
    """Simulated end-to-end study on the BDD-like dataset (Figure 6)."""
    available = set(bundle.dataset.category_names)
    chosen = [
        query
        for query in (queries or DEFAULT_STUDY_QUERIES)
        if query.category in available
    ]
    results = simulate_user_study(
        bundle.multiscale_index,
        chosen,
        users_per_system=users_per_system,
        target_results=target_results,
        time_budget_seconds=time_budget_seconds,
        seed=seed,
    )
    return Figure6Result(results=results)


# ---------------------------------------------------------------------------
# Table 6 — per-iteration latency vs database size
# ---------------------------------------------------------------------------
@dataclass
class Table6Result:
    """Mean per-iteration latency (seconds) per method and index."""

    rows: "list[dict[str, object]]"

    def format_text(self) -> str:
        methods = ["CLIP", "ENS", "Rocchio", "SeeSaw", "prop."]
        table_rows = [
            [row["index"], row["vectors"]] + [row.get(method, float("nan")) for method in methods]
            for row in self.rows
        ]
        return format_table(
            ["index", "vectors"] + methods,
            table_rows,
            title="Table 6: per-iteration latency (seconds) vs database size",
            float_format="{:.4f}",
        )


def table6_latency(
    bundles: Mapping[str, DatasetBundle],
    scale: ExperimentScale,
    settings: "BenchmarkSettings | None" = None,
    queries_per_index: int = 3,
) -> Table6Result:
    """Measure per-round latency of each method on coarse and multiscale indexes."""
    settings = settings or BenchmarkSettings()
    rows: list[dict[str, object]] = []
    for name, bundle in bundles.items():
        for multiscale in (False, True):
            if name in ("lvis",) and multiscale:
                # COCO and LVIS share the same image collection in the paper's
                # Table 6, so only one multiscale row is reported for them.
                continue
            index = bundle.index(multiscale)
            queries = bundle.queries(scale)[:queries_per_index]
            if not queries:
                continue
            config = bundle.config
            methods: dict[str, object] = {
                "CLIP": ZeroShotClipMethod,
                "Rocchio": RocchioMethod,
                "SeeSaw": lambda: SeeSawSearchMethod(config),
                "prop.": PropagationMethod,
            }
            if not multiscale:
                methods["ENS"] = lambda: EnsMethod(horizon=settings.max_images)
            row: dict[str, object] = {
                "index": f"{name}{'' if multiscale else '-'}",
                "vectors": index.vector_count,
            }
            for method_name, factory in methods.items():
                outcomes = run_query_set(index, factory, queries, settings)
                row[method_name] = float(
                    np.mean([outcome.seconds_per_round for outcome in outcomes.values()])
                )
            if multiscale:
                row["ENS"] = float("nan")
            rows.append(row)
    rows.sort(key=lambda row: row["vectors"])
    return Table6Result(rows=rows)


# ---------------------------------------------------------------------------
# Table 6 (engine) — legacy object path vs columnar engine, per-round latency
# ---------------------------------------------------------------------------
@dataclass
class EngineLatencyResult:
    """Per-round latency of the legacy object path vs the columnar engine."""

    rows: "list[dict[str, object]]"

    def format_text(self) -> str:
        columns = ["legacy_ms", "engine_ms", "speedup"]
        table_rows = [
            [row["store"], row["vectors"], row["rounds"]] + [row[c] for c in columns]
            for row in self.rows
        ]
        return format_table(
            ["store", "vectors", "rounds"] + columns,
            table_rows,
            title=(
                "Table 6 (engine): per-round next-batch latency, "
                "legacy object path vs columnar engine"
            ),
            float_format="{:.3f}",
        )


def table6_engine_latency(
    bundle: DatasetBundle,
    rounds: int = 10,
    batch_size: int = 10,
    repeats: int = 3,
) -> EngineLatencyResult:
    """Measure what the columnar rewrite bought on the round hot path.

    Both measurements drive the same workload — ``rounds`` batches of
    ``batch_size`` images with the exclusion state growing every round —
    through the preserved legacy implementation
    (:func:`repro.engine.legacy.legacy_top_unseen_images`: exclusion id
    sets, per-hit Python regrouping) and through the
    production engine-backed ``SearchContext`` (persistent ``SeenMask``,
    ``reduceat`` pooling).  The best of ``repeats`` runs is reported to
    damp scheduler noise.
    """
    import time

    from repro.core.indexing import SeeSawIndex
    from repro.core.interfaces import SearchContext
    from repro.engine.legacy import legacy_top_unseen_images
    from repro.vectorstore.forest import RandomProjectionForest

    query = bundle.embedding.embed_text(bundle.queries(ExperimentScale())[0].prompt)
    rows: list[dict[str, object]] = []
    forest_index = SeeSawIndex.build(
        bundle.dataset, bundle.embedding, bundle.config, build_graph=False
    )
    forest_index.replace_store(
        RandomProjectionForest(forest_index.store.vectors, seed=bundle.config.seed)
    )
    for store_kind, index in (
        ("exact", bundle.multiscale_index),
        ("forest", forest_index),
    ):
        total_rounds = min(rounds, max(1, len(index.image_ids) // batch_size))

        def run_legacy() -> float:
            excluded: set[int] = set()
            start = time.perf_counter()
            for _ in range(total_rounds):
                results = legacy_top_unseen_images(index, query, batch_size, excluded)
                excluded |= {result.image_id for result in results}
            return (time.perf_counter() - start) / total_rounds

        def run_engine() -> float:
            context = SearchContext(index)
            excluded: set[int] = set()
            start = time.perf_counter()
            for _ in range(total_rounds):
                results = context.top_unseen_images(query, batch_size, excluded)
                shown = [result.image_id for result in results]
                context.mark_seen(shown)
                excluded |= set(shown)
            return (time.perf_counter() - start) / total_rounds

        legacy_seconds = min(run_legacy() for _ in range(repeats))
        engine_seconds = min(run_engine() for _ in range(repeats))
        rows.append(
            {
                "store": store_kind,
                "vectors": index.vector_count,
                "rounds": total_rounds,
                "legacy_ms": legacy_seconds * 1000.0,
                "engine_ms": engine_seconds * 1000.0,
                "speedup": legacy_seconds / max(engine_seconds, 1e-12),
            }
        )
    return EngineLatencyResult(rows=rows)


# ---------------------------------------------------------------------------
# Table 6 (telemetry) — hot-path overhead of the observability layer
# ---------------------------------------------------------------------------
@dataclass
class TelemetryOverheadResult:
    """Per-round engine latency with tracing enabled vs disabled."""

    rounds: int
    repeats: int
    disabled_ms: float
    enabled_ms: float
    spans_recorded: int

    @property
    def overhead_pct(self) -> float:
        """Relative per-round cost of enabled telemetry, in percent."""
        return (self.enabled_ms / max(self.disabled_ms, 1e-12) - 1.0) * 100.0

    def format_text(self) -> str:
        return format_table(
            ["mode", "per_round_ms", "spans"],
            [
                ["disabled", self.disabled_ms, 0],
                ["enabled", self.enabled_ms, self.spans_recorded],
                ["overhead_pct", self.overhead_pct, ""],
            ],
            title=(
                "Table 6 (telemetry): per-round engine latency, "
                "tracing spans enabled vs disabled"
            ),
            float_format="{:.3f}",
        )


def table6_telemetry_overhead(
    bundle: DatasetBundle,
    rounds: int = 10,
    batch_size: int = 10,
    repeats: int = 5,
) -> TelemetryOverheadResult:
    """Measure what the tracing spans cost on the engine round hot path.

    The same workload as the engine-latency experiment — ``rounds`` batches
    through an engine-backed ``SearchContext`` — run twice per repeat with
    the tracing runtime flipped between runs (interleaved, so drift in
    machine load hits both modes equally).  Disabled mode exercises the
    :data:`~repro.obs.NOOP_SPAN` fast path; enabled mode records every
    score/pool/select span into a private registry.  The best of ``repeats``
    per mode is reported — the CI gate holds the enabled/disabled ratio
    under the acceptance threshold.
    """
    import time

    from repro import obs
    from repro.core.interfaces import SearchContext

    index = bundle.multiscale_index
    query = bundle.embedding.embed_text(bundle.queries(ExperimentScale())[0].prompt)
    total_rounds = min(rounds, max(1, len(index.image_ids) // batch_size))
    registry = obs.MetricsRegistry()
    was_enabled = obs.tracing_enabled()

    def run_rounds() -> float:
        context = SearchContext(index)
        excluded: set[int] = set()
        start = time.perf_counter()
        for _ in range(total_rounds):
            results = context.top_unseen_images(query, batch_size, excluded)
            shown = [result.image_id for result in results]
            context.mark_seen(shown)
            excluded |= set(shown)
        return (time.perf_counter() - start) / total_rounds

    disabled_s = float("inf")
    enabled_s = float("inf")
    try:
        # One warm-up pass outside the timed repeats (first-touch caches).
        obs.configure(enabled=False, registry=registry)
        run_rounds()
        for _ in range(repeats):
            obs.configure(enabled=False, registry=registry)
            disabled_s = min(disabled_s, run_rounds())
            obs.configure(enabled=True, registry=registry)
            enabled_s = min(enabled_s, run_rounds())
    finally:
        obs.configure(enabled=was_enabled, registry=None)

    stage_family = registry.get("seesaw_stage_seconds")
    spans = (
        sum(child.count for _, child in stage_family.collect())
        if stage_family is not None
        else 0
    )
    return TelemetryOverheadResult(
        rounds=total_rounds,
        repeats=repeats,
        disabled_ms=disabled_s * 1000.0,
        enabled_ms=enabled_s * 1000.0,
        spans_recorded=spans,
    )


# ---------------------------------------------------------------------------
# Table 6 (protocol) — `/v1` streaming NDJSON vs single-shot JSON
# ---------------------------------------------------------------------------
@dataclass
class ProtocolStreamingResult:
    """Wire-level latency of `/v1` next-batch delivery, per mode and count."""

    rows: "list[dict[str, object]]"

    def format_text(self) -> str:
        columns = ["count", "mode", "first_item_ms", "total_ms"]
        table_rows = [[row[column] for column in columns] for row in self.rows]
        return format_table(
            columns,
            table_rows,
            title=(
                "Table 6 (protocol): /v1 next-batch delivery, "
                "streaming NDJSON vs single-shot JSON"
            ),
            float_format="{:.3f}",
        )

    def by_mode(self, mode: str) -> "dict[int, dict[str, float]]":
        """``count -> row`` for one delivery mode (gate helper)."""
        return {
            int(row["count"]): {
                "first_item_ms": float(row["first_item_ms"]),
                "total_ms": float(row["total_ms"]),
            }
            for row in self.rows
            if row["mode"] == mode
        }


def table6_protocol_streaming(
    bundle: DatasetBundle,
    counts: Sequence[int] = (8, 32, 128),
    repeats: int = 5,
) -> ProtocolStreamingResult:
    """Measure `/v1` result delivery: chunked NDJSON vs one JSON body.

    Both modes compute the batch identically server-side; the question is
    wire behaviour — how soon the *first* item is decodable client-side
    (what a UI paints) vs the total time for the batch.  Each measurement
    uses a fresh session so every fetch returns exactly ``count`` unseen
    items; item identity between the two modes is asserted, not assumed.
    Timings are min-of-``repeats``.
    """
    import time

    from repro.server import (
        HTTPClient,
        SeeSawApp,
        SeeSawService,
        SessionManager,
        StartSessionRequest,
        serve_in_background,
    )

    query = bundle.queries(ExperimentScale())[0].prompt
    available = len(bundle.dataset.images)
    counts = [count for count in counts if count <= available] or [available]
    service = SeeSawService(bundle.config)
    service.register_dataset(bundle.dataset, bundle.embedding, preprocess=True)
    app = SeeSawApp(SessionManager(service))
    rows: "list[dict[str, object]]" = []
    with serve_in_background(app) as server:
        client = HTTPClient(server.url, client_id="bench-protocol")
        for count in counts:
            reference_ids: "list[int] | None" = None
            for mode in ("json", "ndjson"):
                best_first = float("inf")
                best_total = float("inf")
                for _ in range(repeats):
                    info = client.start_session(
                        StartSessionRequest(
                            dataset=bundle.dataset.name,
                            text_query=query,
                            batch_size=count,
                        )
                    )
                    begin = time.perf_counter()
                    if mode == "json":
                        response = client.next_results(info.session_id)
                        total = time.perf_counter() - begin
                        first = total
                        image_ids = [item.image_id for item in response.items]
                    else:
                        first = float("inf")
                        image_ids = []
                        for item in client.stream_next_results(info.session_id):
                            if not image_ids:
                                first = time.perf_counter() - begin
                            image_ids.append(item.image_id)
                        total = time.perf_counter() - begin
                    client.close_session(info.session_id)
                    if reference_ids is None:
                        reference_ids = image_ids
                    elif image_ids != reference_ids:
                        raise BenchmarkError(
                            f"Delivery modes disagree at count={count}: "
                            f"{mode} returned different items"
                        )
                    best_first = min(best_first, first)
                    best_total = min(best_total, total)
                rows.append(
                    {
                        "count": count,
                        "mode": mode,
                        "first_item_ms": best_first * 1000.0,
                        "total_ms": best_total * 1000.0,
                    }
                )
        client.close()
    return ProtocolStreamingResult(rows=rows)


# ---------------------------------------------------------------------------
# Table 6 (sharded) — the scaling layer's latency profile
# ---------------------------------------------------------------------------
@dataclass
class ShardedLatencyResult:
    """Bulk-scoring latency of the flat store and its sharded wrapper."""

    rows: "list[dict[str, object]]"

    def format_text(self) -> str:
        columns = ["mode", "shards", "per_round_ms"]
        table_rows = [[row[column] for column in columns] for row in self.rows]
        return format_table(
            columns,
            table_rows,
            title="Table 6 (sharded): per-round bulk-scoring latency vs shard count",
            float_format="{:.3f}",
        )


def table6_sharded_latency(
    bundle: DatasetBundle,
    shard_count: int = 4,
    rounds: int = 6,
    repeats: int = 3,
) -> ShardedLatencyResult:
    """Measure what sharding costs or buys on the round's scoring call.

    One ``score_all`` row each for the flat exact store and its
    ``shard_count``-way sharded wrapper (whose results are bit-identical;
    the property suite pins that, this measures it).  The shared bundle
    index is never mutated: the sharded path runs on an engine built over a
    wrapped copy of its store.
    """
    import time

    from repro.engine import QueryEngine
    from repro.vectorstore.sharded import ShardedVectorStore

    index = bundle.multiscale_index
    flat_engine = QueryEngine(index.store, index.segments)
    sharded_engine = QueryEngine(
        ShardedVectorStore.wrap(
            index.store, index.segments.vector_image_rows, shard_count
        ),
        index.segments,
    )
    probe = bundle.embedding.embed_text(bundle.queries(ExperimentScale())[0].prompt)

    rows: "list[dict[str, object]]" = []
    for label, engine, shards in (("flat", flat_engine, 1), ("sharded", sharded_engine, shard_count)):
        def run_score_all(engine=engine) -> float:
            start = time.perf_counter()
            for _ in range(rounds):
                engine.score_all_images(probe)
            return (time.perf_counter() - start) / rounds
        rows.append(
            {
                "mode": f"score_all/{label}",
                "shards": shards,
                "per_round_ms": min(run_score_all() for _ in range(repeats)) * 1000.0,
            }
        )
    return ShardedLatencyResult(rows=rows)


# ---------------------------------------------------------------------------
# Table 6 (dtype/quantized/mmap) — the storage & compute tier profile
# ---------------------------------------------------------------------------
@dataclass
class DtypeThroughputResult:
    """Per-round scoring latency per compute tier, and the cold-load latency
    of the memory-mapped index entry."""

    scoring_rows: "list[dict[str, object]]"
    load_rows: "list[dict[str, object]]"

    def format_text(self) -> str:
        columns = ["tier", "vectors", "per_round_ms", "speedup_vs_f64", "stream_mb"]
        scoring = format_table(
            columns,
            [[row[column] for column in columns] for row in self.scoring_rows],
            title=(
                "Table 6 (dtype): per-round top-k scoring latency by compute "
                "tier (stream_mb = matrix bytes the candidate pass reads)"
            ),
            float_format="{:.3f}",
        )
        load_columns = ["layout", "vectors", "cold_load_ms"]
        loads = format_table(
            load_columns,
            [[row[column] for column in load_columns] for row in self.load_rows],
            title=(
                "Table 6 (index load): cold index load latency, raw npy "
                "with mmap"
            ),
            float_format="{:.3f}",
        )
        return scoring + "\n\n" + loads

    def scoring_ms(self) -> "dict[str, float]":
        """``tier -> per_round_ms`` (gate helper)."""
        return {
            str(row["tier"]): float(row["per_round_ms"]) for row in self.scoring_rows
        }


def table6_dtype_throughput(
    bundle: DatasetBundle,
    vector_count: int = 16384,
    dim: int = 128,
    k: int = 10,
    query_count: int = 8,
    repeats: int = 5,
    load_repeats: int = 3,
    cache_dir: "str | None" = None,
) -> DtypeThroughputResult:
    """Measure what the storage & compute tiers buy, and what they cost.

    **Scoring rows** run the per-round top-k (``search_arrays``) over one
    seeded random unit-vector corpus through three tiers:

    * ``float64`` — the bit-parity reference scan;
    * ``float32`` — same scan at half the bytes per score (the expected ~2x
      bandwidth win this experiment gates in CI);
    * ``int8+rerank`` — the quantized candidate pass (int32-accumulated
      int8 GEMM, an 8x reduction in matrix bytes streamed) plus the exact
      float32 re-rank of ``rerank_factor * k`` candidates.  NumPy has no
      vectorised int8 GEMM kernel, so this tier trades CPU time for the
      smaller scoring working set — ``stream_mb`` is the honest column to
      compare; its top-k is pinned equal to the exact store's.

    **The load row** serializes the bundle's real multiscale index and
    times a cold :func:`~repro.store.serialize.load_index` memory-mapping
    the raw ``.npy`` artifacts (no copy; the load's validation pass streams
    the pages through the OS page cache).
    """
    import tempfile
    import time
    from pathlib import Path

    from repro.store.serialize import load_index, save_index
    from repro.vectorstore.exact import ExactVectorStore
    from repro.vectorstore.quantized import QuantizedVectorStore

    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((vector_count, dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    queries = rng.standard_normal((query_count, dim))
    stores = {
        "float64": ExactVectorStore(matrix),
        "float32": ExactVectorStore(matrix, compute_dtype="float32"),
        "int8+rerank": QuantizedVectorStore(matrix, compute_dtype="float32"),
    }
    stream_bytes = {
        "float64": vector_count * dim * 8,
        "float32": vector_count * dim * 4,
        # codes + the re-ranked candidate rows in float32
        "int8+rerank": vector_count * dim
        + stores["int8+rerank"].rerank_factor * k * dim * 4,
    }

    def run(store) -> float:
        start = time.perf_counter()
        for query in queries:
            store.search_arrays(query, k=k)
        return (time.perf_counter() - start) / query_count

    scoring_rows: "list[dict[str, object]]" = []
    baseline_ms = None
    for tier, store in stores.items():
        seconds = min(run(store) for _ in range(repeats))
        per_round_ms = seconds * 1000.0
        if baseline_ms is None:
            baseline_ms = per_round_ms
        scoring_rows.append(
            {
                "tier": tier,
                "vectors": vector_count,
                "per_round_ms": per_round_ms,
                "speedup_vs_f64": baseline_ms / max(per_round_ms, 1e-12),
                "stream_mb": stream_bytes[tier] / 1e6,
            }
        )
    # The quantized tier's contract rides along: recall@k = 1.0 against the
    # exact scan *in the same compute dtype* (the contract the property
    # suite states; comparing id sets, not ordering, keeps the gate immune
    # to last-bit kernel-rounding flips at the k-th boundary).
    for query in queries:
        exact_ids, _ = stores["float32"].search_arrays(query, k=k)
        quant_ids, _ = stores["int8+rerank"].search_arrays(query, k=k)
        assert set(quant_ids.tolist()) == set(exact_ids.tolist()), (
            "quantized tier lost recall on the benchmark corpus"
        )

    index = bundle.multiscale_index
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        entry = save_index(index, Path(scratch) / "npy-mmap")

        def run_load() -> float:
            start = time.perf_counter()
            load_index(entry, bundle.dataset, bundle.embedding, mmap=True)
            return time.perf_counter() - start

        cold_ms = min(run_load() for _ in range(load_repeats)) * 1000.0
    load_rows: "list[dict[str, object]]" = [
        {"layout": "npy-mmap", "vectors": index.vector_count, "cold_load_ms": cold_ms}
    ]
    return DtypeThroughputResult(scoring_rows=scoring_rows, load_rows=load_rows)


@dataclass
class AnnRecallLatencyResult:
    """Recall-vs-latency curve of the graph-ANN tier against the exact oracle."""

    rows: "list[dict[str, object]]"
    exact_ms: float
    vector_count: int
    k: int
    build_seconds: float

    def format_text(self) -> str:
        columns = [
            "ef",
            "recall_at_k",
            "per_round_ms",
            "speedup_vs_exact",
            "hops",
            "visited",
        ]
        body = [[row[column] for column in columns] for row in self.rows]
        body.append(["exact", 1.0, self.exact_ms, 1.0, "-", self.vector_count])
        return format_table(
            columns,
            body,
            title=(
                f"Table 6 (graph ANN): recall@{self.k} vs per-round latency, "
                f"greedy graph descent over {self.vector_count} vectors "
                f"(graph build {self.build_seconds:.1f}s; exact scan "
                f"{self.exact_ms:.3f}ms is the oracle and the latency bar)"
            ),
            float_format="{:.3f}",
        )

    def by_ef(self) -> "dict[int, dict[str, object]]":
        """``ef -> row`` (gate helper)."""
        return {int(row["ef"]): row for row in self.rows}

    def passing(self, min_recall: float = 0.95) -> "list[dict[str, object]]":
        """Rows meeting the tier's contract: recall and a latency win."""
        return [
            row
            for row in self.rows
            if float(row["recall_at_k"]) >= min_recall
            and float(row["per_round_ms"]) < self.exact_ms
        ]


def table6_ann_recall_latency(
    vector_count: int = 16384,
    dim: int = 128,
    cluster_count: int = 96,
    cluster_noise: float = 0.15,
    k: int = 10,
    query_count: int = 16,
    ef_values: "Sequence[int]" = (8, 16, 32, 64, 128),
    graph_degree: int = 16,
    repeats: int = 5,
    min_recall: float = 0.95,
    seed: int = 6,
) -> AnnRecallLatencyResult:
    """Sweep the graph-ANN tier's ``ef`` beam against the exact oracle.

    The corpus is a seeded mixture of Gaussians on the unit sphere —
    clustered the way real image embeddings are (CLIP-style encoders map a
    dataset's categories to tight directional clusters), which is the regime
    the navigable-graph tier is built for; queries are perturbed cluster
    centers, the benchmark's stand-in for text/seen-image query vectors.

    One :class:`~repro.vectorstore.graph.GraphANNVectorStore` is built at
    ``graph_degree`` (from the exact chunked kNN scan) and swept through
    ``ef_values`` via the search-time override — ``ef`` is a runtime knob,
    so one build serves the whole curve, exactly as one cached index serves
    any configured ``ann_ef``.  Latency is min-of-``repeats`` per-round
    ``search_arrays`` time; recall@k counts id overlap with the exact
    store's top-k (the oracle).  The in-experiment assertion is the tier's
    contract: some swept ``ef`` must reach ``min_recall`` while beating the
    exact scan's per-round latency — otherwise the tier has no operating
    point and the experiment (and the CI gate on it) fails.
    """
    import time

    from repro.vectorstore.exact import ExactVectorStore
    from repro.vectorstore.graph import GraphANNVectorStore

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((cluster_count, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignment = rng.integers(0, cluster_count, vector_count)
    matrix = centers[assignment] + cluster_noise * rng.standard_normal(
        (vector_count, dim)
    )
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    queries = centers[
        rng.integers(0, cluster_count, query_count)
    ] + 0.8 * cluster_noise * rng.standard_normal((query_count, dim))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)

    build_start = time.perf_counter()
    graph = GraphANNVectorStore(
        matrix,
        graph_degree=graph_degree,
        ef=max(ef_values),
        compute_dtype="float32",
    )
    build_seconds = time.perf_counter() - build_start
    exact = ExactVectorStore(matrix, compute_dtype="float32")

    def run(search) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for query in queries:
                search(query)
            best = min(best, (time.perf_counter() - start) / query_count)
        return best * 1000.0

    exact_ms = run(lambda query: exact.search_arrays(query, k=k))
    oracle = [set(exact.search_arrays(query, k=k)[0].tolist()) for query in queries]

    rows: "list[dict[str, object]]" = []
    for ef in ef_values:
        per_round_ms = run(lambda query: graph.search_arrays(query, k=k, ef=ef))
        recalls = []
        hops = visited = 0
        for query, truth in zip(queries, oracle):
            ids, _ = graph.search_arrays(query, k=k, ef=ef)
            recalls.append(len(truth & set(ids.tolist())) / len(truth))
            stats = graph.last_search_stats
            hops += stats["hops"]
            visited += stats["visited"]
        rows.append(
            {
                "ef": int(ef),
                "recall_at_k": float(np.mean(recalls)),
                "per_round_ms": per_round_ms,
                "speedup_vs_exact": exact_ms / max(per_round_ms, 1e-12),
                "hops": hops // query_count,
                "visited": visited // query_count,
            }
        )

    result = AnnRecallLatencyResult(
        rows=rows,
        exact_ms=exact_ms,
        vector_count=vector_count,
        k=k,
        build_seconds=build_seconds,
    )
    assert result.passing(min_recall), (
        f"graph-ANN tier has no operating point: no swept ef reached "
        f"recall@{k} >= {min_recall} under the exact scan's {exact_ms:.3f}ms"
    )
    return result


# ---------------------------------------------------------------------------
# Table 7 — hyperparameter sensitivity
# ---------------------------------------------------------------------------
# The paper sweeps lambda_c in {3, 10, 30}, lambda_D in {300, 1000, 3000} and
# lambda in {30, 100, 300} around its defaults (10, 1000, 100).  This grid is
# the same sweep — one order of magnitude in every direction, same ratios —
# around this reproduction's rescaled defaults (1, 30, 1); see LossWeights.
DEFAULT_HYPERPARAMETER_GRID = (
    (0.3, 10.0, 1.0),
    (0.3, 30.0, 1.0),
    (0.3, 100.0, 1.0),
    (1.0, 10.0, 1.0),
    (1.0, 30.0, 0.3),
    (1.0, 30.0, 1.0),
    (1.0, 30.0, 3.0),
    (1.0, 100.0, 1.0),
    (3.0, 10.0, 1.0),
    (3.0, 30.0, 1.0),
    (3.0, 100.0, 1.0),
)


@dataclass
class Table7Result:
    """SeeSaw mAP per (lambda_c, lambda_D, lambda) setting and dataset."""

    grid: "list[tuple[float, float, float]]"
    results: "dict[tuple[float, float, float], dict[str, float]]"
    datasets: "tuple[str, ...]"

    def format_text(self) -> str:
        rows = []
        for setting in self.grid:
            per_dataset = self.results[setting]
            values = [per_dataset.get(name, float("nan")) for name in self.datasets]
            finite = [v for v in values if not np.isnan(v)]
            avg = float(np.mean(finite)) if finite else float("nan")
            rows.append(list(setting) + values + [avg])
        return format_table(
            ["lambda_c", "lambda_D", "lambda"] + list(self.datasets) + ["avg."],
            rows,
            title="Table 7: SeeSaw mAP under different hyperparameter settings",
        )


def table7_hyperparameters(
    bundles: Mapping[str, DatasetBundle],
    scale: ExperimentScale,
    grid: Sequence[tuple[float, float, float]] = DEFAULT_HYPERPARAMETER_GRID,
    settings: "BenchmarkSettings | None" = None,
) -> Table7Result:
    """Sweep (lambda_c, lambda_D, lambda) and record SeeSaw's mAP (Table 7)."""
    settings = settings or BenchmarkSettings()
    results: dict[tuple[float, float, float], dict[str, float]] = {}
    for setting in grid:
        lambda_clip, lambda_db, lambda_norm = setting
        per_dataset: dict[str, float] = {}
        for name, bundle in bundles.items():
            config = bundle.config.with_overrides(
                loss=LossWeights(
                    lambda_norm=lambda_norm,
                    lambda_clip=lambda_clip,
                    lambda_db=lambda_db,
                )
            )
            outcomes = run_query_set(
                bundle.multiscale_index,
                lambda: SeeSawSearchMethod(config),
                bundle.queries(scale),
                settings,
            )
            per_dataset[name] = _mean_over(_ap_map(outcomes))
        results[tuple(setting)] = per_dataset
    return Table7Result(
        grid=[tuple(s) for s in grid], results=results, datasets=tuple(bundles)
    )
