"""Configuration dataclasses for the SeeSaw reproduction.

The defaults follow the hyperparameters reported in the paper (§5.2) —
``k=10`` neighbours for the kNN graph, the benchmark task cutoffs of 10
relevant results within 60 inspected images (§5.1) — with two documented
adaptations for the synthetic embedding substrate: the loss weights are
rescaled (see :class:`LossWeights`) and the kernel bandwidth has an adaptive
floor (see :class:`KnnGraphConfig`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive, check_probability

RETIRED_FIELDS = frozenset(
    {
        "batch_window_ms",
        "optimizer.wolfe_c2",
        "knn.use_nn_descent",
        "knn.nn_descent_iterations",
        "knn.nn_descent_sample_rate",
        "overload_ef_floor",
        "retry_max_attempts",
        "retry_base_ms",
        "retry_max_ms",
        "breaker_failure_threshold",
        "breaker_reset_s",
        "optimizer.history_size",
        "optimizer.initial_step",
        "optimizer.wolfe_c1",
        "optimizer.max_line_search_steps",
        "faults",
    }
)
"""Config fields that no longer exist, as ``name`` or ``section.name``.
:meth:`SeeSawConfig.from_dict` drops them: index-cache entries persist the
config they were built with, and the cache key leaves runtime knobs out, so
an entry written before a field was removed must still load."""


@dataclass(frozen=True)
class LossWeights:
    """Weights of the four terms of the SeeSaw loss (Equation 5 / Table 1).

    The paper reports ``lambda = 100``, ``lambda_c = 10``, ``lambda_D = 1000``
    for CLIP's 512-dimensional embedding and its feedback-set sizes.  The
    loss's data term is a *sum* over feedback examples while the two
    alignment terms are scale-free, so the useful absolute values depend on
    the embedding geometry and on how many patch labels a round produces.
    The defaults here are the same three weights rescaled for the synthetic
    embedding shipped with this reproduction (each divided by roughly two
    orders of magnitude, preserving their ratios); Table 7's sweep covers an
    order of magnitude around them, as the paper's does around its values.
    """

    lambda_norm: float = 1.0
    lambda_clip: float = 1.0
    lambda_db: float = 30.0

    def __post_init__(self) -> None:
        check_positive("lambda_norm", self.lambda_norm, allow_zero=True)
        check_positive("lambda_clip", self.lambda_clip, allow_zero=True)
        check_positive("lambda_db", self.lambda_db, allow_zero=True)


@dataclass(frozen=True)
class KnnGraphConfig:
    """kNN-graph construction parameters used for DB alignment and ENS."""

    k: int = 10
    sigma: float = 0.05
    adaptive_sigma: bool = True
    """When true, the kernel bandwidth is max(sigma, median neighbour
    distance).  The paper's sigma=.05 is tuned to CLIP's embedding geometry;
    the adaptive floor keeps the Gaussian kernel informative for embeddings
    with different typical neighbour distances (such as the synthetic one)."""

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        check_positive("sigma", self.sigma)


@dataclass(frozen=True)
class MultiscaleConfig:
    """Multiscale patch-tiling configuration (§4.3).

    The paper uses the coarse full-image patch plus a tiling of patches half
    the image size, strided by half a patch, as long as patches stay at least
    ``min_patch_pixels`` on a side (224 px for CLIP).
    """

    enabled: bool = True
    min_patch_pixels: int = 224
    patch_fraction: float = 0.5
    stride_fraction: float = 0.5

    def __post_init__(self) -> None:
        check_positive("min_patch_pixels", self.min_patch_pixels)
        check_probability("patch_fraction", self.patch_fraction)
        check_probability("stride_fraction", self.stride_fraction)
        if self.patch_fraction == 0 or self.stride_fraction == 0:
            raise ConfigurationError("patch_fraction and stride_fraction must be > 0")


@dataclass(frozen=True)
class OptimizerConfig:
    """L-BFGS settings used when minimising the SeeSaw loss (§4.4)."""

    max_iterations: int = 50
    gradient_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        check_positive("gradient_tolerance", self.gradient_tolerance)


@dataclass(frozen=True)
class BenchmarkTaskConfig:
    """The benchmark task of §5.1: find ``target_results`` within ``max_images``."""

    target_results: int = 10
    max_images: int = 60
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.target_results < 1:
            raise ConfigurationError("target_results must be >= 1")
        if self.max_images < self.target_results:
            raise ConfigurationError("max_images must be >= target_results")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability knobs: tracing spans, slow-request log, series bounds.

    Governs the :mod:`repro.obs` layer.  Runtime-only by construction —
    none of these fields change what gets built, so (like ``n_shards``)
    the section is excluded from the index-cache key.
    """

    enabled: bool = True
    """Master switch for hot-path tracing spans.  ``False`` drops
    ``trace_span`` to a shared no-op singleton (no span allocation, no
    clock reads); request counters and access logs stay on — only the
    per-stage instrumentation is elided."""
    slow_request_ms: float = 0.0
    """Requests slower than this threshold (milliseconds) emit a structured
    warning on the ``repro.server.slow`` logger with the per-stage span
    breakdown attached.  ``0`` disables the slow-request log."""
    max_series_per_metric: int = 64
    """Label-cardinality bound per metric family: past this many distinct
    label sets, new label values collapse into one ``_overflow`` series so
    a mislabelled caller cannot grow the registry without bound."""

    def __post_init__(self) -> None:
        if self.slow_request_ms < 0:
            raise ConfigurationError(
                f"slow_request_ms must be >= 0, got {self.slow_request_ms}"
            )
        if self.max_series_per_metric < 1:
            raise ConfigurationError(
                f"max_series_per_metric must be >= 1, got "
                f"{self.max_series_per_metric}"
            )


@dataclass(frozen=True)
class SeeSawConfig:
    """Top-level configuration combining every tunable piece of SeeSaw."""

    embedding_dim: int = 128
    loss: LossWeights = field(default_factory=LossWeights)
    knn: KnnGraphConfig = field(default_factory=KnnGraphConfig)
    multiscale: MultiscaleConfig = field(default_factory=MultiscaleConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    task: BenchmarkTaskConfig = field(default_factory=BenchmarkTaskConfig)
    use_clip_alignment: bool = True
    use_db_alignment: bool = True
    fit_bias: bool = False
    seed: int = 0
    index_cache_dir: "str | None" = None
    """When set, built indexes are persisted under this directory (keyed by a
    content hash of dataset + embedding + config) and loaded back on the next
    start instead of being re-embedded.  See :mod:`repro.store`."""
    n_shards: int = 1
    """Number of image-aligned shards the service partitions each index's
    vector store into (``repro.vectorstore.sharded``).  Shards score on a
    thread pool (NumPy kernels release the GIL) and merge into an exact,
    bit-identical global top-k; ``1`` keeps the flat store.  A runtime
    topology knob: it does not change what gets built, so it is excluded
    from the index-cache key and can vary per deployment."""
    compute_dtype: str = "float64"
    """Floating dtype of the scoring hot path (store matrix, engine scores).
    ``"float64"`` is the bit-parity default every equivalence property in the
    test suite is stated against; ``"float32"`` halves the bytes per score —
    memory footprint and GEMM bandwidth both — at ~1e-7 relative rounding.
    The stored vectors are written to disk in this dtype, so it is part of
    the index-cache key (a float32 index is a different on-disk artifact)."""
    quantized_store: bool = False
    """When true, exhaustive stores are wrapped in an int8
    :class:`~repro.vectorstore.quantized.QuantizedVectorStore` tier after
    load/build: candidates are scored through a symmetric per-row int8
    matrix with int32 accumulation (an 8x bandwidth reduction over float64),
    then the top ``quantized_rerank_factor * k`` are re-ranked exactly in the
    compute dtype.  A runtime tier like ``n_shards`` — derived from the flat
    vectors at load time, so it is excluded from the index-cache key."""
    quantized_rerank_factor: int = 4
    """Candidate over-fetch multiplier of the quantized tier: the int8 pass
    keeps ``rerank_factor * k`` candidates for the exact re-rank.  At the
    default the re-ranked top-k is empirically identical to the exact
    store's top-k (recall@k = 1.0 on the contract-suite indexes)."""
    ann_search: bool = False
    """When true, exhaustive stores are replaced after load/build by a
    :class:`~repro.vectorstore.graph.GraphANNVectorStore`: a navigable
    proximity graph (the exact kNN graph, symmetrised, with long-range
    entry links) searched by greedy best-first descent with an ``ann_ef``
    candidate beam, then exact compute-dtype re-ranking of the beam — per-
    query cost scales with the beam and hop count, not with the corpus.
    Like ``quantized_store`` this is a runtime tier derived from the flat
    vectors at load time, so it is excluded from the index-cache key; when
    both are requested the graph tier wins (it consumes the exhaustive
    store first).  Trade-off: results are approximate (recall@k >= 0.95
    gated by the ``table6_ann_recall_latency`` benchmark at the default
    knobs)."""
    ann_ef: int = 64
    """Beam width of the graph-ANN descent: the candidate heap keeps the
    best ``max(ann_ef, k)`` nodes and the walk stops when no frontier node
    can improve them; the beam is then re-ranked exactly.  Larger values
    trade latency for recall.  A runtime search knob — it changes no built
    artifact, so it is excluded from the index-cache key."""
    ann_graph_degree: int = 16
    """Neighbours per node in the kNN graph the ANN tier symmetrises into
    its adjacency.  Higher degrees make descent more robust (better recall
    at a given ``ann_ef``) at more memory and build time.  The adjacency
    is rebuilt from the vectors whenever the tier is applied, so the knob
    is excluded from the index-cache key."""
    rate_limit_rps: float = 0.0
    """Sustained per-client request budget (requests/second) enforced by the
    session manager's token buckets.  Clients are keyed by the
    ``X-Client-Id`` header when present, else by remote address; a drained
    bucket returns the structured 429 envelope (``code="rate_limited"``,
    ``retryable=true``).  ``0`` disables rate limiting (the default — the
    contract and load suites drive the service far faster than any sane
    production budget)."""
    rate_limit_burst: int = 20
    """Bucket capacity of the rate limiter: how many requests a client may
    issue back-to-back before the sustained ``rate_limit_rps`` applies.
    Ignored when rate limiting is disabled."""
    mmap_index: bool = True
    """Load index-cache arrays with ``mmap_mode="r"`` (zero-copy, page-cache
    backed).  Cold starts then map the ``.npy`` artifacts instead of reading
    them into a private copy: one sequential validation pass reads the pages
    (free when the OS page cache is warm, e.g. on a service restart), and
    the mapped memory stays evictable and shared across processes.  Runtime
    knob, excluded from the cache key."""
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    """Observability section (:mod:`repro.obs`): span tracing switch,
    slow-request log threshold, metric-series cardinality bound.  Runtime
    knobs only — excluded from the index-cache key."""
    request_deadline_ms: float = 0.0
    """Default per-request budget (milliseconds) the server applies when a
    request carries no ``X-Deadline-Ms`` header.  Once the budget runs out
    the request fails with the typed 504 (``code="deadline_exceeded"``)
    instead of burning a session lock and engine dispatch on an answer
    nobody is waiting for.  ``0`` applies no default — only client-sent
    deadlines are enforced.  Runtime knob, excluded from the cache key."""
    max_in_flight: int = 0
    """Admission-control bound: the maximum number of requests the service
    processes concurrently before the app sheds new arrivals with a 503 and
    a ``Retry-After`` hint — a cheap rejection *before* queueing collapse
    rather than an expensive timeout after it.  ``0`` disables shedding.
    Runtime knob, excluded from the cache key."""
    drain_timeout_s: float = 10.0
    """Graceful-drain budget: on SIGTERM/``shutdown()`` the server flips
    ``/healthz`` to ``draining``, rejects new sessions with a typed 503,
    and gives in-flight work this long to finish before closing."""
    live_datasets: bool = False
    """Enable the mutable dataset tier (:mod:`repro.live`): the
    ``/v1/datasets`` upsert/delete/merge routes, the writable delta segment
    over each sealed base index, and background compaction.  Off (the
    default) every registered dataset stays the immutable build-once
    artifact and mutation requests fail with a typed 400.  Runtime knob,
    excluded from the cache key (delta state is never part of a sealed
    artifact)."""
    delta_max_rows: int = 4096
    """Hard ceiling on the writable delta segment's row count.  A mutation
    that would push the live view past this many unsealed vectors triggers
    a background merge; mutations arriving while the delta is full and a
    merge is still running are rejected with a retryable 503 — bounded
    memory beats unbounded ingest.  Runtime knob, excluded from the cache
    key."""
    merge_trigger_ratio: float = 0.25
    """Background-merge trigger as a fraction of the sealed base segment:
    once ``delta rows >= merge_trigger_ratio * base rows`` the
    :class:`~repro.live.merger.SegmentMerger` schedules a compaction off
    the request path.  ``delta_max_rows`` still applies as the absolute
    bound for small bases.  Runtime knob, excluded from the cache key."""

    def __post_init__(self) -> None:
        if self.embedding_dim < 2:
            raise ConfigurationError("embedding_dim must be >= 2")
        if self.n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.compute_dtype not in ("float64", "float32"):
            raise ConfigurationError(
                f"compute_dtype must be 'float64' or 'float32', got "
                f"'{self.compute_dtype}'"
            )
        if self.quantized_rerank_factor < 1:
            raise ConfigurationError(
                f"quantized_rerank_factor must be >= 1, got "
                f"{self.quantized_rerank_factor}"
            )
        if self.ann_ef < 1:
            raise ConfigurationError(f"ann_ef must be >= 1, got {self.ann_ef}")
        if self.ann_graph_degree < 2:
            raise ConfigurationError(
                f"ann_graph_degree must be >= 2, got {self.ann_graph_degree}"
            )
        if self.rate_limit_rps < 0:
            raise ConfigurationError(
                f"rate_limit_rps must be >= 0, got {self.rate_limit_rps}"
            )
        if self.rate_limit_burst < 1:
            raise ConfigurationError(
                f"rate_limit_burst must be >= 1, got {self.rate_limit_burst}"
            )
        if self.request_deadline_ms < 0:
            raise ConfigurationError(
                f"request_deadline_ms must be >= 0, got {self.request_deadline_ms}"
            )
        if self.max_in_flight < 0:
            raise ConfigurationError(
                f"max_in_flight must be >= 0, got {self.max_in_flight}"
            )
        if self.drain_timeout_s < 0:
            raise ConfigurationError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        if self.delta_max_rows < 1:
            raise ConfigurationError(
                f"delta_max_rows must be >= 1, got {self.delta_max_rows}"
            )
        if self.merge_trigger_ratio <= 0:
            raise ConfigurationError(
                f"merge_trigger_ratio must be > 0, got {self.merge_trigger_ratio}"
            )

    def with_overrides(self, **overrides: Any) -> "SeeSawConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **overrides)

    def to_dict(self) -> "dict[str, Any]":
        """Full JSON-serializable representation (nested sections included)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SeeSawConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Keys named in :data:`RETIRED_FIELDS` are dropped, so configs written
        before a field was removed still load; any other unknown key raises
        :class:`ConfigurationError` naming it.
        """
        sections: dict[str, type] = {
            "loss": LossWeights,
            "knn": KnnGraphConfig,
            "multiscale": MultiscaleConfig,
            "optimizer": OptimizerConfig,
            "task": BenchmarkTaskConfig,
            "telemetry": TelemetryConfig,
        }
        kwargs = _known_fields(cls, data)
        for key, value in kwargs.items():
            if key in sections and isinstance(value, Mapping):
                section = sections[key]
                kwargs[key] = section(**_known_fields(section, value, f"{key}."))
        return cls(**kwargs)


def _known_fields(
    cls: type, data: Mapping[str, Any], prefix: str = ""
) -> "dict[str, Any]":
    """``data`` without its retired keys; an unknown key raises."""
    names = {item.name for item in fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if prefix + key in RETIRED_FIELDS:
            continue
        if key not in names:
            raise ConfigurationError(f"Unknown config field '{prefix}{key}'")
        kwargs[key] = value
    return kwargs


PAPER_DEFAULT_CONFIG = SeeSawConfig()
"""The configuration matching the paper's reported hyperparameters (§5.2)."""
