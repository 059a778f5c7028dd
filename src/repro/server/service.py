"""SeeSawService: dataset registry and session lifecycle.

This is the in-process equivalent of the paper's server layer: it owns the
preprocessed indexes for any number of datasets and exposes a small API the
UI (or an example script, or a test) drives: start a session, fetch the next
batch, submit feedback.
"""

from __future__ import annotations

import itertools
import os
import threading

from repro import obs
from repro.config import MultiscaleConfig, SeeSawConfig
from repro.core.indexing import SeeSawIndex
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession, SessionStats
from repro.data.dataset import ImageDataset
from repro.data.geometry import BoundingBox
from repro.embedding.base import EmbeddingModel
from repro.exceptions import SessionError, UnknownResourceError
from repro.live.delta import DeltaVectorStore
from repro.live.registry import DatasetRegistry
from repro.server.api import (
    BoxPayload,
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    StartSessionRequest,
)
from repro.store.cache import IndexCache
from repro.utils.memory import freeze_heap_thresholds, release_free_heap
from repro.vectorstore.graph import GraphANNVectorStore
from repro.vectorstore.quantized import QuantizedVectorStore
from repro.vectorstore.sharded import ShardedVectorStore


class SeeSawService:
    """Owns dataset indexes and live search sessions."""

    def __init__(
        self,
        config: "SeeSawConfig | None" = None,
        registry: "obs.MetricsRegistry | None" = None,
    ) -> None:
        self.config = config or SeeSawConfig()
        # Before the first build: corpus-sized temporaries are then mmapped
        # and returned when freed, whatever was allocated between them.
        freeze_heap_thresholds()
        self._indexes: dict[tuple[str, bool], SeeSawIndex] = {}
        self._datasets: dict[str, tuple[ImageDataset, EmbeddingModel]] = {}
        self._caches: dict[str, IndexCache] = {}
        self._sessions: dict[str, SearchSession] = {}
        self._session_counter = itertools.count(1)
        self.cache_hits = 0
        self.cache_misses = 0
        # Builds for *different* datasets can run concurrently under the
        # SessionManager's per-dataset locks, so the shared counters need
        # their own guard.
        self._counter_lock = threading.Lock()
        # The metrics sink every layer below this service records into.
        # Defaults to the process-global registry; tests inject private
        # instances for isolation.  Constructing a service also (re)points
        # the tracing runtime at this registry and applies the telemetry
        # master switch — the service is the stack's composition root.
        self.metrics = registry if registry is not None else obs.get_registry()
        obs.configure(
            enabled=self.config.telemetry.enabled,
            registry=registry,
        )
        telemetry = self.config.telemetry
        if registry is not None:
            self.metrics.max_series_per_metric = telemetry.max_series_per_metric
        self._cache_events = self.metrics.counter(
            "seesaw_index_cache_total",
            "Index-cache lookups at dataset registration, by outcome.",
            labels=("outcome",),
        )
        # Recorded by the HTTP transport (zero under in-process use): opened
        # against seesaw_requests_total is requests per connection.
        self.http_connections_opened = self.metrics.counter(
            "seesaw_http_connections_opened_total",
            "TCP connections the HTTP transport has accepted.",
        )
        self.http_open_connections = self.metrics.gauge(
            "seesaw_http_open_connections",
            "TCP connections the HTTP transport currently holds open.",
        )
        self.metrics.gauge(
            "seesaw_active_sessions",
            "Live interactive sessions owned by this service.",
            callback=lambda: float(len(self._sessions)),
        )
        # The mutable-dataset control plane: versions, manifests, delta
        # state, and the background merger (always constructed — mutations
        # themselves are gated on ``config.live_datasets``).
        self.live = DatasetRegistry(self)

    # ------------------------------------------------------------------
    # dataset registry
    # ------------------------------------------------------------------
    def register_dataset(
        self,
        dataset: ImageDataset,
        embedding: EmbeddingModel,
        preprocess: bool = True,
        cache_dir: "str | os.PathLike[str] | None" = None,
    ) -> None:
        """Register a dataset; optionally build its multiscale index eagerly.

        When ``cache_dir`` (or ``config.index_cache_dir``) is set, index
        builds go through an on-disk :class:`~repro.store.IndexCache`: a
        warm entry is loaded instead of re-embedding the dataset, and fresh
        builds are persisted for the next process start.
        """
        self._datasets[dataset.name] = (dataset, embedding)
        # Re-registering a name must invalidate any index built from the
        # previous dataset/embedding, or sessions would silently search it.
        for key in [k for k in self._indexes if k[0] == dataset.name]:
            del self._indexes[key]
        effective_cache_dir = cache_dir or self.config.index_cache_dir
        if effective_cache_dir is not None:
            self._caches[dataset.name] = IndexCache(
                effective_cache_dir, mmap=self.config.mmap_index
            )
        else:
            self._caches.pop(dataset.name, None)
        # Publish version 1 (re-registering resets the version lineage).
        self.live.publish(dataset)
        if preprocess:
            self.index_for(dataset.name, multiscale=True)
            # Adopt the freshly built index as the live tier's sealed base so
            # version-1 pins and the manifest's cache key are ready now.
            self.live.warm(dataset.name)

    @property
    def dataset_names(self) -> "tuple[str, ...]":
        """Names of the registered datasets."""
        return tuple(self._datasets)

    def has_index(self, dataset_name: str, multiscale: bool = True) -> bool:
        """True when the index for ``dataset_name`` is already in memory."""
        return (dataset_name, multiscale) in self._indexes

    def index_for(self, dataset_name: str, multiscale: bool = True) -> SeeSawIndex:
        """The (lazily built, possibly cache-loaded) index for one dataset."""
        if dataset_name not in self._datasets:
            raise UnknownResourceError(f"Dataset '{dataset_name}' is not registered")
        key = (dataset_name, multiscale)
        if key not in self._indexes:
            dataset, embedding = self._datasets[dataset_name]
            config = self.config.with_overrides(
                multiscale=MultiscaleConfig(enabled=multiscale)
            )
            cache = self._caches.get(dataset_name)
            was_cached = False
            if cache is not None:
                index, was_cached = cache.load_or_build(dataset, embedding, config)
                with self._counter_lock:
                    if was_cached:
                        self.cache_hits += 1
                    else:
                        self.cache_misses += 1
                self._cache_events.labels("hit" if was_cached else "miss").inc()
            else:
                index = SeeSawIndex.build(dataset, embedding, config)
            # Quantization and shard topology are runtime tiers (excluded
            # from the cache key): a cache-loaded index comes back flat and
            # is tiered here, once, before any session touches it.
            self._apply_store_tiers(index)
            # Warm the columnar query engine now (segment offsets, id
            # columns): it is cached on the index, so every session on this
            # dataset shares one engine instead of paying a first-round
            # build under a request.
            index.engine
            if not was_cached:
                # The build's temporaries are freed by now; without a trim
                # glibc keeps them resident under everything served next.
                release_free_heap()
            self._indexes[key] = index
        return self._indexes[key]

    def _apply_store_tiers(self, index: SeeSawIndex) -> None:
        """Apply the configured runtime tiers to the index's store (idempotent).

        Graph ANN first (it consumes the flat exhaustive store, adopting its
        vectors zero-copy, and an ANN-tiered index is no longer exhaustive so
        quantization naturally skips it), then quantization, then sharding —
        a sharded graph store builds one navigable graph per shard, and a
        sharded quantized store quantizes per shard, which per-row symmetric
        scales make bit-identical to slicing the flat quantization.
        """
        if (
            self.config.ann_search
            and index.store.exhaustive
            and not isinstance(index.store, (GraphANNVectorStore, ShardedVectorStore))
        ):
            index.replace_store(
                GraphANNVectorStore(
                    index.store.vectors,
                    graph_degree=self.config.ann_graph_degree,
                    ef=self.config.ann_ef,
                )
            )
        if (
            self.config.quantized_store
            and index.store.exhaustive
            and not isinstance(index.store, (QuantizedVectorStore, ShardedVectorStore))
        ):
            index.replace_store(
                QuantizedVectorStore(
                    index.store.vectors,
                    rerank_factor=self.config.quantized_rerank_factor,
                )
            )
        if self.config.n_shards > 1 and not isinstance(index.store, ShardedVectorStore):
            index.replace_store(
                ShardedVectorStore.wrap(
                    index.store, index.segments.vector_image_rows, self.config.n_shards
                )
            )

    @property
    def cached_engine_count(self) -> int:
        """Number of in-memory indexes with a warmed query engine."""
        return sum(1 for index in self._indexes.values() if index.engine_warmed)

    @property
    def store_shard_counts(self) -> "dict[str, int]":
        """Effective shard count per in-memory index (``/healthz`` detail).

        A projection of :attr:`store_tiers` — the label convention and
        topology introspection live there, once.
        """
        return {
            label: int(tier["shards"]) for label, tier in self.store_tiers.items()
        }

    @property
    def store_tiers(self) -> "dict[str, dict[str, object]]":
        """Storage/compute tier summary per in-memory index (``/healthz``).

        One entry per index: the scoring dtype, whether the int8 candidate
        tier is active (and its re-rank factor), whether the graph-ANN tier
        is active (and its degree/``ef``), and the shard count — the full
        tier stack a request to that dataset scores through.
        """
        tiers: "dict[str, dict[str, object]]" = {}
        for (dataset_name, multiscale), index in self._indexes.items():
            label = dataset_name if multiscale else f"{dataset_name}-coarse"
            store = index.store
            live = isinstance(store, DeltaVectorStore)
            sealed = store.base if live else store
            flat = (
                sealed.shard_example
                if isinstance(sealed, ShardedVectorStore)
                else sealed
            )
            quantized = isinstance(flat, QuantizedVectorStore)
            graph = isinstance(flat, GraphANNVectorStore)
            tiers[label] = {
                "compute_dtype": store.compute_dtype.name,
                "quantized": quantized,
                "rerank_factor": flat.rerank_factor if quantized else None,
                "graph": graph,
                "ann_graph_degree": flat.graph_degree if graph else None,
                "ann_ef": flat.ef if graph else None,
                "shards": (
                    sealed.n_shards if isinstance(sealed, ShardedVectorStore) else 1
                ),
                "live": live,
                "delta_rows": store.delta_rows if live else 0,
            }
        return tiers

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def validate_start_request(self, request: StartSessionRequest) -> None:
        """Reject malformed start requests before any expensive work runs."""
        if request.batch_size < 1:
            raise SessionError(
                f"batch_size must be >= 1, got {request.batch_size}"
            )
        if not request.text_query or not request.text_query.strip():
            raise SessionError("text_query must be a non-empty string")
        if request.dataset not in self._datasets:
            raise UnknownResourceError(
                f"Dataset '{request.dataset}' is not registered"
            )
        if request.dataset_version is not None:
            if request.dataset_version < 1:
                raise SessionError(
                    f"dataset_version must be >= 1, got {request.dataset_version}"
                )
            if not request.multiscale:
                raise SessionError(
                    "dataset_version pinning requires the multiscale index"
                )

    def start_session(self, request: StartSessionRequest) -> SessionInfo:
        """Start a new interactive search session."""
        self.validate_start_request(request)
        if request.dataset_version is not None:
            index = self.live.index_for_version(
                request.dataset, request.dataset_version
            )
        else:
            index = self.index_for(request.dataset, request.multiscale)
        session = SearchSession(
            index=index,
            method=SeeSawSearchMethod(self.config),
            text_query=request.text_query,
            batch_size=request.batch_size,
        )
        session_id = f"session-{next(self._session_counter)}"
        self._sessions[session_id] = session
        return self.session_info(session_id)

    @property
    def session_ids(self) -> "tuple[str, ...]":
        """Ids of the live sessions."""
        return tuple(self._sessions)

    def _session(self, session_id: str) -> SearchSession:
        try:
            return self._sessions[session_id]
        except KeyError as exc:
            raise UnknownResourceError(f"Unknown session '{session_id}'") from exc

    def next_results(self, session_id: str, count: "int | None" = None) -> NextResultsResponse:
        """Fetch the next batch of results for a session."""
        session = self._session(session_id)
        items = []
        for result in session.next_batch(count):
            box = BoxPayload(result.box.x, result.box.y, result.box.width, result.box.height)
            items.append(ResultItem(result.image_id, result.score, box))
        return NextResultsResponse(
            session_id=session_id,
            items=items,
            total_shown=len(session.history),
            positives_found=session.relevant_found,
        )

    def give_feedback(self, request: FeedbackRequest) -> SessionInfo:
        """Submit feedback for one image of the session's current batch."""
        session = self._session(request.session_id)
        boxes = tuple(
            BoundingBox(box.x, box.y, box.width, box.height) for box in request.boxes
        )
        session.give_feedback(request.image_id, request.relevant, boxes)
        return self.session_info(request.session_id)

    def session_info(self, session_id: str) -> SessionInfo:
        """Progress summary for one session."""
        session = self._session(session_id)
        return SessionInfo(
            session_id=session_id,
            dataset=session.index.dataset.name,
            text_query=session.text_query,
            total_shown=len(session.history),
            positives_found=session.relevant_found,
            rounds=session.stats.rounds,
        )

    def session_stats(self, session_id: str) -> "SessionStats":
        """Latency accounting for one session (``GET /v1/sessions`` telemetry)."""
        return self._session(session_id).stats

    def close_session(self, session_id: str) -> None:
        """Forget a session."""
        self._sessions.pop(session_id, None)
