"""Dataset preprocessing: the SeeSaw index (Figure 3, top half).

Preprocessing embeds every image (or every multiscale patch of every image),
builds the vector store used for max-inner-product lookups, builds the kNN
graph over the stored vectors, and precomputes the DB-alignment matrix
``M_D``.  All of this happens once per dataset and is reused by every query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.config import SeeSawConfig
from repro.core.multiscale import generate_patches
from repro.core.propagation import compute_db_alignment_matrix
from repro.data.dataset import ImageDataset
from repro.embedding.base import EmbeddingModel
from repro.engine import ImageSegments, QueryEngine
from repro.exceptions import IndexingError
from repro.knng.graph import KnnGraph, build_knn_graph
from repro.utils.linalg import ensure_dtype, resolve_compute_dtype
from repro.vectorstore.base import VectorRecord, VectorStore
from repro.vectorstore.exact import ExactVectorStore


@dataclass
class IndexBuildReport:
    """Timing and size information about a preprocessing run (§2.4)."""

    dataset_name: str
    image_count: int
    vector_count: int
    embedding_seconds: float
    store_seconds: float
    graph_seconds: float
    multiscale: bool

    @property
    def vectors_per_image(self) -> float:
        """Average number of stored vectors per image."""
        return self.vector_count / max(1, self.image_count)


class SeeSawIndex:
    """The preprocessed artifacts SeeSaw needs to search one dataset."""

    def __init__(
        self,
        dataset: ImageDataset,
        embedding: EmbeddingModel,
        store: VectorStore,
        image_vector_ids: "dict[int, tuple[int, ...]]",
        knn_graph: "KnnGraph | None",
        db_matrix: "np.ndarray | None",
        config: SeeSawConfig,
        build_report: IndexBuildReport,
    ) -> None:
        self.dataset = dataset
        self.embedding = embedding
        self.store = store
        # The CSR segment layout is the source of truth for the
        # vector <-> image mapping; the legacy dict interface survives as
        # adapters (``vector_ids_for_image`` and friends) over it.
        self.segments = ImageSegments.from_mapping(image_vector_ids, len(store))
        self.knn_graph = knn_graph
        self.db_matrix = db_matrix
        self.config = config
        self.build_report = build_report
        self._image_ids: "tuple[int, ...] | None" = None
        self._engine: "QueryEngine | None" = None
        self._validate_coarse_first()

    def _validate_coarse_first(self) -> None:
        """Assert that each image's first stored vector is its coarse patch.

        ``coarse_vector_ids()`` (and through it calibration and the
        coarse-score experiments) reads the first vector id of every segment
        as the whole-image patch.  The build loop guarantees this because
        ``generate_patches`` emits the coarse box first; indexes assembled
        any other way must uphold the same invariant, so it is checked here
        instead of being silently assumed.  One vectorized comparison over
        the store's scale-level column, so cache warm-starts stay cheap.
        """
        firsts = self.segments.first_vector_ids()
        offending = firsts[self.store.scale_levels[firsts] != 0]
        if offending.size:
            vector_id = int(offending[0])
            record = self.store.record(vector_id)
            raise IndexingError(
                f"Image {record.image_id}: first stored vector {vector_id} "
                f"is a level-{record.scale_level} patch, expected the coarse "
                "whole-image patch (scale_level 0) first"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: ImageDataset,
        embedding: EmbeddingModel,
        config: "SeeSawConfig | None" = None,
        compute_db_alignment: bool = True,
        build_graph: bool = True,
        vectors: "np.ndarray | None" = None,
    ) -> "SeeSawIndex":
        """Run the one-time preprocessing pass for ``dataset``.

        The store is always an :class:`ExactVectorStore`; the other store
        tiers (quantized, graph-ANN, forest, sharded) wrap its vectors at
        run time through :meth:`replace_store`.

        Parameters
        ----------
        dataset:
            The image dataset to index.
        embedding:
            The visual-semantic embedding used for patches and text.
        config:
            SeeSaw configuration; its ``multiscale`` section controls tiling.
        compute_db_alignment:
            Whether to precompute the DB-alignment matrix ``M_D``.
        build_graph:
            Whether to build the kNN graph (needed for DB alignment, the
            propagation baseline, and ENS).
        vectors:
            The patch vectors, already embedded, one row per patch in the
            order this pass enumerates them (images in dataset order, each
            image's patches coarse first).  Replaces only the
            ``embed_patches`` calls — a live merge passes the rows its delta
            view already holds, so no patch is embedded twice; records,
            store, kNN graph and ``M_D`` are built exactly as in a cold
            build, and ``embedding_seconds`` reports 0.
        """
        config = config or SeeSawConfig()
        embedded: list[np.ndarray] = []
        records: list[VectorRecord] = []
        image_vector_ids: dict[int, list[int]] = {}
        embedding_seconds = 0.0
        vector_id = 0
        for image in dataset.images:
            patch_specs = generate_patches(image.width, image.height, config.multiscale)
            if vectors is None:
                embed_start = time.perf_counter()
                embedded.append(
                    embedding.embed_patches(image, [box for box, _ in patch_specs])
                )
                embedding_seconds += time.perf_counter() - embed_start
            ids: list[int] = []
            for box, scale_level in patch_specs:
                records.append(
                    VectorRecord(
                        vector_id=vector_id,
                        image_id=image.image_id,
                        box=box,
                        scale_level=scale_level,
                    )
                )
                ids.append(vector_id)
                vector_id += 1
            image_vector_ids[image.image_id] = ids
        if vectors is None:
            vectors = np.concatenate(embedded)
        elif vectors.shape[0] != len(records):
            raise IndexingError(
                f"supplied vectors have {vectors.shape[0]} rows, the dataset "
                f"enumerates {len(records)} patches"
            )
        # Cast once to the configured compute dtype; the store then adopts
        # the stacked matrix as-is (float64 default stays the bit-parity
        # reference, float32 halves every scoring pass's memory traffic).
        matrix = ensure_dtype(vectors, resolve_compute_dtype(config.compute_dtype))

        store_start = time.perf_counter()
        store = ExactVectorStore(matrix, records)
        store_seconds = time.perf_counter() - store_start

        graph_start = time.perf_counter()
        knn_graph = None
        db_matrix = None
        if build_graph:
            knn_graph = build_knn_graph(store.vectors, config.knn)
            if compute_db_alignment:
                db_matrix = compute_db_alignment_matrix(store.vectors, knn_graph)
        graph_seconds = time.perf_counter() - graph_start

        report = IndexBuildReport(
            dataset_name=dataset.name,
            image_count=len(dataset),
            vector_count=len(store),
            embedding_seconds=embedding_seconds,
            store_seconds=store_seconds,
            graph_seconds=graph_seconds,
            multiscale=config.multiscale.enabled,
        )
        return cls(
            dataset=dataset,
            embedding=embedding,
            store=store,
            image_vector_ids={k: tuple(v) for k, v in image_vector_ids.items()},
            knn_graph=knn_graph,
            db_matrix=db_matrix,
            config=config,
            build_report=report,
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def vector_count(self) -> int:
        """Number of stored vectors (patches)."""
        return len(self.store)

    @property
    def image_ids(self) -> tuple[int, ...]:
        """All indexed image ids, in index (segment-row) order."""
        if self._image_ids is None:
            self._image_ids = tuple(int(i) for i in self.segments.image_ids)
        return self._image_ids

    @property
    def engine(self) -> QueryEngine:
        """The (lazily built, cached) array-native query engine."""
        if self._engine is None:
            self._engine = QueryEngine(self.store, self.segments)
        return self._engine

    @property
    def engine_warmed(self) -> bool:
        """True once the query engine has been built (without building it)."""
        return self._engine is not None

    def replace_store(self, store: VectorStore) -> None:
        """Swap the vector store (e.g. for a sharded topology of the same data).

        The replacement must cover the same vectors: the segment layout,
        masks, and any engine built later all key off vector ids, so a store
        of a different size would silently corrupt every lookup.  Cached
        engines are dropped — they hold a reference to the old store.
        """
        if len(store) != self.segments.vector_count:
            raise IndexingError(
                f"replacement store holds {len(store)} vectors, index covers "
                f"{self.segments.vector_count}"
            )
        self.store = store
        self._engine = None
        self._validate_coarse_first()

    def vector_ids_for_image(self, image_id: int) -> tuple[int, ...]:
        """The stored vector ids belonging to one image."""
        row = self.segments.row_for_image(image_id)
        return tuple(int(v) for v in self.segments.vector_ids_for_row(row))

    def vector_ids_for_images(self, image_ids: "frozenset[int] | set[int]") -> set[int]:
        """The union of vector ids for a set of images.

        Legacy adapter; hot paths use :class:`~repro.engine.SeenMask`
        boolean columns instead of materializing id sets.
        """
        ids: set[int] = set()
        for image_id in image_ids:
            ids.update(self.vector_ids_for_image(image_id))
        return ids

    def embed_query(self, text: str) -> np.ndarray:
        """Embed a text query with the index's embedding model."""
        return self.embedding.embed_text(text)

    def coarse_vector_ids(self) -> np.ndarray:
        """Vector ids of the coarse (whole-image) patches, in image order.

        This relies on the validated invariant that the first vector of
        every image segment is its coarse whole-image patch (checked at
        construction by ``_validate_coarse_first``).
        """
        return self.segments.first_vector_ids().copy()
