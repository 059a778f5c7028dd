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
from repro.core.multiscale import generate_patches, patch_columns
from repro.core.propagation import compute_db_alignment_matrix
from repro.data.dataset import ImageDataset
from repro.data.geometry import BoundingBox
from repro.embedding.base import EmbeddingModel
from repro.engine import ImageSegments, QueryEngine
from repro.exceptions import IndexingError
from repro.knng.graph import KnnGraph, build_knn_graph
from repro.utils.linalg import ensure_dtype, resolve_compute_dtype
from repro.vectorstore.base import VectorStore
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
    """The preprocessed artifacts SeeSaw needs to search one dataset.

    The store holds vectors only.  The patch table lives here, as columns
    indexed by vector id: ``segments`` maps vectors to images,
    ``patch_boxes`` holds each patch's ``(x, y, width, height)`` (float64)
    and ``patch_levels`` its multiscale level (int8, 0 = the coarse
    whole-image patch).  All three are read-only.
    """

    def __init__(
        self,
        dataset: ImageDataset,
        embedding: EmbeddingModel,
        store: VectorStore,
        segments: ImageSegments,
        patch_boxes: np.ndarray,
        patch_levels: np.ndarray,
        knn_graph: "KnnGraph | None",
        db_matrix: "np.ndarray | None",
        config: SeeSawConfig,
        build_report: IndexBuildReport,
    ) -> None:
        count = len(store)
        if segments.vector_count != count:
            raise IndexingError(
                f"segments cover {segments.vector_count} vectors, the store "
                f"holds {count}"
            )
        if patch_boxes.shape != (count, 4) or patch_levels.shape != (count,):
            raise IndexingError(
                f"patch columns of shapes {patch_boxes.shape} and "
                f"{patch_levels.shape} do not fit {count} vectors"
            )
        if not bool((patch_boxes[:, 2:] > 0).all()):
            raise IndexingError("every patch box must have positive width and height")
        patch_boxes.setflags(write=False)
        patch_levels.setflags(write=False)
        self.dataset = dataset
        self.embedding = embedding
        self.store = store
        self.segments = segments
        self.patch_boxes = patch_boxes
        self.patch_levels = patch_levels
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
        the scale-level column, so cache warm-starts stay cheap.
        """
        firsts = self.segments.first_vector_ids()
        offending = firsts[self.patch_levels[firsts] != 0]
        if offending.size:
            vector_id = int(offending[0])
            raise IndexingError(
                f"Image {self.image_id_for_vector(vector_id)}: first stored "
                f"vector {vector_id} is a level-{self.patch_levels[vector_id]} "
                "patch, expected the coarse whole-image patch (scale_level 0) first"
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
            view already holds, so no patch is embedded twice; patch
            columns, store, kNN graph and ``M_D`` are built exactly as in a cold
            build, and ``embedding_seconds`` reports 0.
        """
        config = config or SeeSawConfig()
        patches = [generate_patches(i.width, i.height, config.multiscale) for i in dataset.images]
        offsets = np.cumsum([0] + [len(specs) for specs in patches], dtype=np.int64)
        patch_count = int(offsets[-1])
        dtype = resolve_compute_dtype(config.compute_dtype)
        embedding_seconds = 0.0
        if vectors is None:
            # Each image's rows go straight into the one matrix the store
            # adopts: read-only, so the store skips its defensive copy.
            matrix = np.empty((patch_count, embedding.dim), dtype=dtype)
            embed_start = time.perf_counter()
            for row, (image, specs) in enumerate(zip(dataset.images, patches)):
                matrix[offsets[row] : offsets[row + 1]] = embedding.embed_patches(
                    image, [box for box, _ in specs]
                )
            embedding_seconds = time.perf_counter() - embed_start
            matrix.setflags(write=False)
        elif vectors.shape[0] != patch_count:
            raise IndexingError(
                f"supplied vectors have {vectors.shape[0]} rows, the dataset "
                f"enumerates {patch_count} patches"
            )
        else:
            matrix = ensure_dtype(vectors, dtype)

        store_start = time.perf_counter()
        store = ExactVectorStore(matrix)
        store_seconds = time.perf_counter() - store_start

        graph_start = time.perf_counter()
        knn_graph = None
        db_matrix = None
        if build_graph:
            knn_graph = build_knn_graph(store.vectors, config.knn)
            if compute_db_alignment:
                db_matrix = compute_db_alignment_matrix(store.vectors, knn_graph)
        graph_seconds = time.perf_counter() - graph_start

        patch_boxes, patch_levels = patch_columns([p for specs in patches for p in specs])
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
            segments=ImageSegments(
                np.fromiter((image.image_id for image in dataset.images), np.int64),
                np.arange(patch_count),
                offsets,
                patch_count,
            ),
            patch_boxes=patch_boxes,
            patch_levels=patch_levels,
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

    def vector_ids_for_image(self, image_id: int) -> tuple[int, ...]:
        """The stored vector ids belonging to one image."""
        row = self.segments.row_for_image(image_id)
        return tuple(int(v) for v in self.segments.vector_ids_for_row(row))

    def image_id_for_vector(self, vector_id: int) -> int:
        """The id of the image one stored vector belongs to."""
        segments = self.segments
        return int(segments.image_ids[segments.vector_image_rows[vector_id]])

    def patch_box(self, vector_id: int) -> BoundingBox:
        """The pre-indexed box of one stored patch vector."""
        return BoundingBox(*self.patch_boxes[vector_id].tolist())

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
