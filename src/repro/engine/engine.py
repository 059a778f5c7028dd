"""The array-native query engine: the per-round hot path as columnar kernels.

Every interactive round boils down to the same three steps: score vectors
against a query, drop what the user has already seen, and group patch scores
into image scores.  The legacy path did this with Python sets, a Python
regrouping loop over patch hits, and a retry-doubling loop; the engine
does it with flat arrays:

* scores are masked once through a persistent :class:`~repro.engine.mask.SeenMask`;
* patch scores max-pool into image scores with a single
  ``np.maximum.reduceat`` over the CSR segments;
* the top images fall out of one ``argpartition`` — no per-hit objects and
  no retries for exhaustive stores.

Approximate stores (the random-projection forest) cannot be scanned
exhaustively, so for them the engine drives the store's masked
``search_arrays`` candidate API with the same widening schedule the legacy
path used, but entirely in arrays.

The engine is deliberately ignorant of sessions, HTTP, and result objects:
it takes arrays and masks, and returns aligned ``(image_ids, scores,
vector_ids)`` columns.  ``SearchContext`` adapts those to the public
``ImageResult`` API.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.engine.mask import SeenMask
from repro.engine.segments import ImageSegments
from repro.exceptions import SessionError, VectorStoreError
from repro.obs import trace_span
from repro.vectorstore.base import VectorStore


class QueryEngine:
    """Columnar top-k / bulk-scoring kernels over one index's store."""

    __slots__ = ("store", "segments")

    def __init__(self, store: VectorStore, segments: ImageSegments) -> None:
        if len(store) != segments.vector_count:
            raise VectorStoreError(
                f"store holds {len(store)} vectors but the segment layout covers "
                f"{segments.vector_count}"
            )
        self.store = store
        self.segments = segments

    # ------------------------------------------------------------------
    # masks
    # ------------------------------------------------------------------
    def new_mask(self) -> SeenMask:
        """A fresh all-unseen mask for a new session."""
        return SeenMask(self.segments)

    def mask_for_images(self, image_ids: Iterable[int]) -> SeenMask:
        """An ephemeral mask marking exactly the given image ids seen."""
        mask = SeenMask(self.segments)
        mask.mark_images(image_ids)
        return mask

    # ------------------------------------------------------------------
    # bulk scoring
    # ------------------------------------------------------------------
    def score_all_images(self, query: np.ndarray) -> np.ndarray:
        """Max-pooled per-image scores, aligned with ``segments.image_ids``.

        One matrix-vector product and one ``reduceat`` — the linear-scan
        cost the global baselines (ENS, label propagation) pay per round.
        """
        return self.segments.pool_max(self.store.score_all(query))

    # ------------------------------------------------------------------
    # top-k selection
    # ------------------------------------------------------------------
    def top_unseen_arrays(
        self,
        query: np.ndarray,
        count: int,
        mask: "SeenMask | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The ``count`` best unseen images for ``query``.

        Returns aligned ``(image_ids, image_scores, best_vector_ids)``
        columns, best first.  Fewer than ``count`` rows come back only when
        the unseen pool is exhausted.
        """
        if count < 1:
            raise SessionError("count must be >= 1")
        if self.store.exhaustive:
            with trace_span("score"):
                vector_scores = self.store.score_all(query)
            return self._select_from_vector_scores(vector_scores, count, mask)
        return self._top_unseen_candidates(query, count, mask)

    def top_images_from_vector_scores(
        self,
        vector_scores: np.ndarray,
        count: int,
        mask: "SeenMask | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Top unseen images under externally computed per-vector scores.

        Used by methods that rank with something other than an inner product
        (label propagation ranks by propagated soft labels).  ``vector_scores``
        is not modified.
        """
        if count < 1:
            raise SessionError("count must be >= 1")
        return self._select_from_vector_scores(np.asarray(vector_scores), count, mask)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _select_from_vector_scores(
        self,
        vector_scores: np.ndarray,
        count: int,
        mask: "SeenMask | None",
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        segments = self.segments
        with trace_span("pool"):
            image_scores = segments.pool_max(vector_scores)  # fresh array
        with trace_span("select"):
            if mask is not None and mask.seen_count:
                image_scores[mask.image_seen] = -np.inf
            k = min(count, image_scores.size)
            if k == 0:
                empty = np.zeros(0, dtype=np.int64)
                return empty, np.zeros(0), empty.copy()
            top = np.argpartition(-image_scores, k - 1)[:k]
            # Deterministic ordering: score descending, image row ascending.
            top = top[np.lexsort((top, -image_scores[top]))]
            top = top[np.isfinite(image_scores[top])]
            best_vectors = segments.best_vectors_in_rows(vector_scores, top)
            return segments.image_ids[top], image_scores[top], best_vectors

    def _top_unseen_candidates(
        self,
        query: np.ndarray,
        count: int,
        mask: "SeenMask | None",
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Candidate-store path: masked search with the legacy widening schedule."""
        segments = self.segments
        vector_count = segments.vector_count
        exclude = None
        excluded_vectors = 0
        if mask is not None and mask.seen_count:
            exclude = mask.vector_seen
            excluded_vectors = int(np.count_nonzero(exclude))
        per_image = max(1, round(vector_count / max(1, segments.image_count)))
        k = count * per_image + excluded_vectors
        while True:
            k = min(k, vector_count)
            with trace_span("score"):
                ids, scores = self.store.search_arrays(
                    query, k=k, exclude_mask=exclude
                )
            rows = segments.vector_image_rows[ids]
            covered = rows >= 0
            if not covered.all():
                # Hits from vectors no image segment covers carry a -1 row;
                # dropping them here prevents silently attributing them to
                # an arbitrary image via wrap-around indexing below.
                ids, scores, rows = ids[covered], scores[covered], rows[covered]
            # First occurrence per image, preserving descending-score order.
            _, first_positions = np.unique(rows, return_index=True)
            first_positions.sort()
            if first_positions.size >= count or k >= vector_count:
                chosen = first_positions[:count]
                return segments.image_ids[rows[chosen]], scores[chosen], ids[chosen]
            k *= 2
