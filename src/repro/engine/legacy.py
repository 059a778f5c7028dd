"""The pre-engine, object-based round hot path, preserved verbatim.

This module keeps the original ``SearchContext`` selection logic alive after
the columnar rewrite: rebuild a vector-id exclusion ``set`` from the shown
images, ask the store for the top patches, and regroup them into images in a
Python loop with retry-doubling.  It exists for two reasons:

* the parity test suite uses it as the oracle the engine must match
  (identical image ids, ordering, and scores);
* the latency benchmark's legacy-vs-engine rows measure exactly what the
  rewrite bought.

It is not used by any production code path.
"""

from __future__ import annotations

import numpy as np

from repro.core.indexing import SeeSawIndex
from repro.core.interfaces import ImageResult
from repro.exceptions import SessionError
from repro.utils.linalg import ensure_dtype
from repro.vectorstore.exact import ExactVectorStore


def _vector_ids_for_images(
    index: SeeSawIndex, image_ids: "frozenset[int] | set[int]"
) -> "set[int]":
    """The union of vector ids for a set of images, as a Python set."""
    ids: set[int] = set()
    for image_id in image_ids:
        ids.update(index.vector_ids_for_image(image_id))
    return ids


def legacy_top_unseen_images(
    index: SeeSawIndex,
    query_vector: np.ndarray,
    count: int,
    excluded_image_ids: "frozenset[int] | set[int]",
) -> "list[ImageResult]":
    """The original object-heavy best-unseen-images selection."""
    if count < 1:
        raise SessionError("count must be >= 1")
    excluded_vectors = _vector_ids_for_images(index, excluded_image_ids)
    exclude_mask = None
    if excluded_vectors:
        exclude_mask = np.zeros(index.vector_count, dtype=bool)
        exclude_mask[list(excluded_vectors)] = True
    per_image = max(1, round(index.vector_count / max(1, len(index.image_ids))))
    k = count * per_image + len(excluded_vectors)
    results: list[ImageResult] = []
    while True:
        k = min(k, index.vector_count)
        ids, scores = index.store.search_arrays(query_vector, k, exclude_mask=exclude_mask)
        results = []
        seen: set[int] = set()
        for vector_id, score in zip(ids.tolist(), scores.tolist()):
            image_id = index.image_id_for_vector(vector_id)
            if image_id in excluded_image_ids or image_id in seen:
                continue
            seen.add(image_id)
            results.append(
                ImageResult(
                    image_id=image_id,
                    score=score,
                    vector_id=vector_id,
                    box=index.patch_box(vector_id),
                )
            )
            if len(results) >= count:
                return results
        if k >= index.vector_count:
            return results
        k *= 2


def legacy_score_all_images(
    index: SeeSawIndex, query_vector: np.ndarray
) -> "dict[int, float]":
    """The original per-image bulk scoring: one Python-level max per image."""
    store = index.store
    if isinstance(store, ExactVectorStore):
        scores = store.score_all(query_vector)
    else:
        # Convert to the store's compute dtype (not a hard-coded float64
        # round-trip): a query already in that dtype multiplies zero-copy.
        scores = store.vectors @ ensure_dtype(
            np.ravel(query_vector), store.compute_dtype
        )
    image_scores: dict[int, float] = {}
    for image_id in index.image_ids:
        vector_ids = np.asarray(index.vector_ids_for_image(image_id), dtype=np.int64)
        image_scores[image_id] = float(scores[vector_ids].max())
    return image_scores
