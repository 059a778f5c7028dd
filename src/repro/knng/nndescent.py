"""NN-descent: approximate kNN-graph construction (Dong et al., WWW 2011).

The paper builds its kNN graph with NN-descent because exact construction is
quadratic in the database size.  This is a from-scratch implementation over
cosine similarity (equivalently inner product of unit vectors): start from a
random neighbour assignment and repeatedly propose neighbours-of-neighbours
(in both edge directions), keeping the best ``k`` per node, until the graph
stops improving.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import IndexingError
from repro.utils.linalg import ensure_dtype, unit_rows
from repro.utils.rng import ensure_rng


def _top_k_merge(
    current_ids: np.ndarray,
    current_sims: np.ndarray,
    candidate_ids: np.ndarray,
    candidate_sims: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Merge candidate neighbours into the current top-k list for one node."""
    merged_ids = np.concatenate([current_ids, candidate_ids])
    merged_sims = np.concatenate([current_sims, candidate_sims])
    # Group duplicates by (id asc, sim desc): the first row of each id group
    # is its best similarity, so one boolean diff deduplicates without the
    # extra argsort + np.unique round-trip.
    order = np.lexsort((-merged_sims, merged_ids))
    merged_ids = merged_ids[order]
    merged_sims = merged_sims[order]
    first = np.ones(merged_ids.size, dtype=bool)
    first[1:] = merged_ids[1:] != merged_ids[:-1]
    merged_ids = merged_ids[first]
    merged_sims = merged_sims[first]
    # Top-k by similarity, ties broken by ascending id so the merge is
    # deterministic regardless of candidate arrival order.
    top = np.lexsort((merged_ids, -merged_sims))[:k]
    new_ids = merged_ids[top]
    new_sims = merged_sims[top]
    changed = not (
        new_ids.shape == current_ids.shape and np.array_equal(new_ids, current_ids)
    )
    return new_ids, new_sims, changed


def nn_descent(
    vectors: np.ndarray,
    k: int,
    iterations: int = 8,
    sample_rate: float = 1.0,
    seed: "int | np.random.Generator | None" = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Build an approximate kNN graph.

    Parameters
    ----------
    vectors:
        ``(count, dim)`` array; rows are normalised internally.
    k:
        Number of neighbours per node (excluding the node itself).
    iterations:
        Maximum number of local-join rounds.
    sample_rate:
        Fraction of each node's neighbour list proposed per round (``rho`` in
        the original paper); lower values trade accuracy for speed.
    seed:
        Seed for the random initial graph and sampling.

    Returns
    -------
    (neighbor_ids, neighbor_similarities):
        Two ``(count, k)`` arrays; similarities are inner products of the
        normalised vectors, sorted descending per row.
    """
    # Already-normalised float64 input (the build_knn_graph call path) passes
    # through zero-copy instead of paying a fresh divide-and-copy per call.
    vectors = unit_rows(ensure_dtype(vectors, np.float64))
    count = vectors.shape[0]
    if count < 2:
        raise IndexingError("nn_descent requires at least two vectors")
    k = min(k, count - 1)
    if k < 1:
        raise IndexingError("k must be >= 1")
    if not 0 < sample_rate <= 1:
        raise IndexingError("sample_rate must be in (0, 1]")
    rng = ensure_rng(seed)

    neighbor_ids = np.empty((count, k), dtype=np.int64)
    neighbor_sims = np.empty((count, k), dtype=np.float64)
    for node in range(count):
        choices = rng.choice(count - 1, size=k, replace=False)
        choices = np.where(choices >= node, choices + 1, choices)
        sims = vectors[choices] @ vectors[node]
        order = np.argsort(-sims)
        neighbor_ids[node] = choices[order]
        neighbor_sims[node] = sims[order]

    for _ in range(iterations):
        # Reverse adjacency (who currently lists each node as a neighbour),
        # built as a CSR bucketing instead of a Python list-of-lists: the
        # flattened edge targets are stably sorted once, and each node's
        # reverse neighbours become one contiguous slice of edge sources.
        edge_sources = np.repeat(np.arange(count, dtype=np.int64), k)
        edge_targets = neighbor_ids.ravel()
        by_target = np.argsort(edge_targets, kind="stable")
        reverse_sources = edge_sources[by_target]
        reverse_offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_targets, minlength=count), out=reverse_offsets[1:])
        updates = 0
        for node in range(count):
            forward = neighbor_ids[node]
            if sample_rate < 1.0:
                sample_size = max(1, int(round(sample_rate * forward.size)))
                forward = rng.choice(forward, size=sample_size, replace=False)
            # Local join, batched: forward neighbours' own lists come out of
            # one fancy-indexed gather, reverse neighbours are contiguous CSR
            # slices, and one np.unique replaces the per-element Python set.
            # Current neighbours are *not* filtered out — the top-k merge
            # deduplicates by id keeping the best similarity, so re-proposing
            # them is harmless and cheaper than an isin() pass.
            parts = [
                neighbor_ids[forward].ravel(),
                reverse_sources[reverse_offsets[node] : reverse_offsets[node + 1]],
            ]
            parts.extend(
                reverse_sources[reverse_offsets[nb] : reverse_offsets[nb + 1]]
                for nb in forward
            )
            pool = np.unique(np.concatenate(parts))
            candidates = pool[pool != node]
            if candidates.size == 0:
                continue
            sims = vectors[candidates] @ vectors[node]
            new_ids, new_sims, changed = _top_k_merge(
                neighbor_ids[node], neighbor_sims[node], candidates, sims, k
            )
            if changed:
                neighbor_ids[node] = new_ids
                neighbor_sims[node] = new_sims
                updates += 1
        if updates == 0:
            break
    return neighbor_ids, neighbor_sims


_CHUNK_BYTES = 4 * 1024 * 1024
"""Size of one chunk's ``rows x count`` float64 similarity block in
:func:`exact_knn`; the chunk's row count is derived from it."""


def exact_knn(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN graph via a brute-force scan in fixed-size chunks.

    Similarity is computed for as many rows at a time as fit one
    ``count``-wide float64 block in :data:`_CHUNK_BYTES` (at least one row),
    so the scan's temporaries stay about two such blocks — the product
    buffer and ``argpartition``'s int64 result — whatever the corpus size,
    and never the full pairwise matrix.  The product buffer is negated in
    place, so selection sees the same values a negated copy would without a
    third block.

    ``neighbor_ids`` do not depend on the chunk size on tie-free data.  The
    similarities may move in the last bits: BLAS's blocking (and therefore
    its summation order) depends on the GEMM's row count.

    Returns ``(neighbor_ids, neighbor_similarities)``, two ``(count, k)``
    arrays with each row's similarities sorted descending.
    """
    vectors = unit_rows(ensure_dtype(vectors, np.float64))
    count = vectors.shape[0]
    if count < 2:
        raise IndexingError("exact_knn requires at least two vectors")
    k = min(k, count - 1)
    neighbor_ids = np.empty((count, k), dtype=np.int64)
    neighbor_sims = np.empty((count, k), dtype=np.float64)
    chunk_rows = max(1, min(count, _CHUNK_BYTES // (8 * count)))
    # One product buffer reused across chunks: `@` would allocate a fresh
    # block every iteration and churn the allocator on large corpora.
    buffer = np.empty((chunk_rows, count), dtype=np.float64)
    for start in range(0, count, chunk_rows):
        stop = min(count, start + chunk_rows)
        sims = np.dot(vectors[start:stop], vectors.T, out=buffer[: stop - start])
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf  # no self-edges
        np.negative(sims, out=sims)
        # A copy, not a view: the view would keep argpartition's full-width
        # result alive into the next chunk's argpartition (a third block).
        top = np.argpartition(sims, k - 1, axis=1)[:, :k].copy()
        top_sims = -np.take_along_axis(sims, top, axis=1)
        order = np.argsort(-top_sims, axis=1)
        neighbor_ids[start:stop] = np.take_along_axis(top, order, axis=1)
        neighbor_sims[start:stop] = np.take_along_axis(top_sims, order, axis=1)
    return neighbor_ids, neighbor_sims
