"""kNN graph and the symmetrised adjacency DB alignment and propagation read.

:func:`exact_knn` finds every vector's ``k`` nearest neighbours with one
chunked brute-force scan; it is the only kNN builder, shared by the index
build and the graph-ANN store tier.  The graph stores, for every vector, its
``k`` nearest neighbours and the Gaussian edge weight between them.  From
those it derives the symmetrised adjacency ``W`` as plain numpy CSR arrays
together with the degrees ``D`` (its row sums): the inputs of the Laplacian
``D - W`` in Equation 4 of the paper and of label propagation.  Nothing here
imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import KnnGraphConfig
from repro.exceptions import IndexingError
from repro.knng.kernels import gaussian_similarity, squared_distance_from_inner
from repro.utils.linalg import ensure_dtype, unit_rows


_CHUNK_BYTES = 4 * 1024 * 1024
"""Size of one chunk's ``rows x count`` float64 similarity block in
:func:`exact_knn`; the chunk's row count is derived from it."""

_SELECT_ROWS = 16
"""Rows per ``argpartition`` call in :func:`exact_knn`: its full-width int64
result is ``_SELECT_ROWS x count``, not a second block."""


def exact_knn(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN graph via a brute-force scan in fixed-size chunks.

    Similarity is computed for as many rows at a time as fit one
    ``count``-wide float64 block in :data:`_CHUNK_BYTES` (at least one row),
    so the scan's temporaries are that one block, the int64 result of one
    :data:`_SELECT_ROWS`-row ``argpartition`` and a few ``(rows, k)``
    arrays, whatever the corpus size, and never the full pairwise matrix.
    The product buffer is negated in place, so selection sees the same
    values a negated copy would without a second block.  ``argpartition``
    treats every row on its own, so selecting a few rows per call gives the
    ids one call over the whole block gives.

    ``neighbor_ids`` do not depend on the chunk size on tie-free data.  The
    similarities may move in the last bits: BLAS's blocking (and therefore
    its summation order) depends on the GEMM's row count.

    Returns ``(neighbor_ids, neighbor_similarities)``, two ``(count, k)``
    arrays with each row's similarities sorted descending.
    """
    vectors = np.asarray(vectors)
    # A float32 corpus's float64 cast is ours: normalise it in place.
    cast = vectors.dtype != np.float64
    vectors = unit_rows(ensure_dtype(vectors, np.float64), owned=cast)
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
        top = np.empty((stop - start, k), dtype=np.intp)
        for row in range(0, stop - start, _SELECT_ROWS):
            rows = slice(row, row + _SELECT_ROWS)
            top[rows] = np.argpartition(sims[rows], k - 1, axis=1)[:, :k]
        top_sims = -np.take_along_axis(sims, top, axis=1)
        order = np.argsort(-top_sims, axis=1)
        neighbor_ids[start:stop] = np.take_along_axis(top, order, axis=1)
        neighbor_sims[start:stop] = np.take_along_axis(top_sims, order, axis=1)
    return neighbor_ids, neighbor_sims


@dataclass
class KnnGraph:
    """A weighted, symmetrised k-nearest-neighbour graph.

    The symmetrised adjacency's CSR arrays are cached: the propagation
    baseline reads them on every feedback round.
    """

    neighbor_ids: np.ndarray
    neighbor_weights: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if self.neighbor_ids.shape != self.neighbor_weights.shape:
            raise IndexingError("neighbor ids and weights must have the same shape")
        if self.neighbor_ids.ndim != 2:
            raise IndexingError("neighbor arrays must be 2-d (count x k)")
        self._csr: "tuple[np.ndarray, ...] | None" = None

    @property
    def node_count(self) -> int:
        """Number of nodes (database vectors) in the graph."""
        return self.neighbor_ids.shape[0]

    @property
    def k(self) -> int:
        """Number of neighbours stored per node."""
        return self.neighbor_ids.shape[1]

    def csr(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """``W`` in CSR form and its row sums: ``(indptr, indices, weights, degrees)``.

        An edge ``i - j`` exists when either node lists the other, weighs the
        larger of the two directed weights (so ``D - W`` is positive
        semi-definite), and is dropped at weight 0.  Columns ascend within a
        row, and the degrees are ``np.add.reduceat`` over each row's weights:
        the layout and summation of ``scipy.sparse``, whose bits ``M_D`` keeps.
        """
        if self._csr is None:
            count, k = self.neighbor_ids.shape
            sources = np.repeat(np.arange(count), k)
            targets = self.neighbor_ids.ravel().astype(np.int64)
            # Each directed edge stands for both of its entries in W; a mutual
            # pair then holds two entries under one (row, column) key.
            keys = np.concatenate([sources * count + targets, targets * count + sources])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            firsts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            weights = np.tile(self.neighbor_weights.ravel(), 2)[order]
            weights = np.maximum.reduceat(weights, firsts)
            kept = weights != 0.0
            rows, indices = np.divmod(keys[firsts][kept], count)
            weights = weights[kept]
            indptr = np.searchsorted(rows, np.arange(count + 1))
            degrees = np.zeros(count)
            filled = np.flatnonzero(np.diff(indptr))
            degrees[filled] = np.add.reduceat(weights, indptr[filled])
            self._csr = (indptr, indices, weights, degrees)
        return self._csr

    def neighbors_of(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour ids and weights of one node."""
        if not 0 <= node < self.node_count:
            raise IndexingError(f"Unknown node {node}")
        return self.neighbor_ids[node].copy(), self.neighbor_weights[node].copy()


def build_knn_graph(
    vectors: np.ndarray, config: "KnnGraphConfig | None" = None
) -> KnnGraph:
    """Build a :class:`KnnGraph` over ``vectors`` following ``config``."""
    config = config or KnnGraphConfig()
    neighbor_ids, neighbor_sims = exact_knn(vectors, k=config.k)
    squared = squared_distance_from_inner(neighbor_sims)
    sigma = config.sigma
    if config.adaptive_sigma:
        # The paper's sigma is tuned to CLIP's geometry; the adaptive floor
        # keeps the kernel informative for spaces with larger neighbour gaps.
        median_distance = float(np.median(np.sqrt(squared)))
        sigma = max(sigma, median_distance)
    weights = gaussian_similarity(squared, sigma=sigma)
    return KnnGraph(neighbor_ids=neighbor_ids, neighbor_weights=weights, sigma=sigma)
