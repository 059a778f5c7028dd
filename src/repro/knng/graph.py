"""kNN graph with the matrices DB alignment and label propagation need.

:func:`exact_knn` finds every vector's ``k`` nearest neighbours with one
chunked brute-force scan; it is the only kNN builder, shared by the index
build and the graph-ANN store tier.  The graph stores, for every vector, its
``k`` nearest neighbours and the Gaussian edge weight between them.  From
those it derives the (symmetrised) sparse adjacency matrix ``W``, the
diagonal degree matrix ``D``, and the graph Laplacian ``D - W`` used in
Equation 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import KnnGraphConfig
from repro.exceptions import IndexingError
from repro.knng.kernels import gaussian_similarity, squared_distance_from_inner
from repro.utils.linalg import ensure_dtype, unit_rows

# scipy.sparse is imported inside the methods that build a matrix: it is the
# package's only scipy dependency, and a server that loads an index without
# a graph should not pay for importing it.
if TYPE_CHECKING:
    from scipy import sparse


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


@dataclass
class KnnGraph:
    """A weighted, symmetrised k-nearest-neighbour graph.

    The derived matrices (adjacency, row-normalized transition) are cached
    after first use: the propagation baseline asks for the transition matrix
    on every feedback round, and rebuilding ``D^{-1} W`` from the neighbour
    arrays each time dominated its per-round cost.
    """

    neighbor_ids: np.ndarray
    neighbor_weights: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if self.neighbor_ids.shape != self.neighbor_weights.shape:
            raise IndexingError("neighbor ids and weights must have the same shape")
        if self.neighbor_ids.ndim != 2:
            raise IndexingError("neighbor arrays must be 2-d (count x k)")
        self._adjacency: "sparse.csr_matrix | None" = None
        self._transition: "sparse.csr_matrix | None" = None

    @property
    def node_count(self) -> int:
        """Number of nodes (database vectors) in the graph."""
        return self.neighbor_ids.shape[0]

    @property
    def k(self) -> int:
        """Number of neighbours stored per node."""
        return self.neighbor_ids.shape[1]

    def adjacency(self) -> sparse.csr_matrix:
        """The symmetrised sparse adjacency matrix ``W`` (cached).

        Symmetrisation takes the maximum of the two directed edge weights so
        the Laplacian is positive semi-definite, the standard construction for
        label propagation.
        """
        if self._adjacency is None:
            from scipy import sparse

            count, k = self.neighbor_ids.shape
            rows = np.repeat(np.arange(count), k)
            cols = self.neighbor_ids.ravel()
            data = self.neighbor_weights.ravel()
            directed = sparse.csr_matrix((data, (rows, cols)), shape=(count, count))
            self._adjacency = directed.maximum(directed.T)
        return self._adjacency

    def transition(self) -> sparse.csr_matrix:
        """The row-normalized transition matrix ``D^{-1} W`` (cached).

        This is the operator one label-propagation sweep applies; isolated
        nodes (zero degree) keep a zero row, implemented by treating their
        degree as 1.  Computed once per graph and reused by every
        ``propagate_labels`` call — i.e. every feedback round of the
        propagation baseline.
        """
        if self._transition is None:
            from scipy import sparse

            adjacency = self.adjacency()
            degrees = np.asarray(adjacency.sum(axis=1)).ravel()
            degrees[degrees == 0.0] = 1.0
            self._transition = sparse.diags(1.0 / degrees) @ adjacency
        return self._transition

    def degree(self, adjacency: "sparse.csr_matrix | None" = None) -> sparse.csr_matrix:
        """The diagonal degree matrix ``D`` (row sums of ``W``)."""
        from scipy import sparse

        if adjacency is None:
            adjacency = self.adjacency()
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        return sparse.diags(degrees, format="csr")

    def laplacian(self) -> sparse.csr_matrix:
        """The unnormalised graph Laplacian ``D - W`` of Equation 4."""
        adjacency = self.adjacency()
        return (self.degree(adjacency) - adjacency).tocsr()

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
    # Graph weights are always computed in float64 (edge weights feed the
    # Laplacian; a float32 store's rounding shouldn't reach the propagation
    # math), but a store's already-unit float64 rows flow through zero-copy:
    # ensure_dtype skips the conversion and unit_rows skips the re-divide
    # that used to copy the whole matrix per build.
    vectors = unit_rows(ensure_dtype(vectors, np.float64))
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
