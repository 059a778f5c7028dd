"""kNN graph with the matrices DB alignment and label propagation need.

The graph stores, for every vector, its ``k`` nearest neighbours and the
Gaussian edge weight between them.  From those it derives the (symmetrised)
sparse adjacency matrix ``W``, the diagonal degree matrix ``D``, and the graph
Laplacian ``D - W`` used in Equation 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import KnnGraphConfig
from repro.exceptions import IndexingError
from repro.knng.kernels import gaussian_similarity, squared_distance_from_inner
from repro.knng.nndescent import exact_knn, nn_descent
from repro.utils.linalg import ensure_dtype, unit_rows

# scipy.sparse is imported inside the methods that build a matrix: it is the
# package's only scipy dependency, and a server that loads an index without
# a graph should not pay for importing it.
if TYPE_CHECKING:
    from scipy import sparse


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
    vectors: np.ndarray,
    config: "KnnGraphConfig | None" = None,
    seed: int = 0,
) -> KnnGraph:
    """Build a :class:`KnnGraph` over ``vectors`` following ``config``.

    The exact chunked builder is the default; NN-descent is used when the
    configuration asks for it (matching the paper's choice for large data).
    """
    config = config or KnnGraphConfig()
    # Graph weights are always computed in float64 (edge weights feed the
    # Laplacian; a float32 store's rounding shouldn't reach the propagation
    # math), but a store's already-unit float64 rows flow through zero-copy:
    # ensure_dtype skips the conversion and unit_rows skips the re-divide
    # that used to copy the whole matrix per build.
    vectors = unit_rows(ensure_dtype(vectors, np.float64))
    if config.use_nn_descent:
        neighbor_ids, neighbor_sims = nn_descent(
            vectors,
            k=config.k,
            iterations=config.nn_descent_iterations,
            sample_rate=config.nn_descent_sample_rate,
            seed=seed,
        )
    else:
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
