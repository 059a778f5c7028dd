"""k-nearest-neighbour graph substrate.

DB alignment (§4.2), label propagation, and the ENS baseline all operate on a
kNN graph of the database vectors.  This package provides the exact (chunked
brute-force) builder and the Gaussian similarity kernel the paper uses for
edge weights.
"""

from repro.knng.graph import KnnGraph, build_knn_graph, exact_knn
from repro.knng.kernels import gaussian_similarity

__all__ = ["KnnGraph", "build_knn_graph", "exact_knn", "gaussian_similarity"]
