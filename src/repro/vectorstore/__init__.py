"""Vector stores for maximum-inner-product lookup.

The paper uses Annoy, an approximate index.  This package provides an exact
scan store, :class:`RandomProjectionForest` (an Annoy-style forest of
random-hyperplane trees), :class:`QuantizedVectorStore` (int8 candidate
scoring with exact re-rank), :class:`GraphANNVectorStore` (navigable
kNN-graph greedy descent with exact re-rank — the sublinear candidate
tier), and :class:`ShardedVectorStore` (image-aligned
partitions of any of them, scored in parallel), behind one
:class:`VectorStore` interface.  Every store runs its scoring in a
configurable compute dtype (float64 bit-parity default, float32 fast tier).
Stores hold vectors only and answer in vector ids; the patch metadata (box,
scale level, owning image) lives once, as columns on the index.
"""

from repro.vectorstore.base import VectorStore
from repro.vectorstore.exact import ExactVectorStore
from repro.vectorstore.forest import RandomProjectionForest
from repro.vectorstore.graph import GraphANNVectorStore
from repro.vectorstore.quantized import QuantizedVectorStore
from repro.vectorstore.sharded import ShardedVectorStore

__all__ = [
    "VectorStore",
    "ExactVectorStore",
    "GraphANNVectorStore",
    "QuantizedVectorStore",
    "RandomProjectionForest",
    "ShardedVectorStore",
]
