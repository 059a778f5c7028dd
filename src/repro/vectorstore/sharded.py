"""Sharded vector store: image-aligned partitions scored in parallel.

The ROADMAP's scaling story starts here: one :class:`ShardedVectorStore`
partitions the stored vectors into ``n_shards`` contiguous, **image-aligned**
ranges (an image's patch vectors never straddle a shard boundary), builds an
independent inner :class:`VectorStore` over each range, and fans queries out
to the shards on a thread pool — NumPy kernels release the GIL, so shard
scoring overlaps on multi-core hosts.

Equivalence is a hard guarantee, not a best effort:

* ``score_all`` writes each shard's :func:`~repro.utils.linalg.dot_rows`
  output into one global score column.  ``dot_rows`` is bit-stable under row
  partitioning, so the column is **bit-identical** to the unsharded scan.
* ``search_arrays`` takes each shard's local top-``k``, offsets the ids back
  into the global id space, and re-ranks the merged candidates exactly.  Any
  vector in the global top-``k`` is necessarily in its own shard's local
  top-``k``, so the merge is an exact global top-``k``; ties are broken by
  ascending vector id, the same deterministic rule the exact store uses.

The wrapper subclasses :class:`VectorStore`, so every base accessor
(``vector``, ``vectors``, ``take``) works on the global id space unchanged,
and the query engine drives a sharded store through the very same interface
as a flat one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import VectorStoreError
from repro.obs import trace_span
from repro.vectorstore.base import VectorStore, deterministic_top_k
from repro.vectorstore.exact import ExactVectorStore
from repro.vectorstore.forest import RandomProjectionForest
from repro.vectorstore.graph import GraphANNVectorStore
from repro.vectorstore.quantized import QuantizedVectorStore

StoreFactory = Callable[[np.ndarray], VectorStore]


@dataclass(frozen=True)
class _Shard:
    """One partition: a global id range plus the store built over it."""

    start: int
    stop: int
    store: VectorStore

    def __len__(self) -> int:
        return self.stop - self.start


class ShardedVectorStore(VectorStore):
    """Image-aligned shards of any :class:`VectorStore`, scored in parallel.

    ``image_rows`` names each vector's image (the index's
    ``segments.vector_image_rows`` column); shard bounds never split an image.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        image_rows: np.ndarray,
        n_shards: int = 2,
        store_factory: "StoreFactory | None" = None,
        compute_dtype: "np.dtype | str | None" = None,
    ) -> None:
        super().__init__(vectors, compute_dtype=compute_dtype)
        if n_shards < 1:
            raise VectorStoreError(f"n_shards must be >= 1, got {n_shards}")
        factory = store_factory or ExactVectorStore
        bounds = self._shard_bounds(np.asarray(image_rows), len(self), n_shards)
        shards: "list[_Shard]" = []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            start, stop = int(start), int(stop)
            inner = factory(self._vectors[start:stop])
            # The inner store's construction copy holds the same bits as the
            # wrapper's rows (unit rows are preserved verbatim); swapping in
            # a view of the wrapper's matrix drops the copy so sharding does
            # not double the corpus's resident memory.
            inner._share_vectors(self._vectors[start:stop])
            shards.append(_Shard(start=start, stop=stop, store=inner))
        self._shards: "tuple[_Shard, ...]" = tuple(shards)
        # Exhaustive iff every shard full-scans: the engine may then drive
        # this store through score_all exactly like a flat exact store.
        self.exhaustive = all(shard.store.exhaustive for shard in self._shards)
        self._executor: "ThreadPoolExecutor | None" = None

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_bounds(image_rows: np.ndarray, count: int, n_shards: int) -> np.ndarray:
        """Split points: image-aligned, as close to an even split as possible."""
        if image_rows.shape != (count,):
            raise VectorStoreError(
                f"image_rows must name the image of each of the {count} vectors, "
                f"got shape {image_rows.shape}"
            )
        change_points = np.flatnonzero(np.diff(image_rows) != 0) + 1
        if np.unique(image_rows).size != change_points.size + 1:
            raise VectorStoreError(
                "image-aligned sharding requires each image's vectors to be "
                "stored contiguously"
            )
        boundaries = np.concatenate(([0], change_points, [count]))
        targets = np.linspace(0, count, min(n_shards, boundaries.size - 1) + 1)
        # Snap each even-split target to the nearest image boundary; dedupe
        # keeps the bounds strictly increasing when images are few or lumpy.
        positions = boundaries[
            np.abs(boundaries[:, None] - targets[None, :]).argmin(axis=0)
        ]
        positions[0], positions[-1] = 0, count
        return np.unique(positions)

    @classmethod
    def wrap(
        cls, store: VectorStore, image_rows: np.ndarray, n_shards: int
    ) -> "ShardedVectorStore":
        """Shard an existing flat store (the service's runtime topology knob).

        The inner stores are rebuilt from the wrapped store's vectors with
        the same kind and parameters; wrapping an already sharded store
        reshards its flat content.
        """
        # Kind/parameters come from the flat template store (the inner store
        # when resharding), but the vectors always come from `store` itself —
        # the wrapper holds the full corpus.
        template = store.shard_example if isinstance(store, ShardedVectorStore) else store
        factory: StoreFactory
        if isinstance(template, RandomProjectionForest):
            forest = template

            def factory(vectors: np.ndarray) -> VectorStore:
                return RandomProjectionForest(
                    vectors,
                    tree_count=forest.tree_count,
                    leaf_size=forest.leaf_size,
                    seed=forest.seed,
                )

        elif isinstance(template, GraphANNVectorStore):
            graph = template

            def factory(vectors: np.ndarray) -> VectorStore:
                # Each shard builds its own navigable graph over its slice;
                # descent then runs per shard and the wrapper's deterministic
                # merge selects across the shard-local candidate sets.
                return GraphANNVectorStore(
                    vectors,
                    graph_degree=graph.graph_degree,
                    ef=graph.ef,
                )

        elif isinstance(template, QuantizedVectorStore):
            quantized = template

            def factory(vectors: np.ndarray) -> VectorStore:
                return QuantizedVectorStore(vectors, rerank_factor=quantized.rerank_factor)

        elif isinstance(template, ExactVectorStore):
            factory = ExactVectorStore
        else:
            raise VectorStoreError(
                f"Cannot infer a shard factory for {type(template).__name__}; "
                "construct ShardedVectorStore with an explicit store_factory"
            )
        return cls(store.vectors, image_rows, n_shards, store_factory=factory)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of effective shards (≤ requested when images are few)."""
        return len(self._shards)

    @property
    def shard_sizes(self) -> "tuple[int, ...]":
        """Vector count of each shard, in global id order."""
        return tuple(len(shard) for shard in self._shards)

    @property
    def shard_stores(self) -> "tuple[VectorStore, ...]":
        """The inner per-shard stores, in global id order."""
        return tuple(shard.store for shard in self._shards)

    @property
    def shard_example(self) -> VectorStore:
        """One inner store — the kind/parameter template for serialization."""
        return self._shards[0].store

    # ------------------------------------------------------------------
    # parallel dispatch
    # ------------------------------------------------------------------
    def _map_shards(self, task: "Callable[[_Shard], object]") -> "list[object]":
        if len(self._shards) == 1:
            return [task(self._shards[0])]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=len(self._shards), thread_name_prefix="seesaw-shard"
            )
        return list(self._executor.map(task, self._shards))

    def close(self) -> None:
        """Release the scoring thread pool (safe to call repeatedly)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # scoring kernels
    # ------------------------------------------------------------------
    def score_all(self, query: np.ndarray) -> np.ndarray:
        """Bit-identical to the flat scan: shards fill one global column."""
        query = self._check_query(query)
        out = np.empty(len(self), dtype=self.compute_dtype)

        def run(shard: _Shard) -> None:
            out[shard.start : shard.stop] = shard.store.score_all(query)

        self._map_shards(run)
        return out

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        if k < 1:
            raise VectorStoreError(f"k must be >= 1, got {k}")
        query = self._check_query(query)
        if exclude_mask is not None and exclude_mask.shape[0] != len(self):
            raise VectorStoreError(
                f"exclude_mask covers {exclude_mask.shape[0]} vectors, "
                f"store holds {len(self)}"
            )

        def run(shard: _Shard) -> "tuple[np.ndarray, np.ndarray]":
            shard_mask = (
                None if exclude_mask is None else exclude_mask[shard.start : shard.stop]
            )
            ids, scores = shard.store.search_arrays(
                query, min(k, len(shard)), exclude_mask=shard_mask
            )
            return ids + shard.start, scores

        parts: "list[tuple[np.ndarray, np.ndarray]]" = self._map_shards(run)  # type: ignore[assignment]
        with trace_span("merge", shards=len(parts)):
            ids = np.concatenate([part[0] for part in parts])
            scores = np.concatenate([part[1] for part in parts])
            if ids.size == 0:
                return (
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=self.compute_dtype),
                )
            # Select and order with the exact store's deterministic rule
            # (score desc, global id asc, ties resolved smallest-id-first at
            # the k-th boundary) so the merged result is bit-identical to the
            # unsharded result even when a tie group straddles the cut.
            top = deterministic_top_k(scores, ids, k)
            return ids[top], scores[top]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def search_arrays_per_shard(
        self, query: np.ndarray, k: int
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Each shard's local top-``k`` in global ids (inspection/debugging)."""
        query = self._check_query(query)
        results: "list[tuple[np.ndarray, np.ndarray]]" = []
        for shard in self._shards:
            ids, scores = shard.store.search_arrays(query, min(k, len(shard)))
            results.append((ids + shard.start, scores))
        return results

