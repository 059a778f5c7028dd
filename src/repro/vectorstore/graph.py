"""Navigable-graph ANN tier: sublinear candidate generation with exact rerank.

Every other store tier — exact, quantized+rerank, sharded — still scores all
N vectors per round, which caps throughput at brute-force memory bandwidth.
This store repurposes the paper's kNN graph (built with the same exact
chunked scan as the index's graph, :func:`repro.knng.graph.exact_knn`) into
a *navigable* proximity graph in the HNSW spirit (Malkov & Yashunin):

1. **construction** — the kNN graph's directed edges are symmetrised into a
   CSR adjacency (every edge walkable in both directions), and an **entry
   pool** is chosen: the node nearest the corpus centroid plus an id-stride
   sample of ~4·sqrt(N) nodes across the whole corpus.  The pool plays the
   role of HNSW's upper layers — coarse coverage that lets greedy descent
   start near any region without maintaining a hierarchy;
2. **descent** — a query first scores the entry pool in one small GEMV and
   seeds the walk from the pool's best few nodes, then greedily walks the
   graph best-first with a bounded candidate heap (`ef` beam width): the
   best unexpanded node is popped, its unvisited neighbours are scored in
   one vectorised gather-GEMV, and anything better than the current ef-th
   best re-enters the frontier.  The walk stops when the frontier cannot
   improve the beam — touching a small, query-adaptive fraction of the
   corpus;
3. **exact rerank** — the beam's candidates are re-scored with true inner
   products in the compute dtype and the final top-``k`` is selected with
   the shared deterministic (score desc, id asc) rule, the same contract the
   quantized tier's rerank pass honors.

``exhaustive = False``: the query engine drives this store through the
masked candidate API with its widening schedule.  ``score_all`` stays an
exact full scan for the baselines.  When the effective beam covers the
whole store (tiny corpora, or ``k`` widened to the corpus size) the search
falls back to the exact masked scan, so results degrade to exact rather
than to a pointless whole-graph walk.

Exclusions are handled the standard graph-ANN way: excluded nodes are
*traversed* (they keep the graph connected) but never *collected*.  The
engine inflates ``k`` by the exclusion count, which inflates the beam in
step, so exclusions do not starve the result list.

The store is a runtime tier: the index cache persists only the vectors, and
the adjacency is rebuilt from them whenever the tier is applied.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.exceptions import VectorStoreError
from repro.knng.graph import exact_knn
from repro.obs import trace_registry, trace_span
from repro.vectorstore.base import VectorStore, deterministic_top_k

ANN_HOPS_METRIC = "seesaw_ann_hops_total"
ANN_HOPS_HELP = (
    "Graph-ANN node expansions (hops) performed by GraphANNVectorStore "
    "descents."
)

_ENTRY_POOL_MIN = 32
"""Floor on the id-stride entry pool (plus the centroid node)."""

_ENTRY_POOL_FACTOR = 4
"""Entry pool size scales as ``factor * sqrt(count)``: large enough that
some pool node lands near every corpus region (the coarse-coverage role of
HNSW's upper layers), small enough that scoring the whole pool per query is
one negligible GEMV."""

_SEED_COUNT = 8
"""How many of the best-scoring pool nodes seed each descent."""


class GraphANNVectorStore(VectorStore):
    """Greedy best-first search over a navigable kNN graph, exact rerank."""

    exhaustive = False

    def __init__(
        self,
        vectors: np.ndarray,
        graph_degree: int = 16,
        ef: int = 64,
        compute_dtype: "np.dtype | str | None" = None,
    ) -> None:
        super().__init__(vectors, compute_dtype=compute_dtype)
        if graph_degree < 2:
            raise VectorStoreError(
                f"graph_degree must be >= 2, got {graph_degree}"
            )
        if ef < 1:
            raise VectorStoreError(f"ef must be >= 1, got {ef}")
        self.graph_degree = int(graph_degree)
        self.ef = int(ef)
        self._build_adjacency()
        self._last_stats: "dict[str, int]" = {"hops": 0, "visited": 0}
        self._hops_registry = None
        self._hops_counter = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> None:
        """Build the navigable graph from the store's own (unit) vectors."""
        count = len(self)
        if count < 2:
            self._offsets = np.zeros(count + 1, dtype=np.int64)
            self._neighbors = np.zeros(0, dtype=np.int32)
            self._entries = np.zeros(1, dtype=np.int64)
            return
        degree = min(self.graph_degree, count - 1)
        neighbor_ids, _ = exact_knn(self._vectors, k=degree)
        # Symmetrise into CSR: every directed kNN edge becomes walkable in
        # both directions, which is what makes greedy descent navigable —
        # a node can be *entered* through any node that considers it near.
        sources = np.repeat(np.arange(count, dtype=np.int64), degree)
        targets = neighbor_ids.ravel().astype(np.int64)
        edge_src = np.concatenate([sources, targets])
        edge_dst = np.concatenate([targets, sources])
        order = np.lexsort((edge_dst, edge_src))
        edge_src = edge_src[order]
        edge_dst = edge_dst[order]
        keep = np.ones(edge_src.size, dtype=bool)
        keep[1:] = (edge_src[1:] != edge_src[:-1]) | (edge_dst[1:] != edge_dst[:-1])
        edge_src = edge_src[keep]
        edge_dst = edge_dst[keep]
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_src, minlength=count), out=offsets[1:])
        self._offsets = offsets
        self._neighbors = edge_dst.astype(np.int32)
        self._entries = self._choose_entries()

    def _choose_entries(self) -> np.ndarray:
        """Entry pool: centroid-nearest node + an id-stride long-range sample.

        The pool substitutes for HNSW's hierarchy: nodes spread across the
        id space guarantee every region of the corpus is a short walk from
        some starting point, without maintaining upper layers.  At query
        time the pool is scored in one GEMV and only its best few nodes
        seed the walk, so a bigger pool buys coverage, not beam width.
        """
        count = len(self)
        centroid = np.asarray(self._vectors, dtype=np.float64).mean(axis=0)
        medoid = int(np.argmax(self._vectors @ centroid.astype(self.compute_dtype)))
        pool_size = min(
            count,
            max(_ENTRY_POOL_MIN, _ENTRY_POOL_FACTOR * int(np.sqrt(count))),
        )
        sample = np.linspace(0, count - 1, num=pool_size, dtype=np.int64)
        return np.unique(np.concatenate([[medoid], sample]))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def graph_offsets(self) -> np.ndarray:
        """CSR row offsets of the adjacency (``count + 1`` entries)."""
        return self._offsets

    @property
    def graph_neighbors(self) -> np.ndarray:
        """Flat neighbour ids, sliced per node by :attr:`graph_offsets`."""
        return self._neighbors

    @property
    def last_search_stats(self) -> "dict[str, int]":
        """Hops/visited counts of the most recent descent (diagnostics)."""
        return dict(self._last_stats)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _record_hops(self, hops: int) -> None:
        """Bump ``seesaw_ann_hops_total`` in the active telemetry registry.

        The resolved counter is memoized per registry identity (the same
        pattern the tracing runtime uses for stage children) so the hot
        path pays one attribute check, not a registry lock, per search.
        """
        registry = trace_registry()
        if self._hops_registry is not registry:
            self._hops_counter = registry.counter(ANN_HOPS_METRIC, ANN_HOPS_HELP)
            self._hops_registry = registry
        self._hops_counter.inc(hops)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
        ef: "int | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        if k < 1:
            raise VectorStoreError(f"k must be >= 1, got {k}")
        beam_ef = self.ef if ef is None else int(ef)
        if beam_ef < 1:
            raise VectorStoreError(f"ef must be >= 1, got {beam_ef}")
        query = self._check_query(query)
        count = len(self)
        beam = min(count, max(beam_ef, k))
        if beam >= count:
            # The beam covers the whole store: an exact masked scan is both
            # faster than walking every edge and exactly correct, so wide
            # requests (engine widening, tiny corpora) degrade to exact.
            scores = self._vectors @ query  # fresh array, safe to mask in place
            if exclude_mask is not None:
                scores[exclude_mask] = -np.inf
            ids = np.arange(count, dtype=np.int64)
            top = deterministic_top_k(scores, ids, min(k, count))
            top = top[np.isfinite(scores[top])]
            return ids[top], scores[top]
        with trace_span("graph_descent", ef=beam):
            candidates, hops = self._descend(query, beam, exclude_mask)
        self._record_hops(hops)
        if candidates.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=self.compute_dtype)
        # Exact rerank: true inner products in the compute dtype, selected
        # and ordered with the same deterministic rule as the exact store.
        with trace_span("rerank", candidates=int(candidates.size)):
            exact = self._vectors[candidates] @ query
            top = deterministic_top_k(exact, candidates, min(k, candidates.size))
            return candidates[top], exact[top]

    def _descend(
        self,
        query: np.ndarray,
        beam: int,
        exclude_mask: "np.ndarray | None",
    ) -> "tuple[np.ndarray, int]":
        """Greedy best-first walk; returns (candidate ids, hop count).

        The entry pool is scored in one GEMV and only its best few nodes
        seed the walk — scoring the pool is how a query finds its region
        without a layer hierarchy; seeding from all of it would just widen
        the beam with far-away nodes.  The frontier is a max-heap keyed
        ``(-score, id)`` — the id tiebreak makes the walk fully
        deterministic — and the beam is a min-heap of the best ``beam``
        collectible nodes seen so far.  A popped node expands by scoring
        all its unvisited neighbours in one gather-GEMV.
        """
        vectors = self._vectors
        offsets = self._offsets
        neighbors = self._neighbors
        visited = np.zeros(len(self), dtype=bool)
        pool = self._entries
        pool_scores = vectors[pool] @ query
        # Deterministic seed selection: score desc, id asc on ties.
        seed_order = np.lexsort((pool, -pool_scores))[:_SEED_COUNT]
        seeds = pool[seed_order]
        seed_scores = pool_scores[seed_order]
        visited[seeds] = True
        frontier: "list[tuple[float, int]]" = []
        best: "list[tuple[float, int]]" = []  # min-heap of (score, id)
        for score, node in zip(seed_scores.tolist(), seeds.tolist()):
            heapq.heappush(frontier, (-score, node))
            if exclude_mask is None or not exclude_mask[node]:
                if len(best) < beam:
                    heapq.heappush(best, (score, node))
                else:
                    heapq.heappushpop(best, (score, node))
        hops = 0
        while frontier:
            negated, node = heapq.heappop(frontier)
            if len(best) == beam and -negated < best[0][0]:
                break  # the frontier can no longer improve the beam
            fresh = neighbors[offsets[node] : offsets[node + 1]]
            fresh = fresh[~visited[fresh]]
            if fresh.size == 0:
                continue
            visited[fresh] = True
            hops += 1
            scores = vectors[fresh] @ query
            if len(best) == beam:
                # Prune: only nodes that beat the current ef-th best can
                # extend the walk or enter the beam.
                keep = scores > best[0][0]
                fresh = fresh[keep]
                scores = scores[keep]
            collectible = exclude_mask is None
            for score, neighbor in zip(scores.tolist(), fresh.tolist()):
                heapq.heappush(frontier, (-score, neighbor))
                if collectible or not exclude_mask[neighbor]:
                    if len(best) < beam:
                        heapq.heappush(best, (score, neighbor))
                    else:
                        heapq.heappushpop(best, (score, neighbor))
        self._last_stats = {"hops": hops, "visited": int(visited.sum())}
        if not best:
            return np.zeros(0, dtype=np.int64), hops
        return np.fromiter((node for _, node in best), dtype=np.int64, count=len(best)), hops

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def recall_against_exact(
        self, queries: np.ndarray, k: int = 10, ef: "int | None" = None
    ) -> float:
        """Average top-``k`` recall of the descent against an exact scan."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        total = 0.0
        for query in queries:
            exact_scores = np.asarray(self.vectors, dtype=np.float64) @ query
            exact_ids = np.arange(len(self), dtype=np.int64)
            exact_top = set(
                exact_ids[deterministic_top_k(exact_scores, exact_ids, k)].tolist()
            )
            approx_ids, _ = self.search_arrays(query, k=k, ef=ef)
            total += len(exact_top & set(approx_ids.tolist())) / max(1, len(exact_top))
        return total / queries.shape[0]
