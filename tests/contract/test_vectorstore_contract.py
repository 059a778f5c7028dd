"""Cross-backend contract suite: every VectorStore obeys the same invariants.

One parametrized suite, run against the exact store, the random-projection
forest, the int8-quantized re-ranking store, the navigable-graph ANN store,
and the sharded wrapper around each — with the exact, quantized, and graph
backends additionally run in the float32 compute tier.  A new backend (or tier) earns the whole suite by
adding one line to ``BACKENDS`` — the invariants below are the interface
the query engine (and everything above it) is written against:

* returned scores are true inner products of the returned vectors;
* results come back best-first with deterministic ordering;
* exclusion masks are honored absolutely;
* edge cases (k > n, everything excluded, bad k, bad dimensions) are
  handled identically everywhere;
* ``score_all`` is deterministic and agrees with a manual scan and with
  the scores ``search_arrays`` reports;
* ``take`` and ``vector`` read exactly the rows of ``vectors``, on their
  own and as the base segment of a live ``DeltaVectorStore``;
* a live ``DeltaVectorStore`` over the backend scores base then delta rows
  into one column and never returns a tombstoned row.

Approximate backends may return *fewer or different* candidates than an
exact scan — the contract never asserts recall — but whatever they return
must satisfy every invariant above.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import VectorStoreError
from repro.live import DeltaVectorStore
from repro.vectorstore import (
    ExactVectorStore,
    GraphANNVectorStore,
    QuantizedVectorStore,
    RandomProjectionForest,
    ShardedVectorStore,
)

DIM = 24


def _atol(store) -> float:
    """Score-comparison tolerance matched to the store's compute tier.

    float64 backends are held to the historical 1e-12; the float32 tier
    carries ~1e-7 relative rounding, checked against float64 references.
    """
    return 1e-5 if store.compute_dtype == np.float32 else 1e-12


def _corpus(seed: int = 11, image_count: int = 30):
    """A multiscale-shaped corpus: images contribute 1-4 patch vectors.

    Returns the vectors and each vector's image row.
    """
    rng = np.random.default_rng(seed)
    image_rows = np.repeat(
        np.arange(image_count), rng.integers(1, 5, size=image_count)
    )
    vectors = rng.standard_normal((image_rows.size, DIM))
    return vectors, image_rows


BACKENDS = {
    "exact": lambda v, r: ExactVectorStore(v),
    "exact-f32": lambda v, r: ExactVectorStore(v, compute_dtype="float32"),
    "forest": lambda v, r: RandomProjectionForest(v, tree_count=4, leaf_size=8, seed=3),
    "quantized": lambda v, r: QuantizedVectorStore(v),
    "quantized-f32": lambda v, r: QuantizedVectorStore(v, compute_dtype="float32"),
    "sharded-exact": lambda v, r: ShardedVectorStore(v, r, n_shards=3),
    "sharded-exact-f32": lambda v, r: ShardedVectorStore(
        v, r, n_shards=3, compute_dtype="float32"
    ),
    "sharded-forest": lambda v, r: ShardedVectorStore.wrap(
        RandomProjectionForest(v, tree_count=4, leaf_size=8, seed=3), r, 2
    ),
    "sharded-quantized": lambda v, r: ShardedVectorStore.wrap(
        QuantizedVectorStore(v), r, 3
    ),
    "graph": lambda v, r: GraphANNVectorStore(v, graph_degree=8, ef=32),
    "graph-f32": lambda v, r: GraphANNVectorStore(
        v, graph_degree=8, ef=32, compute_dtype="float32"
    ),
    "sharded-graph": lambda v, r: ShardedVectorStore.wrap(
        GraphANNVectorStore(v, graph_degree=8, ef=32), r, 3
    ),
}


@pytest.fixture(scope="module", params=sorted(BACKENDS))
def store(request):
    vectors, image_rows = _corpus()
    return BACKENDS[request.param](vectors, image_rows)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(99)
    return rng.standard_normal((5, DIM))


class TestSearchContract:
    def test_scores_are_true_inner_products(self, store, queries):
        for query in queries:
            ids, scores = store.search_arrays(query, k=9)
            expected = np.asarray(store.vectors, dtype=np.float64)[ids] @ query
            assert np.allclose(scores, expected, rtol=0, atol=_atol(store))

    def test_results_sorted_best_first(self, store, queries):
        for query in queries:
            _, scores = store.search_arrays(query, k=12)
            assert np.all(np.diff(scores) <= 1e-15)

    def test_result_ids_unique_and_in_range(self, store, queries):
        for query in queries:
            ids, _ = store.search_arrays(query, k=15)
            assert np.unique(ids).size == ids.size
            assert ids.min() >= 0 and ids.max() < len(store)

    def test_search_is_deterministic(self, store, queries):
        for query in queries:
            first = store.search_arrays(query, k=10)
            second = store.search_arrays(query, k=10)
            assert np.array_equal(first[0], second[0])
            assert np.array_equal(first[1], second[1])


class TestExclusions:
    def test_exclusion_mask_honored(self, store, queries):
        rng = np.random.default_rng(5)
        for query in queries:
            mask = rng.random(len(store)) < 0.5
            ids, _ = store.search_arrays(query, k=len(store), exclude_mask=mask)
            assert not mask[ids].any()

    def test_everything_excluded_returns_empty(self, store, queries):
        mask = np.ones(len(store), dtype=bool)
        ids, scores = store.search_arrays(queries[0], k=4, exclude_mask=mask)
        assert ids.size == 0 and scores.size == 0
        assert ids.dtype == np.int64


class TestEdgeCases:
    def test_k_larger_than_store_caps_at_store_size(self, store, queries):
        ids, _ = store.search_arrays(queries[0], k=len(store) + 50)
        assert ids.size <= len(store)

    def test_k_below_one_raises(self, store, queries):
        with pytest.raises(VectorStoreError, match="k must be >= 1"):
            store.search_arrays(queries[0], k=0)

    def test_dimension_mismatch_raises(self, store):
        with pytest.raises(VectorStoreError, match="dimension"):
            store.search_arrays(np.zeros(DIM + 1), k=1)
        with pytest.raises(VectorStoreError, match="dimension"):
            store.score_all(np.zeros(DIM - 1))

    def test_unknown_vector_id_raises(self, store):
        with pytest.raises(VectorStoreError, match="Unknown vector id"):
            store.vector(len(store) + 1)
        with pytest.raises(VectorStoreError, match="Unknown vector id"):
            store.vector(-1)


class TestBulkScoring:
    def test_score_all_matches_manual_scan(self, store, queries):
        matrix = np.asarray(store.vectors, dtype=np.float64)
        for query in queries:
            assert np.allclose(
                store.score_all(query), matrix @ query, rtol=0, atol=_atol(store)
            )

    def test_score_all_is_deterministic(self, store, queries):
        for query in queries:
            first = store.score_all(query)
            assert first.shape == (len(store),)
            assert np.array_equal(first, store.score_all(query))

    def test_search_scores_agree_with_score_all(self, store, queries):
        # The engine reranks and full-scans through score_all and reads top-k
        # through search_arrays; both must report the same score per row.
        for query in queries:
            ids, scores = store.search_arrays(query, k=9)
            assert np.allclose(
                store.score_all(query)[ids], scores, rtol=0, atol=2 * _atol(store)
            )


class TestStructure:
    def test_vectors_are_unit_norm_and_read_only(self, store):
        norms = np.linalg.norm(store.vectors, axis=1)
        assert np.allclose(norms, 1.0)
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 1.0

    def test_compute_dtype_carried_by_every_score_array(self, store, queries):
        # The tier contract: scores leave the store in its compute dtype, so
        # the engine's pooling/selection kernels inherit the tier without
        # conversions.  Stored vectors live in the same dtype.
        dtype = store.compute_dtype
        assert dtype in (np.dtype(np.float64), np.dtype(np.float32))
        assert store.vectors.dtype == dtype
        assert store.score_all(queries[0]).dtype == dtype
        _, scores = store.search_arrays(queries[0], k=5)
        assert scores.dtype == dtype

    def test_exhaustive_flag_matches_backend_kind(self, store):
        # Exhaustive means the engine may full-scan via score_all; a sharded
        # store is exhaustive exactly when every shard is.
        if isinstance(store, ShardedVectorStore):
            expected = all(inner.exhaustive for inner in store.shard_stores)
        else:
            expected = isinstance(store, ExactVectorStore)
        assert store.exhaustive == expected


def _with_delta(base, delta_count: int = 5, seed: int = 7) -> DeltaVectorStore:
    """``base`` plus unit delta rows, with base and delta rows tombstoned."""
    rng = np.random.default_rng(seed)
    n_base = len(base)
    delta = rng.standard_normal((delta_count, DIM))
    delta /= np.linalg.norm(delta, axis=1, keepdims=True)
    tombstones = np.zeros(n_base + delta_count, dtype=bool)
    tombstones[[0, 3, n_base + 1]] = True
    return DeltaVectorStore(base, delta, tombstones)


class TestTake:
    def test_take_is_vectors_gather_bit_for_bit(self, store):
        ids = np.random.default_rng(5).permutation(len(store))[:17]
        gathered = store.take(ids)
        assert gathered.dtype == store.compute_dtype
        assert np.array_equal(gathered, store.vectors[ids])

    def test_take_empty_keeps_shape_and_dtype(self, store):
        gathered = store.take(np.zeros(0, dtype=np.int64))
        assert gathered.shape == (0, store.dim)
        assert gathered.dtype == store.compute_dtype

    def test_take_rejects_out_of_range_ids(self, store):
        for bad in ([len(store)], [-1]):
            with pytest.raises(VectorStoreError, match="vector ids"):
                store.take(np.asarray(bad))

    def test_delta_take_mixes_segments_in_any_order(self, store):
        live = _with_delta(store)
        n_base = len(store)
        # Base and delta ids interleaved, tombstoned rows and repeats included.
        ids = np.asarray([n_base + 4, 0, n_base + 1, 3, n_base, n_base - 1, 0, 2])
        gathered = live.take(ids)
        assert gathered.dtype == store.compute_dtype
        assert np.array_equal(gathered, live.vectors[ids])
        everything = np.random.default_rng(3).permutation(len(live))
        assert np.array_equal(live.take(everything), live.vectors[everything])

    def test_delta_take_edge_cases(self, store):
        live = _with_delta(store)
        empty = live.take(np.zeros(0, dtype=np.int64))
        assert empty.shape == (0, live.dim) and empty.dtype == store.compute_dtype
        base_only = np.arange(len(store))[::-1]
        assert np.array_equal(live.take(base_only), store.vectors[base_only])
        with pytest.raises(VectorStoreError, match="vector ids"):
            live.take(np.asarray([len(live)]))

    def test_vector_is_a_copy_of_its_row(self, store):
        for vector_id in (0, len(store) // 2, len(store) - 1):
            row = store.vector(vector_id)
            assert np.array_equal(row, store.vectors[vector_id])
            row[0] += 1.0
            assert not np.array_equal(row, store.vectors[vector_id])


class TestDeltaOverBackend:
    """A live view over the backend: base kernel + delta kernel, tombstones out."""

    def test_delta_score_all_is_base_then_delta(self, store, queries):
        live = _with_delta(store)
        n_base = len(store)
        for query in queries:
            column = live.score_all(query)
            assert np.array_equal(column[:n_base], store.score_all(query))
            expected = np.asarray(live.vectors[n_base:], dtype=np.float64) @ query
            assert np.allclose(column[n_base:], expected, rtol=0, atol=_atol(store))

    def test_delta_search_never_returns_tombstoned_rows(self, store, queries):
        live = _with_delta(store)
        for query in queries:
            ids, scores = live.search_arrays(query, k=len(live))
            assert not live.tombstones[ids].any()
            assert np.all(np.diff(scores) <= 1e-15)

    def test_delta_search_finds_a_delta_row_by_itself(self, store):
        live = _with_delta(store)
        n_base = len(store)
        ids, _ = live.search_arrays(live.vectors[n_base + 2], k=1)
        assert ids.tolist() == [n_base + 2]
