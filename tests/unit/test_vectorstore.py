"""Tests for the exact, Annoy-style, graph-ANN and sharded vector stores."""

import numpy as np
import pytest

from repro.exceptions import VectorStoreError
from repro.utils.linalg import normalize_rows
from repro.vectorstore.exact import ExactVectorStore
from repro.vectorstore.forest import RandomProjectionForest
from repro.vectorstore.graph import GraphANNVectorStore


def exclude(count: int, *vector_ids: int) -> np.ndarray:
    mask = np.zeros(count, dtype=bool)
    mask[list(vector_ids)] = True
    return mask


@pytest.fixture()
def vectors(rng):
    return normalize_rows(rng.standard_normal((200, 32)))


class TestExactVectorStore:
    def test_search_returns_true_top_k(self, vectors):
        store = ExactVectorStore(vectors)
        query = vectors[17]
        ids, _ = store.search_arrays(query, k=5)
        scores = vectors @ query
        expected = set(np.argsort(-scores)[:5].tolist())
        assert set(ids.tolist()) == expected
        assert ids[0] == 17

    def test_scores_are_sorted_descending(self, vectors):
        store = ExactVectorStore(vectors)
        _, scores = store.search_arrays(store.vectors[0], k=10)
        scores = scores.tolist()
        assert scores == sorted(scores, reverse=True)

    def test_exclusion(self, vectors):
        store = ExactVectorStore(vectors)
        ids, _ = store.search_arrays(vectors[3], k=3, exclude_mask=exclude(200, 3))
        assert 3 not in ids.tolist()

    def test_k_larger_than_store(self, vectors):
        store = ExactVectorStore(vectors[:5])
        assert len(store.search_arrays(vectors[0], k=50)[0]) == 5

    def test_dimension_mismatch(self, vectors):
        store = ExactVectorStore(vectors)
        with pytest.raises(VectorStoreError):
            store.search_arrays(np.zeros(7), k=1)

    def test_invalid_k(self, vectors):
        store = ExactVectorStore(vectors)
        with pytest.raises(VectorStoreError):
            store.search_arrays(store.vectors[0], k=0)

    def test_vector_lookup(self, vectors):
        store = ExactVectorStore(vectors)
        assert np.array_equal(store.vector(4), vectors[4])
        with pytest.raises(VectorStoreError):
            store.vector(10_000)

    def test_empty_store_rejected(self):
        with pytest.raises(VectorStoreError):
            ExactVectorStore(np.zeros((0, 8)))

    def test_vectors_are_read_only(self, vectors):
        store = ExactVectorStore(vectors)
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 5.0

    def test_score_all(self, vectors):
        store = ExactVectorStore(vectors)
        scores = store.score_all(vectors[0])
        assert scores.shape == (200,)
        assert scores[0] == pytest.approx(1.0)


class TestRandomProjectionForest:
    def test_high_recall_against_exact(self, vectors):
        forest = RandomProjectionForest(vectors, tree_count=10, leaf_size=16, seed=0)
        queries = vectors[:20]
        recall = forest.recall_against_exact(queries, k=10)
        assert recall > 0.85

    def test_search_excludes_ids(self, vectors):
        forest = RandomProjectionForest(vectors, seed=1)
        ids, _ = forest.search_arrays(vectors[7], k=5, exclude_mask=exclude(200, 7))
        assert 7 not in ids.tolist()

    def test_self_query_finds_itself(self, vectors):
        forest = RandomProjectionForest(vectors, tree_count=10, seed=2)
        ids, _ = forest.search_arrays(vectors[42], k=1)
        assert ids.size and ids[0] == 42

    def test_invalid_parameters(self, vectors):
        with pytest.raises(VectorStoreError):
            RandomProjectionForest(vectors, tree_count=0)
        with pytest.raises(VectorStoreError):
            RandomProjectionForest(vectors, leaf_size=1)

    def test_handles_duplicate_vectors(self):
        vectors = np.tile(np.array([[1.0, 0.0, 0.0]]), (50, 1))
        forest = RandomProjectionForest(vectors, leaf_size=4, seed=0)
        ids, _ = forest.search_arrays(np.array([1.0, 0.0, 0.0]), k=5)
        assert len(ids) == 5


class TestGraphANNConstruction:
    def test_large_corpus_adjacency_holds_every_exact_edge(self, rng):
        """The graph tier builds on the exact kNN scan at every corpus size.

        4 200 vectors is above the size where an approximate builder used
        to take over; the symmetrised adjacency must still contain every
        directed edge of the exact kNN graph.
        """
        from repro.knng.graph import exact_knn

        count, degree = 4200, 8
        vectors = normalize_rows(rng.standard_normal((count, 16)))
        graph = GraphANNVectorStore(vectors, graph_degree=degree)
        exact_ids, _ = exact_knn(graph.vectors, k=degree)
        offsets = graph.graph_offsets
        neighbors = graph.graph_neighbors.astype(np.int64)
        sources = np.repeat(np.arange(count), np.diff(offsets))
        edges = set(zip(sources.tolist(), neighbors.tolist()))
        expected = zip(
            np.repeat(np.arange(count), degree).tolist(), exact_ids.ravel().tolist()
        )
        assert all(edge in edges for edge in expected)


class TestShardedVectorStore:
    """Construction/validation edges; equivalence lives in the property suite."""

    def test_n_shards_below_one_rejected(self, vectors):
        from repro.vectorstore.sharded import ShardedVectorStore

        with pytest.raises(VectorStoreError, match="n_shards"):
            ShardedVectorStore(vectors, np.arange(200), n_shards=0)

    def test_non_contiguous_image_layout_rejected(self, rng):
        from repro.vectorstore.sharded import ShardedVectorStore

        # Image 0's vectors are split around image 1's: no contiguous split
        # point can keep images whole.
        image_rows = np.array([0, 1, 0])
        with pytest.raises(VectorStoreError, match="contiguously"):
            ShardedVectorStore(rng.standard_normal((3, 8)), image_rows, n_shards=2)

    def test_image_rows_must_cover_every_vector(self, rng):
        from repro.vectorstore.sharded import ShardedVectorStore

        with pytest.raises(VectorStoreError, match="image_rows"):
            ShardedVectorStore(rng.standard_normal((3, 8)), np.arange(2), n_shards=2)

    def test_shard_count_capped_by_image_count(self, rng):
        from repro.vectorstore.sharded import ShardedVectorStore

        store = ShardedVectorStore(rng.standard_normal((4, 8)), np.arange(4), n_shards=99)
        assert store.n_shards <= 4
        assert sum(store.shard_sizes) == 4

    def test_wrap_unknown_store_kind_needs_factory(self, vectors):
        from repro.vectorstore.base import VectorStore
        from repro.vectorstore.sharded import ShardedVectorStore

        class OpaqueStore(VectorStore):
            def search_arrays(self, query, k, exclude_mask=None):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(VectorStoreError, match="store_factory"):
            ShardedVectorStore.wrap(OpaqueStore(vectors), np.arange(200), 2)

    def test_wrap_resharding_a_sharded_store(self, vectors):
        from repro.vectorstore.sharded import ShardedVectorStore

        image_rows = np.arange(200)
        twice = ShardedVectorStore.wrap(
            ShardedVectorStore(vectors, image_rows, n_shards=2), image_rows, 4
        )
        assert twice.n_shards == 4
        flat = ExactVectorStore(vectors)
        query = vectors[3]
        assert np.array_equal(flat.score_all(query), twice.score_all(query))

    def test_close_is_idempotent(self, vectors):
        from repro.vectorstore.sharded import ShardedVectorStore

        store = ShardedVectorStore(vectors, np.arange(200), n_shards=3)
        store.score_all(vectors[0])  # spins up the pool
        store.close()
        store.close()
        # Scoring after close lazily rebuilds the pool.
        assert store.score_all(vectors[1]).shape == (len(store),)

    def test_per_shard_diagnostics_cover_the_global_top(self, vectors):
        from repro.vectorstore.sharded import ShardedVectorStore

        store = ShardedVectorStore(vectors, np.arange(200), n_shards=4)
        query = vectors[11]
        per_shard = store.search_arrays_per_shard(query, k=6)
        assert len(per_shard) == store.n_shards
        local_ids = np.concatenate([ids for ids, _ in per_shard])
        global_ids, _ = store.search_arrays(query, k=6)
        # The exact global top-k is always a subset of the shard-local tops —
        # the invariant the merge's exactness proof rests on.
        assert set(global_ids.tolist()) <= set(local_ids.tolist())

    def test_shards_share_the_wrapper_matrix(self, vectors):
        """Sharding must not double vector memory: inner stores hold views."""
        from repro.vectorstore.sharded import ShardedVectorStore

        store = ShardedVectorStore(vectors, np.arange(200), n_shards=4)
        wrapper_matrix = np.asarray(store.vectors)
        for inner in store.shard_stores:
            assert np.shares_memory(np.asarray(inner.vectors), wrapper_matrix)
