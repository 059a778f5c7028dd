"""Tests for the exact, Annoy-style, graph-ANN and sharded vector stores."""

import numpy as np
import pytest

from repro.data.geometry import BoundingBox
from repro.exceptions import VectorStoreError
from repro.utils.linalg import normalize_rows
from repro.vectorstore.base import VectorRecord
from repro.vectorstore.exact import ExactVectorStore
from repro.vectorstore.forest import RandomProjectionForest
from repro.vectorstore.graph import GraphANNVectorStore


def make_records(count: int) -> list[VectorRecord]:
    box = BoundingBox(0, 0, 10, 10)
    return [VectorRecord(vector_id=i, image_id=i, box=box) for i in range(count)]


@pytest.fixture()
def store_data(rng):
    vectors = normalize_rows(rng.standard_normal((200, 32)))
    return vectors, make_records(200)


class TestExactVectorStore:
    def test_search_returns_true_top_k(self, store_data):
        vectors, records = store_data
        store = ExactVectorStore(vectors, records)
        query = vectors[17]
        hits = store.search(query, k=5)
        scores = vectors @ query
        expected = set(np.argsort(-scores)[:5].tolist())
        assert {hit.vector_id for hit in hits} == expected
        assert hits[0].vector_id == 17

    def test_scores_are_sorted_descending(self, store_data):
        store = ExactVectorStore(*store_data)
        hits = store.search(store.vectors[0], k=10)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_exclusion(self, store_data):
        vectors, records = store_data
        store = ExactVectorStore(vectors, records)
        hits = store.search(vectors[3], k=3, exclude_vector_ids={3})
        assert 3 not in {hit.vector_id for hit in hits}

    def test_k_larger_than_store(self, store_data):
        vectors, records = store_data
        store = ExactVectorStore(vectors[:5], records[:5])
        assert len(store.search(vectors[0], k=50)) == 5

    def test_dimension_mismatch(self, store_data):
        store = ExactVectorStore(*store_data)
        with pytest.raises(VectorStoreError):
            store.search(np.zeros(7), k=1)

    def test_invalid_k(self, store_data):
        store = ExactVectorStore(*store_data)
        with pytest.raises(VectorStoreError):
            store.search(store.vectors[0], k=0)

    def test_record_lookup(self, store_data):
        store = ExactVectorStore(*store_data)
        assert store.record(4).image_id == 4
        with pytest.raises(VectorStoreError):
            store.record(10_000)

    def test_records_must_match_positions(self, store_data):
        vectors, records = store_data
        bad = list(reversed(records))
        with pytest.raises(VectorStoreError):
            ExactVectorStore(vectors, bad)

    def test_empty_store_rejected(self):
        with pytest.raises(VectorStoreError):
            ExactVectorStore(np.zeros((0, 8)), [])

    def test_vectors_are_read_only(self, store_data):
        store = ExactVectorStore(*store_data)
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 5.0

    def test_score_all(self, store_data):
        vectors, records = store_data
        store = ExactVectorStore(vectors, records)
        scores = store.score_all(vectors[0])
        assert scores.shape == (200,)
        assert scores[0] == pytest.approx(1.0)


class TestRandomProjectionForest:
    def test_high_recall_against_exact(self, store_data):
        vectors, records = store_data
        forest = RandomProjectionForest(vectors, records, tree_count=10, leaf_size=16, seed=0)
        queries = vectors[:20]
        recall = forest.recall_against_exact(queries, k=10)
        assert recall > 0.85

    def test_search_excludes_ids(self, store_data):
        vectors, records = store_data
        forest = RandomProjectionForest(vectors, records, seed=1)
        hits = forest.search(vectors[7], k=5, exclude_vector_ids={7})
        assert 7 not in {hit.vector_id for hit in hits}

    def test_self_query_finds_itself(self, store_data):
        vectors, records = store_data
        forest = RandomProjectionForest(vectors, records, tree_count=10, seed=2)
        hits = forest.search(vectors[42], k=1)
        assert hits and hits[0].vector_id == 42

    def test_invalid_parameters(self, store_data):
        vectors, records = store_data
        with pytest.raises(VectorStoreError):
            RandomProjectionForest(vectors, records, tree_count=0)
        with pytest.raises(VectorStoreError):
            RandomProjectionForest(vectors, records, leaf_size=1)

    def test_handles_duplicate_vectors(self):
        vectors = np.tile(np.array([[1.0, 0.0, 0.0]]), (50, 1))
        forest = RandomProjectionForest(vectors, make_records(50), leaf_size=4, seed=0)
        hits = forest.search(np.array([1.0, 0.0, 0.0]), k=5)
        assert len(hits) == 5


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
        graph = GraphANNVectorStore(vectors, make_records(count), graph_degree=degree)
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

    def test_n_shards_below_one_rejected(self, store_data):
        from repro.vectorstore.sharded import ShardedVectorStore

        vectors, records = store_data
        with pytest.raises(VectorStoreError, match="n_shards"):
            ShardedVectorStore(vectors, records, n_shards=0)

    def test_non_contiguous_image_layout_rejected(self, rng):
        from repro.vectorstore.sharded import ShardedVectorStore

        box = BoundingBox(0, 0, 10, 10)
        # Image 0's vectors are split around image 1's: no contiguous split
        # point can keep images whole.
        records = [
            VectorRecord(vector_id=0, image_id=0, box=box),
            VectorRecord(vector_id=1, image_id=1, box=box),
            VectorRecord(vector_id=2, image_id=0, box=box),
        ]
        with pytest.raises(VectorStoreError, match="contiguously"):
            ShardedVectorStore(rng.standard_normal((3, 8)), records, n_shards=2)

    def test_shard_count_capped_by_image_count(self, rng):
        from repro.vectorstore.sharded import ShardedVectorStore

        box = BoundingBox(0, 0, 10, 10)
        records = [VectorRecord(vector_id=i, image_id=i, box=box) for i in range(4)]
        store = ShardedVectorStore(rng.standard_normal((4, 8)), records, n_shards=99)
        assert store.n_shards <= 4
        assert sum(store.shard_sizes) == 4

    def test_wrap_unknown_store_kind_needs_factory(self, store_data):
        from repro.vectorstore.base import VectorStore
        from repro.vectorstore.sharded import ShardedVectorStore

        vectors, records = store_data

        class OpaqueStore(VectorStore):
            def search_arrays(self, query, k, exclude_mask=None):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(VectorStoreError, match="store_factory"):
            ShardedVectorStore.wrap(OpaqueStore(vectors, records), 2)

    def test_wrap_resharding_a_sharded_store(self, store_data):
        from repro.vectorstore.sharded import ShardedVectorStore

        vectors, records = store_data
        twice = ShardedVectorStore.wrap(
            ShardedVectorStore(vectors, records, n_shards=2), 4
        )
        assert twice.n_shards == 4
        flat = ExactVectorStore(vectors, records)
        query = vectors[3]
        assert np.array_equal(flat.score_all(query), twice.score_all(query))

    def test_close_is_idempotent(self, store_data):
        from repro.vectorstore.sharded import ShardedVectorStore

        vectors, records = store_data
        store = ShardedVectorStore(vectors, records, n_shards=3)
        store.score_all(vectors[0])  # spins up the pool
        store.close()
        store.close()
        # Scoring after close lazily rebuilds the pool.
        assert store.score_all(vectors[1]).shape == (len(store),)

    def test_per_shard_diagnostics_cover_the_global_top(self, store_data):
        from repro.vectorstore.sharded import ShardedVectorStore

        vectors, records = store_data
        store = ShardedVectorStore(vectors, records, n_shards=4)
        query = vectors[11]
        per_shard = store.search_arrays_per_shard(query, k=6)
        assert len(per_shard) == store.n_shards
        local_ids = np.concatenate([ids for ids, _ in per_shard])
        global_ids, _ = store.search_arrays(query, k=6)
        # The exact global top-k is always a subset of the shard-local tops —
        # the invariant the merge's exactness proof rests on.
        assert set(global_ids.tolist()) <= set(local_ids.tolist())

    def test_shards_share_the_wrapper_matrix(self, store_data):
        """Sharding must not double vector memory: inner stores hold views."""
        from repro.vectorstore.sharded import ShardedVectorStore

        vectors, records = store_data
        store = ShardedVectorStore(vectors, records, n_shards=4)
        wrapper_matrix = np.asarray(store.vectors)
        for inner in store.shard_stores:
            assert np.shares_memory(np.asarray(inner.vectors), wrapper_matrix)
