"""Property: the graph-ANN tier's descent finds (almost all of) the exact top-k.

Unlike the quantized tier, the graph store makes no exactness guarantee —
greedy descent over a navigable proximity graph can miss true neighbours.
What it *does* sell: recall@k against the exact oracle stays high at sane
``ef``, returned scores are true inner products (the re-rank is exact),
results are deterministic under a fixed seed, exclusions are absolute, the
descent genuinely visits a strict subset of the corpus (non-vacuity), and
bad parameters fail loudly.  This suite pins all of that with seeded random
corpora in both compute dtypes, flat and sharded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import VectorStoreError
from repro.vectorstore import (
    ExactVectorStore,
    GraphANNVectorStore,
    ShardedVectorStore,
)

DIM = 48
COUNT = 600
K = 10


def _corpus(seed: int):
    return np.random.default_rng(seed).standard_normal((COUNT, DIM))


def _recall(exact_ids: np.ndarray, graph_ids: np.ndarray) -> float:
    return len(set(exact_ids.tolist()) & set(graph_ids.tolist())) / exact_ids.size


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("compute_dtype", ["float64", "float32"])
def test_recall_against_exact_oracle(seed, compute_dtype):
    vectors = _corpus(seed)
    exact = ExactVectorStore(vectors, compute_dtype=compute_dtype)
    graph = GraphANNVectorStore(
        vectors, graph_degree=16, ef=64, compute_dtype=compute_dtype
    )
    queries = np.random.default_rng(seed + 1000).standard_normal((20, DIM))
    recalls = []
    for query in queries:
        exact_ids, _ = exact.search_arrays(query, k=K)
        graph_ids, graph_scores = graph.search_arrays(query, k=K)
        recalls.append(_recall(exact_ids, graph_ids))
        # Whatever the descent surfaces, the returned scores are the *true*
        # inner products in the compute dtype — the re-rank is exact.
        expected = np.asarray(graph.vectors, dtype=np.float64)[graph_ids] @ query
        atol = 1e-5 if compute_dtype == "float32" else 1e-12
        np.testing.assert_allclose(graph_scores, expected, rtol=0, atol=atol)
    assert float(np.mean(recalls)) >= 0.95


def test_search_is_deterministic_under_fixed_seed():
    vectors = _corpus(6)
    first = GraphANNVectorStore(vectors, graph_degree=12, ef=48)
    second = GraphANNVectorStore(vectors, graph_degree=12, ef=48)
    for query in np.random.default_rng(7).standard_normal((10, DIM)):
        ids_a, scores_a = first.search_arrays(query, k=K)
        ids_b, scores_b = second.search_arrays(query, k=K)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(scores_a, scores_b)
        # And within one store across repeated calls.
        ids_c, _ = first.search_arrays(query, k=K)
        assert np.array_equal(ids_a, ids_c)


@pytest.mark.parametrize("seed", [0, 7])
def test_exclusions_are_absolute(seed):
    vectors = _corpus(seed)
    graph = GraphANNVectorStore(vectors, graph_degree=16, ef=64)
    rng = np.random.default_rng(seed + 1)
    for query in rng.standard_normal((10, DIM)):
        mask = rng.random(COUNT) < 0.4
        ids, _ = graph.search_arrays(query, k=K, exclude_mask=mask)
        assert not mask[ids].any()


@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_graph_recall(n_shards):
    vectors = _corpus(11)
    exact = ExactVectorStore(vectors)
    sharded = ShardedVectorStore.wrap(
        GraphANNVectorStore(vectors, graph_degree=16, ef=64), np.arange(COUNT), n_shards
    )
    rng = np.random.default_rng(12)
    recalls = []
    for query in rng.standard_normal((10, DIM)):
        exact_ids, _ = exact.search_arrays(query, k=K)
        graph_ids, _ = sharded.search_arrays(query, k=K)
        recalls.append(_recall(exact_ids, graph_ids))
    assert float(np.mean(recalls)) >= 0.95


def test_descent_really_is_sublinear():
    """Guard against vacuity: the descent must visit a strict subset.

    If the beam degraded to a full scan the recall assertions above would
    pass trivially; ``last_search_stats`` pins that the traversal actually
    pruned, while still scoring enough of the corpus to be a search.
    """
    vectors = _corpus(3)
    graph = GraphANNVectorStore(vectors, graph_degree=12, ef=32)
    query = np.random.default_rng(4).standard_normal(DIM)
    graph.search_arrays(query, k=K)
    stats = graph.last_search_stats
    assert 0 < stats["visited"] < COUNT
    assert stats["hops"] > 0


def test_ef_override_widens_the_beam():
    vectors = _corpus(8)
    graph = GraphANNVectorStore(vectors, graph_degree=8, ef=8)
    query = np.random.default_rng(9).standard_normal(DIM)
    graph.search_arrays(query, k=K)
    narrow = graph.last_search_stats["visited"]
    graph.search_arrays(query, k=K, ef=128)
    wide = graph.last_search_stats["visited"]
    assert wide > narrow


def test_parameters_validated():
    vectors = _corpus(5)
    with pytest.raises(VectorStoreError, match="graph_degree"):
        GraphANNVectorStore(vectors, graph_degree=1)
    with pytest.raises(VectorStoreError, match="ef"):
        GraphANNVectorStore(vectors, ef=0)
    graph = GraphANNVectorStore(vectors)
    with pytest.raises(VectorStoreError, match="ef"):
        graph.search_arrays(np.zeros(DIM), k=1, ef=0)
