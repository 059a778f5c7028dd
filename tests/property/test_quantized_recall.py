"""Property: the quantized tier's re-ranked top-k equals the exact top-k.

The int8 candidate pass is approximate, but the contract the tier sells is
that after over-fetching ``rerank_factor * k`` candidates and re-ranking
them exactly, the *returned* top-k matches the exact store's top-k — i.e.
recall@k = 1.0 at the default re-rank factor.  This suite pins that with
seeded random corpora in both compute dtypes, flat and sharded, with and
without exclusions, and also pins that the guarantee comes from the re-rank
(the raw int8 scores really are approximate, so the test is not vacuous).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.vectorstore import (
    ExactVectorStore,
    QuantizedVectorStore,
    ShardedVectorStore,
)

DIM = 48
COUNT = 600
K = 10


def _corpus(seed: int):
    return np.random.default_rng(seed).standard_normal((COUNT, DIM))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("compute_dtype", ["float64", "float32"])
def test_reranked_top_k_matches_exact_top_k(seed, compute_dtype):
    vectors = _corpus(seed)
    exact = ExactVectorStore(vectors, compute_dtype=compute_dtype)
    quantized = QuantizedVectorStore(vectors, compute_dtype=compute_dtype)
    assert quantized.rerank_factor == 4  # the default the guarantee is stated at
    queries = np.random.default_rng(seed + 1000).standard_normal((20, DIM))
    for query in queries:
        exact_ids, exact_scores = exact.search_arrays(query, k=K)
        quant_ids, quant_scores = quantized.search_arrays(query, k=K)
        # Identical id sets *and* identical deterministic ordering: the
        # re-rank selects with the same (score desc, id asc) rule.
        assert quant_ids.tolist() == exact_ids.tolist()
        np.testing.assert_allclose(quant_scores, exact_scores, rtol=0, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 7])
def test_recall_holds_under_exclusions(seed):
    vectors = _corpus(seed)
    exact = ExactVectorStore(vectors)
    quantized = QuantizedVectorStore(vectors)
    rng = np.random.default_rng(seed + 1)
    for query in rng.standard_normal((10, DIM)):
        mask = rng.random(COUNT) < 0.4
        exact_ids, _ = exact.search_arrays(query, k=K, exclude_mask=mask)
        quant_ids, _ = quantized.search_arrays(query, k=K, exclude_mask=mask)
        assert quant_ids.tolist() == exact_ids.tolist()


@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_quantized_recall(n_shards):
    vectors = _corpus(11)
    exact = ExactVectorStore(vectors)
    sharded = ShardedVectorStore.wrap(
        QuantizedVectorStore(vectors), np.arange(COUNT), n_shards
    )
    rng = np.random.default_rng(12)
    for query in rng.standard_normal((10, DIM)):
        exact_ids, _ = exact.search_arrays(query, k=K)
        quant_ids, _ = sharded.search_arrays(query, k=K)
        assert quant_ids.tolist() == exact_ids.tolist()


def test_int8_candidate_scores_really_are_approximate():
    """Guard against vacuity: the candidate pass must differ from exact."""
    vectors = _corpus(3)
    exact = ExactVectorStore(vectors)
    quantized = QuantizedVectorStore(vectors)
    query = np.random.default_rng(4).standard_normal(DIM)
    approximate = quantized.quantized_scores(query)
    true_scores = exact.score_all(query)
    error = np.abs(approximate - true_scores)
    assert error.max() > 0.0  # quantization actually quantized something...
    assert error.max() < 0.05  # ...but the 8-bit error stays far below score gaps


def test_rerank_factor_validated():
    vectors = _corpus(5)
    from repro.exceptions import VectorStoreError

    with pytest.raises(VectorStoreError, match="rerank_factor"):
        QuantizedVectorStore(vectors, rerank_factor=0)
