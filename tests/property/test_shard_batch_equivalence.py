"""Equivalence properties: sharding must not change results.

Randomized (seeded) properties back the scaling layer's shard-merge
equivalence: ``ShardedVectorStore`` over exact shards is *bit-identical* to
a single ``ExactVectorStore`` — same scores (via the shard-stable
``dot_rows`` kernel), same ids, same order, ties included — both per call
and across a session's rounds, where the evolving ``SeenMask`` feeds each
round's exclusions back into the next.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ImageSegments, QueryEngine
from repro.utils.linalg import dot_rows
from repro.vectorstore import (
    ExactVectorStore,
    RandomProjectionForest,
    ShardedVectorStore,
)

DIM = 16


def make_corpus(seed: int, image_count: int = 40):
    """Random multiscale-shaped corpus, each vector's image row, and the
    CSR segment layout."""
    rng = np.random.default_rng(seed)
    image_vector_ids: "dict[int, list[int]]" = {}
    vector_id = 0
    for image_id in range(image_count):
        ids: "list[int]" = []
        for _ in range(int(rng.integers(1, 5))):
            ids.append(vector_id)
            vector_id += 1
        image_vector_ids[image_id] = ids
    vectors = rng.standard_normal((vector_id, DIM))
    segments = ImageSegments.from_mapping(
        {k: tuple(v) for k, v in image_vector_ids.items()}, vector_id
    )
    return vectors, segments.vector_image_rows, segments, rng


# ---------------------------------------------------------------------------
# the kernel invariant everything rests on
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=200),
    split=st.integers(min_value=1, max_value=199),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dot_rows_is_bit_stable_under_row_partitioning(rows, split, seed):
    """dot_rows(M[a:b], q) == dot_rows(M, q)[a:b] bit for bit, any split."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, DIM))
    query = rng.standard_normal(DIM)
    full = dot_rows(matrix, query)
    split = min(split, rows)
    parts = np.concatenate(
        [dot_rows(matrix[start : start + split], query) for start in range(0, rows, split)]
    )
    assert np.array_equal(full, parts)


# ---------------------------------------------------------------------------
# shard-merge equivalence (bit-identical)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharded_exact_store_is_bit_identical(n_shards, seed):
    vectors, image_rows, _, rng = make_corpus(seed)
    flat = ExactVectorStore(vectors)
    sharded = ShardedVectorStore(vectors, image_rows, n_shards=n_shards)
    for _ in range(5):
        query = rng.standard_normal(DIM)
        assert np.array_equal(flat.score_all(query), sharded.score_all(query))
        for k in (1, 4, len(flat) // 2, len(flat), len(flat) + 9):
            flat_ids, flat_scores = flat.search_arrays(query, k)
            sharded_ids, sharded_scores = sharded.search_arrays(query, k)
            assert np.array_equal(flat_ids, sharded_ids)
            assert np.array_equal(flat_scores, sharded_scores)
        mask = rng.random(len(flat)) < rng.uniform(0.1, 0.9)
        flat_ids, flat_scores = flat.search_arrays(query, 10, exclude_mask=mask)
        sharded_ids, sharded_scores = sharded.search_arrays(query, 10, exclude_mask=mask)
        assert np.array_equal(flat_ids, sharded_ids)
        assert np.array_equal(flat_scores, sharded_scores)


@pytest.mark.parametrize("seed", [0, 5])
def test_sharded_store_tie_order_matches_flat(seed):
    """Duplicate vectors produce exact ties; both stores break them by id."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((6, DIM))
    vectors = np.vstack([base, base, base])  # every row duplicated 3x
    flat = ExactVectorStore(vectors)
    sharded = ShardedVectorStore(vectors, np.arange(vectors.shape[0]), n_shards=3)
    query = rng.standard_normal(DIM)
    # Every k, including every cut *through* a tie group: the selected tied
    # subset must be deterministic (smallest ids win), not argpartition's
    # arbitrary pick — the case that breaks naive top-k merging.
    for k in range(1, len(flat) + 1):
        flat_ids, flat_scores = flat.search_arrays(query, k)
        sharded_ids, sharded_scores = sharded.search_arrays(query, k)
        assert np.array_equal(flat_ids, sharded_ids), k
        assert np.array_equal(flat_scores, sharded_scores), k
    flat_ids, flat_scores = flat.search_arrays(query, len(flat))
    # Within each tie group the ids must ascend — the deterministic rule.
    for position in range(1, flat_ids.size):
        if flat_scores[position] == flat_scores[position - 1]:
            assert flat_ids[position] > flat_ids[position - 1]


@pytest.mark.parametrize("seed", [0, 1])
def test_shards_are_image_aligned(seed):
    vectors, image_rows, _, _ = make_corpus(seed)
    sharded = ShardedVectorStore(vectors, image_rows, n_shards=5)
    boundaries = np.cumsum((0,) + sharded.shard_sizes)
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        inside = set(image_rows[start:stop].tolist())
        outside = set(image_rows[:start].tolist()) | set(image_rows[stop:].tolist())
        assert inside.isdisjoint(outside)


def test_sharded_forest_obeys_exclusions_and_scores():
    """No bit-identity promise for approximate shards, but exactness of the
    returned candidates' scores and exclusion honoring still hold."""
    vectors, image_rows, _, rng = make_corpus(3)
    forest = RandomProjectionForest(vectors, tree_count=4, leaf_size=8, seed=1)
    sharded = ShardedVectorStore.wrap(forest, image_rows, 3)
    query = rng.standard_normal(DIM)
    mask = rng.random(len(sharded)) < 0.4
    ids, scores = sharded.search_arrays(query, 12, exclude_mask=mask)
    assert not mask[ids].any()
    assert np.allclose(scores, np.asarray(sharded.vectors)[ids] @ query)


# ---------------------------------------------------------------------------
# engine rounds: sharding under an evolving session mask
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_engine_rounds_match_flat(seed, n_shards):
    vectors, image_rows, segments, rng = make_corpus(seed)
    flat = QueryEngine(ExactVectorStore(vectors), segments)
    sharded = QueryEngine(
        ShardedVectorStore(vectors, image_rows, n_shards=n_shards), segments
    )
    session_count, batch_size, rounds = 4, 3, 5
    queries = rng.standard_normal((session_count, DIM))
    flat_masks = [flat.new_mask() for _ in range(session_count)]
    sharded_masks = [sharded.new_mask() for _ in range(session_count)]
    for _ in range(rounds):
        for row in range(session_count):
            flat_ids, flat_scores, flat_vector_ids = flat.top_unseen_arrays(
                queries[row], batch_size, flat_masks[row]
            )
            ids, scores, vector_ids = sharded.top_unseen_arrays(
                queries[row], batch_size, sharded_masks[row]
            )
            assert np.array_equal(flat_ids, ids)
            assert np.array_equal(flat_scores, scores)
            assert np.array_equal(flat_vector_ids, vector_ids)
            flat_masks[row].mark_images(flat_ids.tolist())
            sharded_masks[row].mark_images(ids.tolist())
    # Mask state evolved identically on both sides.
    for flat_mask, sharded_mask in zip(flat_masks, sharded_masks):
        assert np.array_equal(flat_mask.image_seen, sharded_mask.image_seen)
        assert np.array_equal(flat_mask.vector_seen, sharded_mask.vector_seen)
        assert flat_mask.seen_count == sharded_mask.seen_count


def test_session_masks_are_isolated():
    """One session's mask must never affect another session's results."""
    vectors, image_rows, segments, rng = make_corpus(7)
    engine = QueryEngine(ShardedVectorStore(vectors, image_rows, n_shards=3), segments)
    query = rng.standard_normal(DIM)
    blind_mask = engine.new_mask()
    seen_mask = engine.new_mask()
    first_ids, _, _ = engine.top_unseen_arrays(query, 5, None)
    seen_mask.mark_images(first_ids.tolist())
    masked_ids, _, _ = engine.top_unseen_arrays(query, 5, seen_mask)
    blind_ids, _, _ = engine.top_unseen_arrays(query, 5, blind_mask)
    assert np.array_equal(blind_ids, first_ids)  # blind session: the global top
    assert not set(masked_ids.tolist()) & set(first_ids.tolist())  # masked skips them
    assert blind_mask.seen_count == 0
