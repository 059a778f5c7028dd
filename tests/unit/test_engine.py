"""Engine parity and unit tests.

The columnar query engine must reproduce the legacy object-based hot path
exactly: same image ids, same ordering, same scores — across batch sizes,
exclusion states, and both vector stores.  The legacy implementation is
preserved verbatim in :mod:`repro.engine.legacy` as the oracle.
"""

import numpy as np
import pytest

from repro.config import SeeSawConfig
from repro.core.indexing import SeeSawIndex
from repro.core.interfaces import SearchContext
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.engine import ImageSegments, SeenMask
from repro.engine.legacy import legacy_score_all_images, legacy_top_unseen_images
from repro.exceptions import IndexingError, SessionError, VectorStoreError
from repro.utils.linalg import normalize_rows
from repro.vectorstore.exact import ExactVectorStore
from repro.vectorstore.forest import RandomProjectionForest


def _random_index(store_kind: str, seed: int = 3) -> SeeSawIndex:
    """An index over tie-free random vectors (strict ordering parity holds).

    The synthetic datasets contain byte-identical patches, giving exact
    duplicate scores whose relative order is legitimately tie-broken
    differently by the two paths; continuous random vectors make every
    ordering comparison strict.
    """
    rng = np.random.default_rng(seed)
    patches_per_image = rng.integers(1, 7, size=40)
    levels: list[int] = []
    mapping: dict[int, list[int]] = {}
    vector_id = 0
    for image_number, patch_count in enumerate(patches_per_image):
        image_id = 100 + image_number
        ids = []
        for patch in range(int(patch_count)):
            levels.append(0 if patch == 0 else 1)
            ids.append(vector_id)
            vector_id += 1
        mapping[image_id] = ids
    vectors = normalize_rows(rng.standard_normal((vector_id, 24)))
    if store_kind == "forest":
        store = RandomProjectionForest(vectors, tree_count=6, leaf_size=8, seed=0)
    else:
        store = ExactVectorStore(vectors)
    return SeeSawIndex(
        dataset=None,
        embedding=None,
        store=store,
        segments=ImageSegments.from_mapping(mapping, vector_id),
        patch_boxes=np.tile([0.0, 0.0, 32.0, 32.0], (vector_id, 1)),
        patch_levels=np.asarray(levels, dtype=np.int8),
        knn_graph=None,
        db_matrix=None,
        config=SeeSawConfig(embedding_dim=24),
        build_report=None,
    )


def _assert_results_equal(engine_results, legacy_results):
    assert [r.image_id for r in engine_results] == [r.image_id for r in legacy_results]
    assert [r.vector_id for r in engine_results] == [r.vector_id for r in legacy_results]
    for engine_result, legacy_result in zip(engine_results, legacy_results):
        assert engine_result.score == pytest.approx(legacy_result.score, abs=0.0)
        assert engine_result.box == legacy_result.box


def _assert_results_equal_modulo_ties(engine_results, legacy_results):
    """Tie-aware parity: identical scores; identical images inside tie blocks.

    Images (and patches within an image) can share bit-identical scores on
    the synthetic datasets; both paths are free to break such ties
    differently, so interior equal-score blocks are compared as sets and
    the truncated final block only by score.
    """
    engine_scores = [r.score for r in engine_results]
    legacy_scores = [r.score for r in legacy_results]
    assert engine_scores == legacy_scores
    if not engine_results:
        return
    blocks: list[tuple[int, int]] = []
    start = 0
    for position in range(1, len(engine_scores) + 1):
        if position == len(engine_scores) or engine_scores[position] != engine_scores[start]:
            blocks.append((start, position))
            start = position
    for block_index, (lo, hi) in enumerate(blocks):
        engine_ids = {r.image_id for r in engine_results[lo:hi]}
        legacy_ids = {r.image_id for r in legacy_results[lo:hi]}
        if block_index < len(blocks) - 1:
            assert engine_ids == legacy_ids


class TestEngineParityStrict:
    """Strict ordering parity on tie-free random vectors (the acceptance bar)."""

    @pytest.mark.parametrize("store_kind", ["exact", "forest"])
    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_rounds_with_growing_exclusions(self, store_kind, count):
        index = _random_index(store_kind)
        context = SearchContext(index)
        rng = np.random.default_rng(11)
        query = rng.standard_normal(24)
        query /= np.linalg.norm(query)
        excluded: set[int] = set()
        for _ in range(4):
            engine_results = context.top_unseen_images(query, count, excluded)
            legacy_results = legacy_top_unseen_images(index, query, count, excluded)
            _assert_results_equal(engine_results, legacy_results)
            excluded |= {result.image_id for result in engine_results}

    def test_exhausting_the_pool(self):
        index = _random_index("exact")
        context = SearchContext(index)
        rng = np.random.default_rng(12)
        query = rng.standard_normal(24)
        query /= np.linalg.norm(query)
        total = len(index.image_ids)
        excluded = set(list(index.image_ids)[: total - 3])
        engine_results = context.top_unseen_images(query, total, excluded)
        legacy_results = legacy_top_unseen_images(index, query, total, excluded)
        assert len(engine_results) == 3
        _assert_results_equal(engine_results, legacy_results)

    def test_score_all_images_parity(self):
        index = _random_index("exact")
        context = SearchContext(index)
        rng = np.random.default_rng(13)
        query = rng.standard_normal(24)
        engine_scores = context.score_all_images(query)
        legacy_scores = legacy_score_all_images(index, query)
        assert engine_scores.keys() == legacy_scores.keys()
        for image_id, score in legacy_scores.items():
            assert engine_scores[image_id] == pytest.approx(score, abs=0.0)


class TestEngineParity:
    """Parity on the realistic synthetic dataset (tie-aware comparisons)."""

    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_exact_no_exclusions(self, tiny_index, count):
        context = SearchContext(tiny_index)
        query = tiny_index.embed_query("a cat_easy")
        _assert_results_equal_modulo_ties(
            context.top_unseen_images(query, count, set()),
            legacy_top_unseen_images(tiny_index, query, count, set()),
        )

    @pytest.mark.parametrize("count", [1, 4])
    def test_exact_with_exclusions(self, tiny_index, count):
        context = SearchContext(tiny_index)
        query = tiny_index.embed_query("a cat_hard")
        excluded: set[int] = set()
        for _ in range(4):
            engine_results = context.top_unseen_images(query, count, excluded)
            legacy_results = legacy_top_unseen_images(tiny_index, query, count, excluded)
            _assert_results_equal_modulo_ties(engine_results, legacy_results)
            # Advance both paths from the engine's picks so they stay aligned.
            excluded |= {result.image_id for result in engine_results}

    def test_score_all_images(self, tiny_index):
        context = SearchContext(tiny_index)
        query = tiny_index.embed_query("a cat_easy")
        engine_scores = context.score_all_images(query)
        legacy_scores = legacy_score_all_images(tiny_index, query)
        assert engine_scores.keys() == legacy_scores.keys()
        for image_id, score in legacy_scores.items():
            assert engine_scores[image_id] == pytest.approx(score, abs=0.0)

    def test_count_must_be_positive(self, tiny_index):
        context = SearchContext(tiny_index)
        with pytest.raises(SessionError):
            context.top_unseen_images(tiny_index.embed_query("a cat_easy"), 0, set())

    def test_session_drives_engine_mask_fast_path(self, tiny_index):
        """The session flow reuses the persistent mask instead of rebuilding."""
        session = SearchSession(
            index=tiny_index,
            method=SeeSawSearchMethod(tiny_index.config),
            text_query="a cat_easy",
            batch_size=3,
        )
        batch = session.next_batch()
        assert session.context.seen_mask.seen_count == len(batch)
        shown = set(session.shown_image_ids)
        assert session.context.mask_for(shown) is session.context.seen_mask
        # A different exclusion set must fall back to an ephemeral mask.
        other = {next(iter(set(tiny_index.image_ids) - shown))}
        assert session.context.mask_for(other) is not session.context.seen_mask


class TestImageSegments:
    def test_pool_max_matches_python_loop_on_ragged_segments(self, rng):
        mapping = {10: [0, 1, 2], 11: [3], 12: [4, 5, 6, 7, 8], 13: [9, 10]}
        segments = ImageSegments.from_mapping(mapping, 11)
        scores = rng.standard_normal(11)
        pooled = segments.pool_max(scores)
        expected = [max(scores[list(ids)]) for ids in mapping.values()]
        assert pooled.tolist() == pytest.approx(expected)

    def test_pool_max_non_contiguous_order(self, rng):
        # Vector ids deliberately interleaved across images.
        mapping = {1: [4, 0], 2: [2, 5], 3: [1, 3]}
        segments = ImageSegments.from_mapping(mapping, 6)
        scores = rng.standard_normal(6)
        pooled = segments.pool_max(scores)
        for row, ids in enumerate(mapping.values()):
            assert pooled[row] == pytest.approx(max(scores[list(ids)]))

    def test_inverse_column(self):
        mapping = {5: [0, 1], 6: [2]}
        segments = ImageSegments.from_mapping(mapping, 4)
        assert segments.vector_image_rows.tolist() == [0, 0, 1, -1]
        assert segments.first_vector_ids().tolist() == [0, 2]
        assert segments.counts.tolist() == [2, 1]

    def test_best_vectors_in_rows(self):
        mapping = {1: [0, 1, 2], 2: [3, 4]}
        segments = ImageSegments.from_mapping(mapping, 5)
        scores = np.array([0.1, 0.9, 0.5, 0.3, 0.7])
        best = segments.best_vectors_in_rows(scores, np.array([0, 1]))
        assert best.tolist() == [1, 4]

    def test_empty_segment_rejected(self):
        with pytest.raises(IndexingError):
            ImageSegments.from_mapping({1: [0], 2: []}, 1)

    def test_duplicate_vector_membership_rejected(self):
        with pytest.raises(IndexingError):
            ImageSegments.from_mapping({1: [0, 1], 2: [1]}, 2)

    def test_out_of_range_vector_rejected(self):
        with pytest.raises(IndexingError):
            ImageSegments.from_mapping({1: [0, 7]}, 2)

    def test_vector_repeated_within_one_image_rejected(self):
        with pytest.raises(IndexingError):
            ImageSegments.from_mapping({1: [0, 0]}, 2)

    def test_unknown_image_lookup_raises(self):
        segments = ImageSegments.from_mapping({1: [0]}, 1)
        with pytest.raises(IndexingError):
            segments.row_for_image(99)

    def test_pool_max_shape_mismatch_rejected(self):
        segments = ImageSegments.from_mapping({1: [0]}, 1)
        with pytest.raises(IndexingError):
            segments.pool_max(np.zeros(5))

    def test_columns_are_frozen(self):
        segments = ImageSegments.from_mapping({1: [0, 1], 2: [2]}, 3)
        with pytest.raises(ValueError):
            segments.order[0] = 5
        with pytest.raises(ValueError):
            segments.vector_ids_for_row(0)[0] = 5  # slices inherit the flag


class TestSeenMask:
    @pytest.fixture()
    def segments(self):
        return ImageSegments.from_mapping({7: [0, 1], 8: [2], 9: [3, 4, 5]}, 6)

    def test_starts_empty(self, segments):
        mask = SeenMask(segments)
        assert mask.seen_count == 0
        assert mask.unseen_count == 3
        assert not mask.image_seen.any() and not mask.vector_seen.any()

    def test_mark_images_sets_both_columns(self, segments):
        mask = SeenMask(segments)
        mask.mark_images([7, 9])
        assert mask.seen_count == 2
        assert mask.image_seen.tolist() == [True, False, True]
        assert mask.vector_seen.tolist() == [True, True, False, True, True, True]

    def test_marking_twice_is_idempotent(self, segments):
        mask = SeenMask(segments)
        mask.mark_images([8])
        mask.mark_images([8])
        assert mask.seen_count == 1

    def test_duplicates_within_one_call_count_once(self, segments):
        mask = SeenMask(segments)
        mask.mark_images([8, 8, 7, 8])
        assert mask.seen_count == 2
        assert mask.covers_exactly({7, 8})

    def test_is_seen(self, segments):
        mask = SeenMask(segments)
        mask.mark_images([8])
        assert mask.is_seen(8) and not mask.is_seen(7)

    def test_copy_is_independent(self, segments):
        mask = SeenMask(segments)
        mask.mark_images([7])
        clone = mask.copy()
        clone.mark_images([8])
        assert mask.seen_count == 1 and clone.seen_count == 2

    def test_reset(self, segments):
        mask = SeenMask(segments)
        mask.mark_images([7, 8, 9])
        mask.reset()
        assert mask.seen_count == 0 and not mask.vector_seen.any()

    def test_covers_exactly(self, segments):
        mask = SeenMask(segments)
        mask.mark_images([7, 8])
        assert mask.covers_exactly({7, 8})
        assert not mask.covers_exactly({7})
        assert not mask.covers_exactly({7, 9})
        assert not mask.covers_exactly({7, 8, 99})

    def test_unknown_image_raises(self, segments):
        mask = SeenMask(segments)
        with pytest.raises(IndexingError):
            mask.mark_images([1234])

    def test_public_columns_are_read_only(self, segments):
        # mask_for hands the session's live mask to search methods; direct
        # writes must raise instead of silently corrupting session state.
        mask = SeenMask(segments)
        with pytest.raises(ValueError):
            mask.image_seen[0] = True
        with pytest.raises(ValueError):
            mask.vector_seen[0] = True


class TestStoreArrayApi:
    def test_engine_rejects_mismatched_segments(self, tiny_index):
        from repro.engine import QueryEngine

        small = ImageSegments.from_mapping({1: [0]}, 1)
        with pytest.raises(VectorStoreError):
            QueryEngine(tiny_index.store, small)

    def test_search_arrays_matches_score_all(self, tiny_index):
        query = tiny_index.embed_query("a cat_easy")
        store = tiny_index.store
        ids, scores = store.search_arrays(query, k=8)
        full = store.score_all(query)
        assert ids.tolist() == np.argsort(-full, kind="stable")[:8].tolist()
        assert scores.tolist() == pytest.approx(full[ids].tolist(), abs=0.0)

    def test_candidate_path_drops_uncovered_vectors(self):
        """A store vector no segment covers must never be attributed to an image."""
        rng = np.random.default_rng(5)
        vectors = normalize_rows(rng.standard_normal((30, 16)))
        mapping: dict[int, list[int]] = {}
        for vector_id in range(29):  # leave the last vector uncovered
            mapping.setdefault(100 + vector_id // 3, []).append(vector_id)
        store = RandomProjectionForest(vectors, tree_count=4, leaf_size=4, seed=0)
        index = SeeSawIndex(
            dataset=None,
            embedding=None,
            store=store,
            segments=ImageSegments.from_mapping(mapping, 30),
            patch_boxes=np.tile([0.0, 0.0, 8.0, 8.0], (30, 1)),
            patch_levels=(np.arange(30) % 3 != 0).astype(np.int8),
            knn_graph=None,
            db_matrix=None,
            config=SeeSawConfig(embedding_dim=16),
            build_report=None,
        )
        # Query the uncovered vector directly: it is the best hit by far,
        # but the engine must drop it rather than mis-attribute it.
        image_ids, _, vector_ids = index.engine.top_unseen_arrays(vectors[29], 5)
        assert 29 not in vector_ids.tolist()
        assert len(image_ids) == 5

    def test_search_arrays_exclusion_mask(self, tiny_index):
        query = tiny_index.embed_query("a cat_easy")
        store = tiny_index.store
        baseline, _ = store.search_arrays(query, k=3)
        mask = np.zeros(len(store), dtype=bool)
        mask[baseline] = True
        ids, _ = store.search_arrays(query, k=3, exclude_mask=mask)
        assert not set(ids.tolist()) & set(baseline.tolist())


class TestReplaceStore:
    """``SeeSawIndex.replace_store`` swaps the store and drops the cached engine."""

    def test_replace_store_resets_cached_engines(self):
        from repro.vectorstore.sharded import ShardedVectorStore

        index = _random_index("exact", seed=14)
        old_engine = index.engine
        index.replace_store(
            ShardedVectorStore.wrap(index.store, index.segments.vector_image_rows, 3)
        )
        assert index.engine is not old_engine
        assert index.engine.store is index.store

    def test_replace_store_rejects_size_mismatch(self):
        index = _random_index("exact", seed=14)
        vectors = np.asarray(index.store.vectors)[:-1]
        with pytest.raises(IndexingError, match="replacement store"):
            index.replace_store(ExactVectorStore(vectors))
