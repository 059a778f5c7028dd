"""Tests for core SeeSaw pieces: multiscale, feedback, propagation, aligner, indexing, session."""

import tracemalloc

import numpy as np
import pytest

from repro.config import MultiscaleConfig, SeeSawConfig
from repro.core.aligner import SeeSawQueryAligner
from repro.core.feedback import BoxFeedback, FeedbackMap
from repro.core.indexing import SeeSawIndex
from repro.core.interfaces import SearchContext
from repro.core.multiscale import COARSE_LEVEL, FINE_LEVEL, generate_patches, pool_image_scores
from repro.core.propagation import (
    compute_db_alignment_matrix,
    propagate_labels,
    smoothness_penalty,
)
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.data.catalogs import load_dataset
from repro.data.geometry import BoundingBox
from repro.embedding.synthetic_clip import SyntheticClip
from repro.exceptions import SessionError
from repro.core import propagation
from repro.knng import graph as knng_graph
from repro.knng.graph import KnnGraph, build_knn_graph
from repro.config import KnnGraphConfig
from repro.utils.linalg import cosine_similarity, normalize_rows, normalize_vector
from repro.vectorstore.forest import RandomProjectionForest


class TestMultiscale:
    def test_small_image_only_coarse(self):
        patches = generate_patches(224, 224)
        assert len(patches) == 1
        assert patches[0][1] == COARSE_LEVEL

    def test_large_image_gets_fine_patches(self):
        patches = generate_patches(896, 896)
        levels = [level for _, level in patches]
        assert levels.count(COARSE_LEVEL) == 1
        assert levels.count(FINE_LEVEL) >= 9

    def test_paper_example_448_gives_ten_vectors(self):
        # §4.3: a 448x448 image maps to 1 coarse + 9 fine patches.
        patches = generate_patches(448, 448)
        assert len(patches) == 10

    def test_disabled_multiscale(self):
        patches = generate_patches(2000, 2000, MultiscaleConfig(enabled=False))
        assert len(patches) == 1

    def test_patches_stay_inside_image(self):
        for box, _ in generate_patches(1280, 720):
            assert box.x >= 0 and box.y >= 0
            assert box.x2 <= 1280 and box.y2 <= 720

    def test_wide_image_adds_patches_along_width(self):
        wide = generate_patches(1280, 720)
        square = generate_patches(720, 720)
        assert len(wide) > len(square)

    def test_pool_image_scores_takes_max(self):
        scores = pool_image_scores(np.array([0.1, 0.9, 0.5]), np.array([7, 7, 8]))
        assert scores[7] == pytest.approx(0.9)
        assert scores[8] == pytest.approx(0.5)


class TestFeedback:
    def test_positive_requires_boxes(self):
        with pytest.raises(SessionError):
            BoxFeedback(image_id=1, relevant=True, boxes=())

    def test_negative_must_not_have_boxes(self):
        with pytest.raises(SessionError):
            BoxFeedback(image_id=1, relevant=False, boxes=(BoundingBox(0, 0, 1, 1),))

    def test_map_counts(self):
        feedback = FeedbackMap()
        feedback.update(BoxFeedback.positive(1, [BoundingBox(0, 0, 5, 5)]))
        feedback.update(BoxFeedback.negative(2))
        assert feedback.positive_count == 1
        assert feedback.negative_count == 1
        assert 1 in feedback and 3 not in feedback

    def test_update_overwrites(self):
        feedback = FeedbackMap()
        feedback.update(BoxFeedback.negative(1))
        feedback.update(BoxFeedback.positive(1, [BoundingBox(0, 0, 5, 5)]))
        assert feedback.positive_count == 1
        assert len(feedback) == 1

    def test_patch_labels_from_boxes(self, tiny_index):
        dataset = tiny_index.dataset
        category = "cat_easy"
        image_id = next(iter(dataset.positive_image_ids(category)))
        image = dataset.image(image_id)
        boxes = image.ground_truth_boxes(category)
        feedback = FeedbackMap()
        feedback.update(BoxFeedback.positive(image_id, boxes))
        features, labels, vector_ids = feedback.to_patch_labels(tiny_index)
        assert features.shape[0] == labels.shape[0] == vector_ids.shape[0]
        assert labels.max() == 1.0
        # Every labelled vector belongs to the image that received feedback.
        for vector_id in vector_ids:
            assert tiny_index.image_id_for_vector(int(vector_id)) == image_id

    def test_negative_image_gives_all_zero_labels(self, tiny_index):
        image_id = tiny_index.dataset.images[0].image_id
        feedback = FeedbackMap()
        feedback.update(BoxFeedback.negative(image_id))
        _, labels, _ = feedback.to_patch_labels(tiny_index)
        assert labels.max() == 0.0

    def test_empty_map_gives_empty_training_set(self, tiny_index):
        features, labels, ids = FeedbackMap().to_patch_labels(tiny_index)
        assert features.shape == (0, tiny_index.store.dim)
        assert labels.size == 0 and ids.size == 0

    def test_training_set_grows_with_the_feedback_not_the_index(self, tiny_index):
        """Judged one image at a time, the arrays double, stay within twice
        the judged rows, and equal a training set built in one go, a
        re-judged image included."""
        images = tiny_index.dataset.images[:12]
        first = images[0].image_id
        feedback = FeedbackMap()
        for step, image in enumerate(images):
            feedback.update(BoxFeedback.negative(image.image_id))
            if step % 4 == 3:
                feedback.update(BoxFeedback.positive(first, [BoundingBox(0, 0, 320, 240)]))
            grown = feedback.training_set(tiny_index)
            assert len(feedback._arrays[0]) <= 2 * grown[3].size
            whole = FeedbackMap()
            for judged in feedback:
                whole.update(judged)
            for actual, expected in zip(grown, whole.training_set(tiny_index)):
                np.testing.assert_array_equal(actual, expected)
        assert grown[1].max() == 1.0


class TestPropagation:
    @pytest.fixture()
    def two_cluster_graph(self, rng):
        centers = normalize_rows(rng.standard_normal((2, 16)))
        cluster_a = normalize_rows(centers[0] + 0.05 * rng.standard_normal((30, 16)))
        cluster_b = normalize_rows(centers[1] + 0.05 * rng.standard_normal((30, 16)))
        vectors = np.vstack([cluster_a, cluster_b])
        return vectors, build_knn_graph(vectors, KnnGraphConfig(k=5))

    def test_labels_spread_within_cluster(self, two_cluster_graph):
        _, graph = two_cluster_graph
        scores = propagate_labels(graph, {0: 1.0, 30: 0.0}, iterations=50)
        assert scores[:30].mean() > 0.7
        assert scores[30:].mean() < 0.3

    def test_labeled_nodes_are_clamped(self, two_cluster_graph):
        _, graph = two_cluster_graph
        scores = propagate_labels(graph, {0: 1.0, 30: 0.0})
        assert scores[0] == pytest.approx(1.0)
        assert scores[30] == pytest.approx(0.0)

    def test_out_of_range_label_rejected(self, two_cluster_graph):
        from repro.exceptions import IndexingError

        _, graph = two_cluster_graph
        with pytest.raises(IndexingError):
            propagate_labels(graph, {10**6: 1.0})

    def test_db_matrix_shape_and_symmetry(self, two_cluster_graph):
        vectors, graph = two_cluster_graph
        matrix = compute_db_alignment_matrix(vectors, graph)
        assert matrix.shape == (16, 16)
        assert np.allclose(matrix, matrix.T)

    def test_smoothness_prefers_cluster_center_direction(self, two_cluster_graph, rng):
        vectors, graph = two_cluster_graph
        matrix = compute_db_alignment_matrix(vectors, graph)
        center = normalize_vector(vectors[:30].mean(axis=0))
        random_direction = normalize_vector(rng.standard_normal(16))
        # The quadratic form penalises directions that vary rapidly across
        # dense graph regions; a cluster-center direction should not be worse
        # than an arbitrary one on average.
        assert smoothness_penalty(matrix, center) <= smoothness_penalty(matrix, random_direction) * 2

    def test_mismatched_vector_count_rejected(self, two_cluster_graph):
        from repro.exceptions import IndexingError

        vectors, graph = two_cluster_graph
        with pytest.raises(IndexingError):
            compute_db_alignment_matrix(vectors[:-1], graph)


def scipy_db_matrix(sparse, vectors, graph):
    """``M_D`` by the CSR formula: ``X^T ((diag(W 1) - max(W_d, W_d^T)) X)``."""
    count, k = graph.neighbor_ids.shape
    rows = np.repeat(np.arange(count), k)
    directed = sparse.csr_matrix(
        (graph.neighbor_weights.ravel(), (rows, graph.neighbor_ids.ravel())),
        shape=(count, count),
    )
    adjacency = directed.maximum(directed.T)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    laplacian = (sparse.diags(degrees, format="csr") - adjacency).tocsr()
    matrix = vectors.T @ (laplacian @ vectors) / float(count)
    return (matrix + matrix.T) / 2.0, adjacency, degrees


def scipy_propagation(sparse, graph, labeled, iterations, prior):
    """Label propagation with the transition ``diag(1 / d) @ W`` built by scipy."""
    _, adjacency, degrees = scipy_db_matrix(sparse, np.zeros((graph.node_count, 1)), graph)
    transition = sparse.diags(1.0 / np.where(degrees == 0.0, 1.0, degrees)) @ adjacency
    ids = np.array(sorted(labeled))
    values = np.array([labeled[i] for i in sorted(labeled)])
    scores = prior.copy()
    scores[ids] = values
    for _ in range(iterations):
        updated = transition @ scores
        updated[ids] = values
        change = float(np.max(np.abs(updated - scores)))
        scores = updated
        if change < 1e-5:
            break
    return np.clip(scores, 0.0, 1.0)


def random_graph(rng, count, k, hubs=0, zeros=0):
    """Random distinct neighbours without self-edges and uneven weights.

    With ``hubs``, every other node lists nodes ``0 .. hubs - 1`` first, so
    their in-degree is about ``count``; ``zeros`` edge weights are set to 0.
    """
    ids = np.empty((count, k), dtype=np.int64)
    for node in range(count):
        others = np.delete(np.arange(count), node)
        preferred = [h for h in range(hubs) if h != node][:k]
        rest = np.setdiff1d(others, preferred)
        ids[node] = np.concatenate(
            [preferred, rng.choice(rest, size=k - len(preferred), replace=False)]
        )
    weights = rng.uniform(0.05, 1.0, size=(count, k))
    weights.ravel()[rng.choice(weights.size, size=zeros, replace=False)] = 0.0
    return KnnGraph(neighbor_ids=ids, neighbor_weights=weights, sigma=1.0)


class TestDbAlignmentOracle:
    """The numpy ``M_D`` keeps the bits of the scipy CSR formula."""

    @pytest.fixture()
    def sparse(self):
        return pytest.importorskip("scipy.sparse")

    @staticmethod
    def cases(rng):
        centers = normalize_rows(rng.standard_normal((4, 16)))
        clustered = normalize_rows(
            np.repeat(centers, 150, axis=0) + 0.1 * rng.standard_normal((600, 16))
        )
        yield "clustered", clustered, build_knn_graph(clustered, KnnGraphConfig(k=10))
        small = clustered[::5]
        yield "clustered k=5", small, build_knn_graph(small, KnnGraphConfig(k=5))
        for name, count, k, hubs, zeros in (
            ("hub-heavy", 200, 4, 3, 0),
            ("one-way and mutual, some weights 0", 80, 6, 0, 25),
            ("k = n - 1", 30, 29, 0, 0),
            ("n = 2", 2, 1, 0, 0),
        ):
            vectors = normalize_rows(rng.standard_normal((count, 8)))
            yield name, vectors, random_graph(rng, count, k, hubs, zeros)

    @pytest.mark.parametrize("block_rows", [propagation._BLOCK_ROWS, 7])
    def test_matches_the_csr_formula_bit_for_bit(self, sparse, rng, monkeypatch, block_rows):
        monkeypatch.setattr(propagation, "_BLOCK_ROWS", block_rows)
        for name, vectors, graph in self.cases(rng):
            expected, adjacency, degrees = scipy_db_matrix(sparse, vectors, graph)
            computed = compute_db_alignment_matrix(vectors, graph)
            assert computed.tobytes() == expected.tobytes(), name
            indptr, indices, weights, ours = graph.csr()
            assert np.array_equal(indptr, adjacency.indptr), name
            assert np.array_equal(indices, adjacency.indices), name
            assert weights.tobytes() == adjacency.data.tobytes(), name
            assert ours.tobytes() == degrees.tobytes(), name

    @pytest.mark.parametrize("block_rows", [propagation._BLOCK_ROWS, 7])
    def test_float32_rows_give_the_bits_of_their_float64_cast(
        self, rng, monkeypatch, block_rows
    ):
        monkeypatch.setattr(propagation, "_BLOCK_ROWS", block_rows)
        for name, vectors, graph in self.cases(rng):
            narrow = vectors.astype(np.float32)
            expected = compute_db_alignment_matrix(narrow.astype(np.float64), graph)
            computed = compute_db_alignment_matrix(narrow, graph)
            assert computed.tobytes() == expected.tobytes(), name

    def test_propagation_matches_the_scipy_transition(self, sparse, rng):
        for name, vectors, graph in self.cases(rng):
            count = graph.node_count
            labeled = {0: 1.0, count - 1: 0.0}
            prior = rng.uniform(size=count)
            expected = scipy_propagation(sparse, graph, labeled, 20, prior)
            computed = propagate_labels(graph, labeled, iterations=20, prior=prior)
            assert np.max(np.abs(computed - expected)) <= 1e-12, name


class TestAligner:
    def test_no_feedback_keeps_text_vector(self, rng):
        query = normalize_vector(rng.standard_normal(16))
        aligner = SeeSawQueryAligner(query, config=SeeSawConfig(embedding_dim=16))
        result = aligner.align(np.zeros((0, 16)), np.zeros(0))
        assert np.allclose(result.query_vector, query)

    def test_alignment_moves_toward_positives(self, rng):
        dim = 16
        concept = normalize_vector(rng.standard_normal(dim))
        query = normalize_vector(concept + rng.standard_normal(dim))
        positives = normalize_rows(concept + 0.05 * rng.standard_normal((5, dim)))
        negatives = normalize_rows(rng.standard_normal((5, dim)))
        features = np.vstack([positives, negatives])
        labels = np.array([1.0] * 5 + [0.0] * 5)
        aligner = SeeSawQueryAligner(query, config=SeeSawConfig(embedding_dim=dim))
        result = aligner.align(features, labels)
        assert cosine_similarity(result.query_vector, concept) > cosine_similarity(query, concept)

    def test_result_is_unit_norm(self, rng):
        dim = 8
        query = normalize_vector(rng.standard_normal(dim))
        features = normalize_rows(rng.standard_normal((6, dim)))
        labels = np.array([1, 0, 1, 0, 0, 1], dtype=float)
        aligner = SeeSawQueryAligner(query, config=SeeSawConfig(embedding_dim=dim))
        result = aligner.align(features, labels)
        assert np.linalg.norm(result.query_vector) == pytest.approx(1.0)

    def test_reset_restores_text_vector(self, rng):
        dim = 8
        query = normalize_vector(rng.standard_normal(dim))
        aligner = SeeSawQueryAligner(query, config=SeeSawConfig(embedding_dim=dim))
        aligner.align(normalize_rows(rng.standard_normal((4, dim))), np.array([1.0, 0, 0, 1]))
        aligner.reset()
        assert np.allclose(aligner.current_query_vector, query)

    def test_zero_query_vector_rejected(self):
        from repro.exceptions import OptimizationError

        with pytest.raises(OptimizationError):
            SeeSawQueryAligner(np.zeros(8))

    def test_clip_alignment_keeps_query_closer_to_text(self, rng):
        dim = 16
        query = normalize_vector(rng.standard_normal(dim))
        features = normalize_rows(rng.standard_normal((8, dim)))
        labels = (rng.random(8) < 0.5).astype(float)
        labels[0] = 1.0
        labels[1] = 0.0
        anchored = SeeSawQueryAligner(
            query, config=SeeSawConfig(embedding_dim=dim)
        ).align(features, labels)
        free_config = SeeSawConfig(embedding_dim=dim, use_clip_alignment=False, use_db_alignment=False)
        free = SeeSawQueryAligner(query, config=free_config).align(features, labels)
        assert cosine_similarity(anchored.query_vector, query) >= cosine_similarity(
            free.query_vector, query
        ) - 1e-9


class TestIndexing:
    def test_cold_build_peak_memory_holds_one_copy_of_the_corpus(self):
        """Embedding, store, kNN scan and ``M_D`` together stay within one
        patch matrix, the scan's chunk budget, one ``(D - W) X`` product and
        the graph's outputs; a second copy of the corpus would not fit."""
        dataset = load_dataset("bdd", seed=0, size_scale=0.1)
        embedding = SyntheticClip.for_dataset(dataset, dim=512, seed=0)
        config = SeeSawConfig(embedding_dim=512).with_overrides(
            multiscale=MultiscaleConfig(enabled=True)
        )
        tracemalloc.start()
        try:
            index = SeeSawIndex.build(dataset, embedding, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count, dim = index.store.vectors.shape
        matrix = count * dim * 8
        knn_outputs = 2 * count * index.knn_graph.k * 8
        assert index.db_matrix is not None
        assert peak <= 2 * matrix + 3 * knng_graph._CHUNK_BYTES + knn_outputs

    def test_index_counts(self, tiny_index, tiny_dataset):
        assert tiny_index.vector_count == len(tiny_index.store)
        assert set(tiny_index.image_ids) == {image.image_id for image in tiny_dataset}
        assert tiny_index.vector_count > len(tiny_dataset)  # multiscale adds patches

    def test_vector_ids_round_trip(self, tiny_index):
        for image_id in list(tiny_index.image_ids)[:5]:
            for vector_id in tiny_index.vector_ids_for_image(image_id):
                assert tiny_index.image_id_for_vector(vector_id) == image_id

    def test_coarse_vector_ids_are_coarse(self, tiny_index):
        for vector_id in tiny_index.coarse_vector_ids():
            assert tiny_index.patch_levels[vector_id] == 0

    def test_db_matrix_present_and_square(self, tiny_index):
        dim = tiny_index.store.dim
        assert tiny_index.db_matrix.shape == (dim, dim)

    def test_unknown_image_raises(self, tiny_index):
        from repro.exceptions import IndexingError

        with pytest.raises(IndexingError):
            tiny_index.vector_ids_for_image(10**9)

    def test_build_report(self, tiny_index, tiny_dataset):
        report = tiny_index.build_report
        assert report.image_count == len(tiny_dataset)
        assert report.vector_count == tiny_index.vector_count
        assert report.vectors_per_image >= 1.0

    def test_supplied_vectors_report_no_embedding_time(self, tiny_index, tiny_clip):
        # A merge build passes the rows it already holds: nothing is embedded,
        # so nothing is timed as embedding (patch columns are not embedding work).
        assert tiny_index.build_report.embedding_seconds > 0.0
        rebuilt = SeeSawIndex.build(
            tiny_index.dataset,
            tiny_clip,
            tiny_index.config,
            build_graph=False,
            vectors=tiny_index.store.vectors,
        )
        assert rebuilt.build_report.embedding_seconds == 0.0
        assert np.array_equal(rebuilt.store.vectors, tiny_index.store.vectors)

    def test_coarse_only_build(self, tiny_dataset, tiny_clip):
        config = SeeSawConfig(embedding_dim=64, multiscale=MultiscaleConfig(enabled=False))
        index = SeeSawIndex.build(tiny_dataset, tiny_clip, config)
        assert index.vector_count == len(tiny_dataset)

    def test_forest_store_build(self, tiny_dataset, tiny_clip):
        config = SeeSawConfig(embedding_dim=64)
        index = SeeSawIndex.build(tiny_dataset, tiny_clip, config, build_graph=False)
        index.replace_store(
            RandomProjectionForest(index.store.vectors, seed=config.seed)
        )
        assert index.knn_graph is None and index.db_matrix is None
        assert index.vector_count > 0


class TestSearchContext:
    def test_top_unseen_images_excludes_seen(self, tiny_index):
        context = SearchContext(tiny_index)
        query = tiny_index.embed_query("a cat_easy")
        first = context.top_unseen_images(query, 3, set())
        excluded = {result.image_id for result in first}
        second = context.top_unseen_images(query, 3, excluded)
        assert not excluded & {result.image_id for result in second}

    def test_results_are_distinct_images_in_score_order(self, tiny_index):
        context = SearchContext(tiny_index)
        query = tiny_index.embed_query("a cat_easy")
        results = context.top_unseen_images(query, 5, set())
        ids = [result.image_id for result in results]
        scores = [result.score for result in results]
        assert len(ids) == len(set(ids))
        assert scores == sorted(scores, reverse=True)

    def test_score_all_images_matches_store(self, tiny_index):
        context = SearchContext(tiny_index)
        query = tiny_index.embed_query("a cat_easy")
        scores = context.score_all_images(query)
        assert set(scores) == set(tiny_index.image_ids)


class TestSearchSession:
    def test_listing1_loop(self, tiny_index):
        session = SearchSession(
            index=tiny_index,
            method=SeeSawSearchMethod(tiny_index.config),
            text_query="a cat_easy",
            batch_size=2,
        )
        batch = session.next_batch()
        assert len(batch) == 2
        for result in batch:
            relevant = tiny_index.dataset.is_relevant(result.image_id, "cat_easy")
            boxes = tiny_index.dataset.image(result.image_id).ground_truth_boxes("cat_easy")
            session.give_feedback(result.image_id, relevant, boxes)
        assert session.stats.rounds == 1
        assert len(session.shown_image_ids) == 2

    def test_next_batch_requires_feedback_first(self, tiny_index):
        session = SearchSession(
            index=tiny_index, method=SeeSawSearchMethod(tiny_index.config), text_query="a cat_easy"
        )
        session.next_batch()
        with pytest.raises(SessionError):
            session.next_batch()

    def test_feedback_for_unknown_image_rejected(self, tiny_index):
        session = SearchSession(
            index=tiny_index, method=SeeSawSearchMethod(tiny_index.config), text_query="a cat_easy"
        )
        session.next_batch()
        with pytest.raises(SessionError):
            session.give_feedback(10**9, True)

    def test_relevant_without_boxes_defaults_to_full_image(self, tiny_index):
        session = SearchSession(
            index=tiny_index, method=SeeSawSearchMethod(tiny_index.config), text_query="a cat_easy"
        )
        batch = session.next_batch()
        session.give_feedback(batch[0].image_id, True)
        stored = session.feedback.get(batch[0].image_id)
        assert stored.relevant and len(stored.boxes) == 1

    def test_no_repeated_images_over_session(self, tiny_index):
        session = SearchSession(
            index=tiny_index, method=SeeSawSearchMethod(tiny_index.config), text_query="a cat_hard"
        )
        for _ in range(10):
            batch = session.next_batch(1)
            if not batch:
                break
            result = batch[0]
            relevant = tiny_index.dataset.is_relevant(result.image_id, "cat_hard")
            boxes = tiny_index.dataset.image(result.image_id).ground_truth_boxes("cat_hard")
            session.give_feedback(result.image_id, relevant, boxes)
        shown = session.shown_image_ids
        assert len(shown) == len(set(shown))

    def test_invalid_batch_size(self, tiny_index):
        with pytest.raises(SessionError):
            SearchSession(
                index=tiny_index,
                method=SeeSawSearchMethod(tiny_index.config),
                text_query="a cat_easy",
                batch_size=0,
            )
