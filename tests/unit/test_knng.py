"""Tests for the kNN-graph substrate (kernels, exact scan, graph matrices)."""

import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from repro.config import KnnGraphConfig
from repro.exceptions import IndexingError
from repro.knng import graph as knng_graph
from repro.knng.graph import build_knn_graph, exact_knn
from repro.knng.kernels import gaussian_similarity, squared_distance_from_inner
from repro.utils.linalg import normalize_rows


@pytest.fixture()
def clustered_vectors(rng):
    """Three well-separated clusters of unit vectors."""
    centers = normalize_rows(rng.standard_normal((3, 16)))
    points = []
    for center in centers:
        points.append(normalize_rows(center + 0.05 * rng.standard_normal((40, 16))))
    return np.vstack(points)


class TestKernels:
    def test_gaussian_similarity_range(self):
        distances = np.array([0.0, 0.1, 1.0])
        weights = gaussian_similarity(distances, sigma=0.3)
        assert weights[0] == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)

    def test_invalid_sigma(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            gaussian_similarity(np.array([1.0]), sigma=0.0)

    def test_squared_distance_from_inner(self):
        inner = np.array([1.0, 0.0, -1.0])
        expected = np.array([0.0, 2.0, 4.0])
        assert np.allclose(squared_distance_from_inner(inner), expected)


class TestExactKnn:
    def test_neighbors_are_sorted_and_exclude_self(self, clustered_vectors):
        ids, sims = exact_knn(clustered_vectors, k=5)
        assert ids.shape == (120, 5)
        for node in range(ids.shape[0]):
            assert node not in ids[node]
            assert np.all(np.diff(sims[node]) <= 1e-12)

    def test_matches_bruteforce_for_small_input(self, rng):
        vectors = normalize_rows(rng.standard_normal((30, 8)))
        ids, _ = exact_knn(vectors, k=3)
        sims = vectors @ vectors.T
        np.fill_diagonal(sims, -np.inf)
        expected = np.argsort(-sims, axis=1)[:, :3]
        assert np.array_equal(np.sort(ids, axis=1), np.sort(expected, axis=1))

    def test_requires_two_vectors(self):
        with pytest.raises(IndexingError):
            exact_knn(np.ones((1, 4)), k=1)

    def test_peak_memory_is_bounded_by_the_chunk_budget(self, rng):
        count, k = 6000, 10
        vectors = normalize_rows(rng.standard_normal((count, 32)))
        tracemalloc.start()
        try:
            exact_knn(vectors, k=k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = 2 * count * k * 8
        block = knng_graph._CHUNK_BYTES
        selection = knng_graph._SELECT_ROWS * count * 8  # one argpartition result
        chunk_rows = block // (8 * count)
        top_k = 8 * chunk_rows * k * 8  # the chunk's (rows, k) ids, sims and orders
        assert peak <= block + selection + top_k + outputs

    def test_float32_rows_hold_one_float64_copy(self, rng):
        """A float32 corpus is widened once and normalised in place: the
        scan holds that one float64 copy, not a second normalised one, and
        returns the bits of the float64 path over the normalised rows."""
        count, dim, k = 4096, 512, 10
        vectors = normalize_rows(rng.standard_normal((count, dim))).astype(np.float32)
        tracemalloc.start()
        try:
            ids, sims = exact_knn(vectors, k=k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = 2 * count * k * 8
        assert peak <= count * dim * 8 + 3 * knng_graph._CHUNK_BYTES + outputs
        expected_ids, expected_sims = exact_knn(
            normalize_rows(vectors.astype(np.float64)), k=k
        )
        assert ids.tobytes() == expected_ids.tobytes()
        assert sims.tobytes() == expected_sims.tobytes()


def full_block_knn(vectors, k):
    """The scan with one ``argpartition`` over each whole chunk: the
    selection :func:`exact_knn` does a few rows at a time."""
    count = vectors.shape[0]
    k = min(k, count - 1)
    neighbor_ids = np.empty((count, k), dtype=np.int64)
    neighbor_sims = np.empty((count, k), dtype=np.float64)
    chunk_rows = max(1, min(count, knng_graph._CHUNK_BYTES // (8 * count)))
    buffer = np.empty((chunk_rows, count), dtype=np.float64)
    for start in range(0, count, chunk_rows):
        stop = min(count, start + chunk_rows)
        sims = np.dot(vectors[start:stop], vectors.T, out=buffer[: stop - start])
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        np.negative(sims, out=sims)
        top = np.argpartition(sims, k - 1, axis=1)[:, :k].copy()
        top_sims = -np.take_along_axis(sims, top, axis=1)
        order = np.argsort(-top_sims, axis=1)
        neighbor_ids[start:stop] = np.take_along_axis(top, order, axis=1)
        neighbor_sims[start:stop] = np.take_along_axis(top_sims, order, axis=1)
    return neighbor_ids, neighbor_sims


class TestExactKnnSelection:
    """Selecting a few rows per ``argpartition`` call returns the bytes of
    one call per chunk, ties included."""

    @pytest.mark.parametrize("count", [61, 300])
    @pytest.mark.parametrize("k", [1, 5, 60])
    @pytest.mark.parametrize("chunk_rows", [37, None])  # None: one chunk
    def test_matches_full_block_selection(self, rng, monkeypatch, count, k, chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(knng_graph, "_CHUNK_BYTES", 8 * count * chunk_rows)
        # Few distinct coordinates and repeated rows: many exact ties.
        vectors = rng.integers(0, 3, size=(count, 4)).astype(np.float64)
        vectors[:, 0] += 1.0  # no zero rows
        vectors[::5] = vectors[1]
        vectors = normalize_rows(vectors)
        ids, sims = exact_knn(vectors, k=k)
        expected_ids, expected_sims = full_block_knn(vectors, k)
        assert ids.tobytes() == expected_ids.tobytes()
        assert sims.tobytes() == expected_sims.tobytes()


class TestExactKnnChunkBoundaries:
    """Every chunk size gives the same neighbours, and the brute-force ones.

    Measured with OpenBLAS: a GEMM's result bits do not change when its
    columns are tiled, but do change with its row count M, so the chunk size
    may move a similarity in the last bits — here by at most 1e-15, not
    enough to reorder tie-free neighbours.
    """

    COUNT = 50

    @pytest.fixture()
    def vectors(self, rng):
        return normalize_rows(rng.standard_normal((self.COUNT, 8)))

    @pytest.mark.parametrize("k", [3, COUNT - 1])
    def test_ids_match_bruteforce_at_every_budget(self, vectors, monkeypatch, k):
        reference_sims = vectors @ vectors.T
        np.fill_diagonal(reference_sims, -np.inf)
        reference_ids = np.argsort(-reference_sims, axis=1)[:, :k]
        reference_top = np.take_along_axis(reference_sims, reference_ids, axis=1)
        results = []
        for rows in (1, 7, self.COUNT):  # 7 does not divide COUNT
            monkeypatch.setattr(knng_graph, "_CHUNK_BYTES", 8 * self.COUNT * rows)
            results.append(exact_knn(vectors, k=k))
        for ids, sims in results:
            assert np.array_equal(ids, reference_ids)
            assert np.max(np.abs(sims - reference_top)) <= 1e-15
        assert all(np.array_equal(ids, results[0][0]) for ids, _ in results)


def dense_reference(graph):
    """``W`` built densely: each directed weight, then the max with its transpose."""
    count = graph.node_count
    directed = np.zeros((count, count))
    rows = np.repeat(np.arange(count), graph.k)
    directed[rows, graph.neighbor_ids.ravel()] = graph.neighbor_weights.ravel()
    return np.maximum(directed, directed.T)


def densify(adjacency):
    indptr, indices, weights, _ = adjacency
    count = indptr.size - 1
    dense = np.zeros((count, count))
    dense[np.repeat(np.arange(count), np.diff(indptr)), indices] = weights
    return dense


class TestKnnGraph:
    def test_adjacency_is_symmetric_and_sparse(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, KnnGraphConfig(k=5))
        adjacency = graph.csr()
        indptr, indices, _, _ = adjacency
        dense = densify(adjacency)
        assert np.array_equal(dense, dense_reference(graph))
        assert np.array_equal(dense, dense.T)
        assert indices.size == np.count_nonzero(dense) < dense.size // 4
        for row in range(graph.node_count):
            assert np.all(np.diff(indices[indptr[row] : indptr[row + 1]]) > 0)
        assert graph.csr() is adjacency  # cached

    def test_laplacian_is_psd(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, KnnGraphConfig(k=5))
        adjacency = graph.csr()
        laplacian = np.diag(adjacency[3]) - densify(adjacency)
        assert np.array_equal(laplacian, laplacian.T)
        assert np.linalg.eigvalsh(laplacian).min() > -1e-8

    def test_degree_matches_adjacency_row_sums(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, KnnGraphConfig(k=4))
        _, _, _, degrees = graph.csr()
        assert np.allclose(degrees, dense_reference(graph).sum(axis=1), rtol=0, atol=1e-12)

    def test_neighbors_within_cluster(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, KnnGraphConfig(k=5))
        # Points 0..39 belong to cluster 0; their neighbours should too.
        ids, _ = graph.neighbors_of(0)
        assert np.all(ids < 40)

    def test_adaptive_sigma_keeps_weights_informative(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, KnnGraphConfig(k=5, sigma=0.05))
        assert graph.neighbor_weights.max() > 0.1

    def test_unknown_node_raises(self, clustered_vectors):
        graph = build_knn_graph(clustered_vectors, KnnGraphConfig(k=3))
        with pytest.raises(IndexingError):
            graph.neighbors_of(10**6)


class TestScipyStaysOffTheRestartPath:
    """Only the propagation baseline imports ``scipy``: neither a cold build
    with the graph and ``M_D`` nor a warm start loads it."""

    WARM_SCRIPT = textwrap.dedent(
        """
        import sys

        import repro.server
        from repro.config import SeeSawConfig
        from repro.data.catalogs import load_dataset
        from repro.embedding.synthetic_clip import SyntheticClip
        from repro.store import IndexCache

        dataset = load_dataset("bdd", seed=0, size_scale=0.02)
        embedding = SyntheticClip.for_dataset(dataset, dim=32, seed=0)
        _, cached = IndexCache(sys.argv[1]).load_or_build(
            dataset, embedding, SeeSawConfig(embedding_dim=32), build_graph=False
        )
        print(cached, "scipy.sparse" in sys.modules)
        """
    )

    COLD_SCRIPT = textwrap.dedent(
        """
        import sys

        from repro.config import SeeSawConfig
        from repro.data.catalogs import load_dataset
        from repro.embedding.synthetic_clip import SyntheticClip
        from repro.server import (
            FeedbackRequest, InProcessClient, SeeSawApp, SeeSawService,
            SessionManager, StartSessionRequest,
        )

        dataset = load_dataset("bdd", seed=0, size_scale=0.02)
        embedding = SyntheticClip.for_dataset(dataset, dim=32, seed=0)
        service = SeeSawService(SeeSawConfig(embedding_dim=32))
        service.register_dataset(dataset, embedding)
        client = InProcessClient(SeeSawApp(SessionManager(service)))
        info = client.start_session(StartSessionRequest(
            dataset="bdd", text_query=dataset.category_names[0], batch_size=2
        ))
        for relevant in (True, False):
            for item in client.next_results(info.session_id).items:
                client.give_feedback(FeedbackRequest(
                    session_id=info.session_id, image_id=item.image_id, relevant=relevant
                ))
        client.next_results(info.session_id)
        index = service.index_for("bdd", multiscale=True)
        print(index.db_matrix is not None, any(m.startswith("scipy") for m in sys.modules))
        """
    )

    def run(self, script: str, *args: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", script, *args],
            check=True, capture_output=True, text=True,
        ).stdout.strip()

    def test_warm_start_without_a_graph_never_imports_scipy(self, tmp_path):
        assert self.run(self.WARM_SCRIPT, str(tmp_path)) == "False False"  # cold: builds and stores
        assert self.run(self.WARM_SCRIPT, str(tmp_path)) == "True False"  # warm: a cache hit

    def test_cold_build_with_the_graph_and_a_session_never_imports_scipy(self):
        assert self.run(self.COLD_SCRIPT) == "True False"
