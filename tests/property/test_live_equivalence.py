"""Bit-identity of the live (delta-over-base) view against rebuilds.

The mutable tier's core contract: after any sequence of upserts and
deletes, a session served by the delta view returns *exactly* — bit for
bit, through score ties — what a session over a from-scratch index of the
same logical corpus returns, on every exhaustive tier composition; and
after a merge, the sealed generation is exactly a cold build of the merged
corpus on every tier, including the candidate tiers (quantized, graph-ANN)
whose pre-merge delta path is exact-over-delta but approximate-over-base.

Plus the zero-downtime property: concurrent readers across a background
merge swap observe no errors and no stale-generation leaks.

A merge embeds nothing: it seals the rows the live view already holds, so
its artifacts are checked array for array against a cold build, and the
rows ``embed_patches`` embeds are counted across it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import SeeSawConfig
from repro.core.indexing import SeeSawIndex
from repro.core.multiscale import generate_patches
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.data.generators import DatasetProfile, SceneGenerator
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.embedding.synthetic_clip import SyntheticClip
from repro.exceptions import IndexingError
from repro.live import DeltaVectorStore
from repro.server.api import FeedbackRequest, StartSessionRequest
from repro.server.service import SeeSawService

TIERS = {
    "flat": {},
    "sharded": {"n_shards": 3},
    "quantized": {"quantized_store": True},
    "graph": {"ann_search": True, "ann_graph_degree": 8, "ann_ef": 48},
    "float32": {"compute_dtype": "float32"},
}
EXHAUSTIVE_TIERS = ("flat", "sharded")


def build_corpus(seed: int = 23, image_count: int = 14):
    profile = DatasetProfile(
        name="live",
        description="live-equivalence corpus",
        image_count=image_count,
        category_count=4,
        image_sizes=((640, 480),),
        contexts=("indoor", "outdoor"),
        objects_per_image=(1, 2),
        object_scale_range=(0.2, 0.5),
        frequency_range=(0.1, 0.4),
        rare_fraction=0.2,
        easy_query_fraction=0.5,
        hard_deficit_range=(0.9, 1.2),
        min_positives=2,
    )
    dataset = SceneGenerator(profile, seed=seed).generate()
    clip = SyntheticClip.for_dataset(dataset, dim=32, seed=seed)
    return dataset, clip


def make_service(tier: str) -> "tuple[SeeSawService, object, object]":
    config = SeeSawConfig(
        embedding_dim=32, seed=23, live_datasets=True, **TIERS[tier]
    )
    dataset, clip = build_corpus()
    service = SeeSawService(config)
    service.register_dataset(dataset, clip, preprocess=True)
    return service, dataset, clip


def added_image(image_id: int, category: str) -> SyntheticImage:
    rng = np.random.default_rng(image_id)
    return SyntheticImage(
        image_id=image_id,
        width=640,
        height=480,
        context="indoor",
        objects=(
            ObjectInstance(
                category=category,
                box=BoundingBox(
                    float(rng.integers(0, 300)),
                    float(rng.integers(0, 200)),
                    200.0,
                    180.0,
                ),
            ),
        ),
    )


def mutate(service: SeeSawService, dataset) -> None:
    """A fixed mutation script: add two, replace one, delete one."""
    categories = [info.name for info in dataset.categories]
    service.live.upsert_images(
        "live",
        [added_image(800, categories[0]), added_image(801, categories[1])],
    )
    service.live.upsert_images(
        "live", [added_image(dataset.images[2].image_id, categories[0])]
    )
    service.live.delete_images("live", [dataset.images[5].image_id])


def run_session(index: SeeSawIndex, config: SeeSawConfig, query: str, rounds: int = 4):
    """Drive a fixed-feedback session; returns the exact (id, score) trace."""
    session = SearchSession(
        index=index,
        method=SeeSawSearchMethod(config),
        text_query=query,
        batch_size=3,
    )
    trace = []
    positives = {
        image.image_id
        for image in index.dataset.images
        if query.split()[-1] in image.categories
    }
    for _ in range(rounds):
        batch = session.next_batch()
        if not batch:
            break
        for result in batch:
            trace.append((result.image_id, result.score))
            session.give_feedback(result.image_id, result.image_id in positives)
    return trace


def rebuild_like_live(service, clip, full: bool):
    """A from-scratch index of the current logical corpus, same tier stack.

    ``full=False`` mirrors the delta view's degraded artifacts (no kNN
    graph, no DB-alignment matrix); ``full=True`` mirrors a sealed merge
    generation (everything a cold build gets).
    """
    state = service.live.state_for("live")
    merged = state.merged_dataset()
    rebuilt = SeeSawIndex.build(
        merged,
        clip,
        state.config,
        compute_db_alignment=full,
        build_graph=full,
    )
    service._apply_store_tiers(rebuilt)
    return rebuilt


class TestMutationEquivalence:
    @pytest.mark.parametrize("tier", EXHAUSTIVE_TIERS)
    def test_pre_merge_sessions_bit_identical_to_rebuild(self, tier):
        service, dataset, clip = make_service(tier)
        try:
            mutate(service, dataset)
            live_index = service.index_for("live", multiscale=True)
            assert isinstance(live_index.store, DeltaVectorStore)
            rebuilt = rebuild_like_live(service, clip, full=False)
            for category in [info.name for info in dataset.categories[:2]]:
                query = f"a {category}"
                live_trace = run_session(live_index, service.config, query)
                rebuilt_trace = run_session(rebuilt, service.config, query)
                assert live_trace == rebuilt_trace  # ids AND score bits
        finally:
            service.live.close()

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_post_merge_sessions_bit_identical_to_cold_build(self, tier):
        service, dataset, clip = make_service(tier)
        try:
            mutate(service, dataset)
            service.live.force_merge("live")
            sealed = service.index_for("live", multiscale=True)
            assert not isinstance(sealed.store, DeltaVectorStore)
            rebuilt = rebuild_like_live(service, clip, full=True)
            for category in [info.name for info in dataset.categories[:2]]:
                query = f"a {category}"
                sealed_trace = run_session(sealed, service.config, query)
                rebuilt_trace = run_session(rebuilt, service.config, query)
                assert sealed_trace == rebuilt_trace
        finally:
            service.live.close()

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_candidate_tiers_serve_delta_rows_exactly(self, tier):
        """Even approximate bases must surface fresh delta rows (exact scan)."""
        service, dataset, clip = make_service(tier)
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [added_image(850, category)])
            index = service.index_for("live", multiscale=True)
            store = index.store
            vector_ids = index.vector_ids_for_image(850)
            query = store.vector(vector_ids[0])
            ids, scores = store.search_arrays(query, 5)
            assert vector_ids[0] in ids
            assert scores[list(ids).index(vector_ids[0])] == pytest.approx(1.0)
        finally:
            service.live.close()

    def test_interleaved_merge_and_mutations_converge(self):
        """Ops landing after a merge snapshot replay onto the new base."""
        service, dataset, clip = make_service("flat")
        try:
            categories = [info.name for info in dataset.categories]
            mutate(service, dataset)
            service.live.force_merge("live")
            service.live.upsert_images("live", [added_image(860, categories[0])])
            service.live.delete_images("live", [800])
            service.live.force_merge("live")
            sealed = service.index_for("live", multiscale=True)
            rebuilt = rebuild_like_live(service, clip, full=True)
            assert sealed.image_ids == rebuilt.image_ids
            trace = run_session(sealed, service.config, f"a {categories[0]}")
            assert trace == run_session(rebuilt, service.config, f"a {categories[0]}")
            assert 860 in sealed.image_ids and 800 not in sealed.image_ids
        finally:
            service.live.close()


class TestConcurrentSwap:
    def test_queries_see_no_errors_across_merge_swaps(self):
        """Zero-downtime: readers race mutations + merges without failures."""
        service, dataset, clip = make_service("flat")
        try:
            category = dataset.categories[0].name
            errors: "list[BaseException]" = []
            stop = threading.Event()

            def reader() -> None:
                while not stop.is_set():
                    try:
                        info = service.start_session(
                            StartSessionRequest(
                                dataset="live", text_query=f"a {category}"
                            )
                        )
                        response = service.next_results(info.session_id)
                        for item in response.items:
                            service.give_feedback(
                                FeedbackRequest(
                                    session_id=info.session_id,
                                    image_id=item.image_id,
                                    relevant=False,
                                )
                            )
                        service.next_results(info.session_id)
                        service.close_session(info.session_id)
                    except BaseException as exc:  # noqa: BLE001 - recorded
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for step in range(6):
                    service.live.upsert_images(
                        "live", [added_image(900 + step, category)]
                    )
                    service.live.force_merge("live")
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert errors == []
            manifest = service.live.describe("live")
            assert manifest["merges_completed"] == 6
            assert manifest["delta_rows"] == 0
            # No stale-generation leak: the serving index is the newest one.
            state = service.live.state_for("live")
            assert service.index_for("live", multiscale=True) is state.current
        finally:
            service.live.close()

    def test_background_merge_trigger_is_transparent_to_readers(self):
        service, dataset, clip = make_service("flat")
        # Re-register with an aggressive ratio so every upsert triggers.
        config = SeeSawConfig(
            embedding_dim=32, seed=23, live_datasets=True, merge_trigger_ratio=0.01
        )
        service = SeeSawService(config)
        service.register_dataset(dataset, clip, preprocess=True)
        try:
            category = dataset.categories[0].name
            for step in range(3):
                service.live.upsert_images(
                    "live", [added_image(930 + step, category)]
                )
                info = service.start_session(
                    StartSessionRequest(dataset="live", text_query=f"a {category}")
                )
                assert service.next_results(info.session_id).items
            service.live.merger.join()
            manifest = service.live.describe("live")
            assert manifest["merges_completed"] >= 1
            index = service.index_for("live", multiscale=True)
            assert {930, 931, 932} <= set(index.image_ids)
        finally:
            service.live.close()


def assert_arrays_identical(actual, expected) -> None:
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def assert_same_artifacts(sealed: SeeSawIndex, cold: SeeSawIndex) -> None:
    """Every array a merge seals equals the cold build's, bits and dtype."""
    assert_arrays_identical(np.asarray(sealed.store.vectors), np.asarray(cold.store.vectors))
    assert_arrays_identical(sealed.patch_boxes, cold.patch_boxes)
    assert_arrays_identical(sealed.patch_levels, cold.patch_levels)
    for column in ("image_ids", "order", "offsets", "vector_image_rows"):
        assert_arrays_identical(
            getattr(sealed.segments, column), getattr(cold.segments, column)
        )
    assert_arrays_identical(
        sealed.knn_graph.neighbor_ids, cold.knn_graph.neighbor_ids
    )
    assert_arrays_identical(
        sealed.knn_graph.neighbor_weights, cold.knn_graph.neighbor_weights
    )
    assert_arrays_identical(sealed.db_matrix, cold.db_matrix)


def cold_build(service, clip) -> SeeSawIndex:
    state = service.live.state_for("live")
    return SeeSawIndex.build(state.merged_dataset(), clip, state.config)


def count_embeds(monkeypatch, clip) -> "list[int]":
    """Count the rows ``clip.embed_patches`` embeds; returns the counter."""
    rows = [0]
    embed_patches = clip.embed_patches

    def counting(image, regions):
        vectors = embed_patches(image, regions)
        rows[0] += len(vectors)
        return vectors

    monkeypatch.setattr(clip, "embed_patches", counting)
    return rows


class TestMergeSealsResidentRows:
    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_sealed_artifacts_equal_cold_build_across_two_merges(self, tier):
        service, dataset, clip = make_service(tier)
        try:
            categories = [info.name for info in dataset.categories]
            mutate(service, dataset)
            service.live.force_merge("live")
            sealed = service.index_for("live", multiscale=True)
            assert not isinstance(sealed.store, DeltaVectorStore)
            assert_same_artifacts(sealed, cold_build(service, clip))
            # Second round: the gather now reads a merged base plus delta.
            service.live.upsert_images(
                "live",
                [added_image(802, categories[2]), added_image(800, categories[3])],
            )
            service.live.delete_images("live", [dataset.images[7].image_id, 801])
            service.live.force_merge("live")
            sealed = service.index_for("live", multiscale=True)
            assert_same_artifacts(sealed, cold_build(service, clip))
        finally:
            service.live.close()

    def test_forced_merge_embeds_nothing(self, monkeypatch):
        service, dataset, clip = make_service("flat")
        try:
            calls = count_embeds(monkeypatch, clip)
            mutate(service, dataset)
            assert calls[0] > 0  # upserts embed their own patches
            calls[0] = 0
            service.live.force_merge("live")
            assert calls[0] == 0
            assert service.live.describe("live")["merges_completed"] == 1
        finally:
            service.live.close()

    def test_replayed_upsert_embeds_only_its_own_patches(self, monkeypatch):
        service, dataset, clip = make_service("flat")
        try:
            category = dataset.categories[0].name
            mutate(service, dataset)
            calls = count_embeds(monkeypatch, clip)
            merger = service.live.merger
            build_sealed = merger._build_sealed
            during: "dict[str, int]" = {}

            def build_then_mutate(*args, **kwargs):
                sealed = build_sealed(*args, **kwargs)
                during["build"] = calls[0]
                # An upsert landing mid-merge: journalled after the
                # snapshot, so the swap replays it over the new base.
                service.live.upsert_images("live", [added_image(870, category)])
                during["after_upsert"] = calls[0]
                return sealed

            monkeypatch.setattr(merger, "_build_sealed", build_then_mutate)
            service.live.force_merge("live")
            state = service.live.state_for("live")
            patches = len(generate_patches(640, 480, state.config.multiscale))
            assert during["build"] == 0
            assert during["after_upsert"] == patches
            assert calls[0] - during["after_upsert"] == patches
            assert 870 in service.index_for("live", multiscale=True).image_ids
            assert state.delta_rows == patches
        finally:
            service.live.close()

    def test_build_rejects_vectors_of_another_corpus(self):
        dataset, clip = build_corpus()
        config = SeeSawConfig(embedding_dim=32, seed=23)
        with pytest.raises(IndexingError, match="rows"):
            SeeSawIndex.build(dataset, clip, config, vectors=np.zeros((3, 32)))

    def test_merged_generation_lands_in_index_cache(self, tmp_path):
        config = SeeSawConfig(
            embedding_dim=32, seed=23, live_datasets=True, index_cache_dir=str(tmp_path)
        )
        dataset, clip = build_corpus()
        service = SeeSawService(config)
        service.register_dataset(dataset, clip, preprocess=True)
        try:
            mutate(service, dataset)
            service.live.force_merge("live")
            state = service.live.state_for("live")
            snapshot = state.merged_dataset()
            cache = service._caches["live"]
            key = cache.key(snapshot, clip, state.config)
            assert cache.contains(key)
            assert state.base_cache_key == key
            merged = service.index_for("live", multiscale=True)
        finally:
            service.live.close()
        fresh = SeeSawService(config)
        fresh.register_dataset(snapshot, clip, preprocess=True)
        try:
            assert (fresh.cache_hits, fresh.cache_misses) == (1, 0)
            assert_same_artifacts(fresh.index_for("live", multiscale=True), merged)
        finally:
            fresh.live.close()
