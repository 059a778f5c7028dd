"""Unit tests of the live-dataset tier: delta store, registry, merger.

Bit-identity of a mutated live view against a from-scratch rebuild — the
tier's core correctness property — lives in
``tests/property/test_live_equivalence.py``; this module covers the unit
surfaces: :class:`~repro.live.delta.DeltaVectorStore` validation and
scoring, registry versioning/manifests, mutation validation, version
pinning, and the merge triggers.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.config import SeeSawConfig
from repro.data.generators import DatasetProfile, SceneGenerator
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.embedding.synthetic_clip import SyntheticClip
from repro.exceptions import (
    ServiceOverloadedError,
    SessionError,
    UnknownResourceError,
    VectorStoreError,
)
from repro.live import DeltaVectorStore, MANIFEST_FORMAT, RETAINED_GENERATIONS, merger
from repro.server.api import StartSessionRequest
from repro.server.service import SeeSawService


# ---------------------------------------------------------------------------
# fixtures: a small mutable corpus, rebuilt per test (mutations are stateful)
# ---------------------------------------------------------------------------
def small_dataset(name: str = "live", image_count: int = 12, seed: int = 11):
    profile = DatasetProfile(
        name=name,
        description="small live-tier test corpus",
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
    return SceneGenerator(profile, seed=seed).generate()


def make_service(tmp_path=None, **overrides) -> "tuple[SeeSawService, object]":
    fields = {
        "embedding_dim": 32,
        "seed": 11,
        "live_datasets": True,
        "index_cache_dir": None if tmp_path is None else str(tmp_path / "cache"),
    }
    fields.update(overrides)
    config = SeeSawConfig(**fields)
    dataset = small_dataset()
    clip = SyntheticClip.for_dataset(dataset, dim=32, seed=11)
    service = SeeSawService(config)
    service.register_dataset(dataset, clip, preprocess=True)
    return service, dataset


def new_image(image_id: int, category: str, seed: int = 0) -> SyntheticImage:
    rng = np.random.default_rng(seed + image_id)
    x, y = float(rng.integers(0, 300)), float(rng.integers(0, 200))
    return SyntheticImage(
        image_id=image_id,
        width=640,
        height=480,
        context="indoor",
        objects=(
            ObjectInstance(category=category, box=BoundingBox(x, y, 180.0, 160.0)),
        ),
    )


# ---------------------------------------------------------------------------
# DeltaVectorStore
# ---------------------------------------------------------------------------
class TestDeltaVectorStore:
    @pytest.fixture()
    def base_index(self):
        service, dataset = make_service()
        index = service.index_for("live", multiscale=True)
        yield index
        service.live.close()

    def _delta_parts(self, base_index, rows: int):
        """Delta rows copied off the tail of the base (already unit-norm)."""
        store = base_index.store
        n_base = len(store)
        return np.stack([store.vector(n_base - rows + i) for i in range(rows)])

    def test_empty_delta_scores_like_base(self, base_index):
        store = base_index.store
        delta = DeltaVectorStore(
            store,
            np.zeros((0, store.dim)),
            np.zeros(len(store), dtype=bool),
        )
        assert len(delta) == len(store)
        assert delta.delta_rows == 0
        query = store.vector(0)
        np.testing.assert_array_equal(delta.score_all(query), store.score_all(query))
        ids, scores = delta.search_arrays(query, 5)
        base_ids, base_scores = store.search_arrays(query, 5)
        np.testing.assert_array_equal(ids, base_ids)
        np.testing.assert_array_equal(scores, base_scores)

    def test_delta_rows_appear_in_scores_and_search(self, base_index):
        store = base_index.store
        n_base = len(store)
        vectors = self._delta_parts(base_index, 2)
        delta = DeltaVectorStore(store, vectors, np.zeros(n_base + 2, dtype=bool))
        assert len(delta) == n_base + 2
        assert delta.delta_rows == 2
        query = vectors[0]
        scores = delta.score_all(query)
        np.testing.assert_array_equal(scores[:n_base], store.score_all(query))
        np.testing.assert_allclose(scores[n_base], 1.0, atol=1e-6)
        ids, all_scores = delta.search_arrays(query, len(delta))
        assert n_base in ids  # the appended copy of the query row ranks
        assert all_scores[list(ids).index(n_base)] == pytest.approx(1.0)

    def test_tombstones_masked_on_candidate_path(self, base_index):
        store = base_index.store
        n_base = len(store)
        vectors = self._delta_parts(base_index, 2)
        tombstones = np.zeros(n_base + 2, dtype=bool)
        tombstones[n_base] = True  # first delta row dead
        query = vectors[0]
        delta = DeltaVectorStore(store, vectors, tombstones)
        ids, _ = delta.search_arrays(query, len(delta))
        assert n_base not in ids
        assert n_base + 1 in ids
        # score_all keeps the true score (pooling drops the row by mapping)
        scores = delta.score_all(query)
        assert np.isfinite(scores[n_base])

    def test_tombstoned_base_rows_fold_into_base_mask(self, base_index):
        store = base_index.store
        n_base = len(store)
        tombstones = np.zeros(n_base, dtype=bool)
        tombstones[0] = True
        delta = DeltaVectorStore(store, np.zeros((0, store.dim)), tombstones)
        ids, _ = delta.search_arrays(store.vector(0), len(delta))
        assert 0 not in ids

    def test_exclude_mask_composes_with_tombstones(self, base_index):
        store = base_index.store
        n_base = len(store)
        vectors = self._delta_parts(base_index, 2)
        delta = DeltaVectorStore(store, vectors, np.zeros(n_base + 2, dtype=bool))
        mask = np.zeros(n_base + 2, dtype=bool)
        mask[n_base + 1] = True
        ids, _ = delta.search_arrays(vectors[1], len(delta), exclude_mask=mask)
        assert n_base + 1 not in ids

    def test_validation_errors(self, base_index):
        store = base_index.store
        n_base = len(store)
        vectors = self._delta_parts(base_index, 2)
        with pytest.raises(VectorStoreError, match="delta vectors"):
            DeltaVectorStore(
                store,
                np.zeros((2, store.dim + 1)),
                np.zeros(n_base + 2, dtype=bool),
            )
        with pytest.raises(VectorStoreError, match="tombstones"):
            DeltaVectorStore(store, vectors, np.zeros(n_base, dtype=bool))
        with pytest.raises(VectorStoreError, match="k must be"):
            DeltaVectorStore(
                store, vectors, np.zeros(n_base + 2, dtype=bool)
            ).search_arrays(store.vector(0), 0)

    def test_matrix_is_never_shared(self, base_index):
        store = base_index.store
        delta = DeltaVectorStore(
            store, np.zeros((0, store.dim)), np.zeros(len(store), dtype=bool)
        )
        with pytest.raises(VectorStoreError, match="share"):
            delta._share_vectors(np.zeros((1, store.dim)))


# ---------------------------------------------------------------------------
# DatasetRegistry
# ---------------------------------------------------------------------------
class TestDatasetRegistry:
    def test_register_publishes_version_one(self):
        service, dataset = make_service()
        try:
            manifest = service.live.describe("live")
            assert manifest["format"] == MANIFEST_FORMAT
            assert manifest["version"] == 1
            assert manifest["generation"] == 1
            assert manifest["image_count"] == len(dataset.images)
            assert manifest["delta_rows"] == 0
            names = [entry["name"] for entry in service.live.list_datasets()]
            assert names == ["live"]
        finally:
            service.live.close()

    def test_upsert_bumps_version_and_serves_new_image(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            manifest = service.live.upsert_images(
                "live", [new_image(900, category)]
            )
            assert manifest["version"] == 2
            assert manifest["generation"] == 2
            assert manifest["delta_rows"] > 0
            index = service.index_for("live", multiscale=True)
            assert 900 in index.image_ids
            assert isinstance(index.store, DeltaVectorStore)
            info = service.start_session(
                StartSessionRequest(dataset="live", text_query=f"a {category}")
            )
            response = service.next_results(info.session_id)
            assert response.items  # the live view serves sessions
        finally:
            service.live.close()

    def test_upsert_replaces_existing_image(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            target = dataset.images[0].image_id
            before = service.live.describe("live")["image_count"]
            manifest = service.live.upsert_images(
                "live", [new_image(target, category)]
            )
            assert manifest["image_count"] == before  # replaced, not added
            assert manifest["tombstones"] > 0  # old rows tombstoned
            index = service.index_for("live", multiscale=True)
            assert index.image_ids.count(target) == 1
        finally:
            service.live.close()

    def test_delete_removes_image_from_view(self):
        service, dataset = make_service()
        try:
            target = dataset.images[-1].image_id
            manifest = service.live.delete_images("live", [target])
            assert manifest["version"] == 2
            index = service.index_for("live", multiscale=True)
            assert target not in index.image_ids
        finally:
            service.live.close()

    def test_mutation_validation(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            with pytest.raises(SessionError, match="at least one image"):
                service.live.upsert_images("live", [])
            with pytest.raises(SessionError, match="duplicate image id"):
                service.live.upsert_images(
                    "live", [new_image(901, category), new_image(901, category)]
                )
            with pytest.raises(SessionError, match="unknown categories"):
                service.live.upsert_images("live", [new_image(902, "no-such-cat")])
            with pytest.raises(UnknownResourceError, match="not in dataset"):
                service.live.delete_images("live", [123456])
            with pytest.raises(SessionError, match="at least one"):
                service.live.delete_images(
                    "live", [image.image_id for image in dataset.images]
                )
            with pytest.raises(UnknownResourceError):
                service.live.upsert_images("nope", [new_image(903, category)])
        finally:
            service.live.close()

    def test_mutations_require_live_datasets_flag(self):
        service, dataset = make_service(live_datasets=False)
        try:
            category = dataset.categories[0].name
            with pytest.raises(SessionError, match="live_datasets"):
                service.live.upsert_images("live", [new_image(904, category)])
            with pytest.raises(SessionError, match="live_datasets"):
                service.live.delete_images("live", [dataset.images[0].image_id])
            # Introspection stays available either way.
            assert service.live.describe("live")["version"] == 1
        finally:
            service.live.close()

    def test_full_delta_sheds_with_retry_hint(self):
        service, dataset = make_service(delta_max_rows=1)
        try:
            category = dataset.categories[0].name
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.live.upsert_images("live", [new_image(905, category)])
            assert excinfo.value.retry_after_seconds is not None
            service.live.merger.join()
        finally:
            service.live.close()

    def test_version_pinning_survives_later_mutations(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            v1 = service.live.index_for_version("live", 1)
            service.live.upsert_images("live", [new_image(906, category)])
            # The pinned view is exactly the pre-mutation object.
            assert service.live.index_for_version("live", 1) is v1
            assert 906 not in v1.image_ids
            v2 = service.live.index_for_version("live", 2)
            assert 906 in v2.image_ids
            info = service.start_session(
                StartSessionRequest(
                    dataset="live", text_query=f"a {category}", dataset_version=1
                )
            )
            assert service.next_results(info.session_id).items
        finally:
            service.live.close()

    def test_pinning_validation(self):
        service, dataset = make_service()
        try:
            with pytest.raises(UnknownResourceError, match="not retained"):
                service.live.index_for_version("live", 99)
            with pytest.raises(SessionError, match="multiscale"):
                service.start_session(
                    StartSessionRequest(
                        dataset="live",
                        text_query="a thing",
                        multiscale=False,
                        dataset_version=1,
                    )
                )
            with pytest.raises(SessionError, match=">= 1"):
                service.start_session(
                    StartSessionRequest(
                        dataset="live", text_query="a thing", dataset_version=0
                    )
                )
        finally:
            service.live.close()

    def test_retention_window_ages_out_old_versions(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            for step in range(RETAINED_GENERATIONS + 1):
                service.live.upsert_images("live", [new_image(910 + step, category)])
            manifest = service.live.describe("live")
            assert len(manifest["retained_versions"]) == RETAINED_GENERATIONS
            aged_out = manifest["retained_versions"][0] - 1
            if aged_out >= 1:
                with pytest.raises(UnknownResourceError, match="not retained"):
                    service.live.index_for_version("live", aged_out)
        finally:
            service.live.close()

    def test_manifest_persisted_and_atomic(self, tmp_path):
        service, dataset = make_service(tmp_path)
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [new_image(907, category)])
            manifest_path = tmp_path / "cache" / "registry" / "live.json"
            assert manifest_path.exists()
            import json

            on_disk = json.loads(manifest_path.read_text(encoding="utf-8"))
            assert on_disk["version"] == 2
            assert on_disk["cache_key"] is not None
            # No temp litter from the atomic writes.
            assert not list(manifest_path.parent.glob("*.tmp*"))
        finally:
            service.live.close()

    def test_reregistering_resets_lineage(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [new_image(908, category)])
            clip = SyntheticClip.for_dataset(dataset, dim=32, seed=11)
            service.register_dataset(dataset, clip, preprocess=True)
            assert service.live.describe("live")["version"] == 1
            index = service.index_for("live", multiscale=True)
            assert 908 not in index.image_ids
        finally:
            service.live.close()


# ---------------------------------------------------------------------------
# append-only delta buffers
# ---------------------------------------------------------------------------
def view_bytes(view) -> "tuple[bytes, ...]":
    rows = view.store.take(np.arange(len(view.store)))
    return rows.tobytes(), view.patch_boxes.tobytes(), view.patch_levels.tobytes()


def first_page(service, category: str, version: int) -> list:
    info = service.start_session(
        StartSessionRequest(
            dataset="live", text_query=f"a {category}", dataset_version=version
        )
    )
    page = service.next_results(info.session_id).items
    service.close_session(info.session_id)
    return [(item.image_id, item.score, item.box) for item in page]


class TestAppendOnlyDelta:
    """Every view of one base reads prefixes of the state's buffers."""

    def test_retained_views_share_the_state_buffers(self):
        # A trigger far above the delta: no merge, and the buffers never grow.
        service, dataset = make_service(merge_trigger_ratio=4.0)
        try:
            category = dataset.categories[0].name
            state = service.live.state_for("live")
            for step in range(RETAINED_GENERATIONS):
                service.live.upsert_images("live", [new_image(940 + step, category)])
            service.live.delete_images("live", [940])
            views = list(state.generations.values())
            assert len(views) == RETAINED_GENERATIONS
            for view in views:
                assert isinstance(view.store, DeltaVectorStore)
                assert not view.store._delta.flags.writeable
                assert np.shares_memory(view.store._delta, state.delta_vectors)
                assert np.shares_memory(view.patch_boxes, state.patch_boxes)
                assert np.shares_memory(view.patch_levels, state.patch_levels)
        finally:
            service.live.close()

    def test_pinned_version_is_stable_across_appends_and_growth(self, monkeypatch):
        service, dataset = make_service()
        # No background merge: the delta outgrows its first buffer instead.
        monkeypatch.setattr(service.live.merger, "maybe_schedule", lambda state: False)
        try:
            category = dataset.categories[0].name
            state = service.live.state_for("live")
            service.live.upsert_images("live", [new_image(950, category)])
            pinned = state.version
            view = service.live.index_for_version("live", pinned)
            before = view_bytes(view), first_page(service, category, pinned)
            first_buffer = state.delta_vectors
            for step in range(1, RETAINED_GENERATIONS):
                service.live.upsert_images("live", [new_image(950 + step, category)])
            assert state.delta_rows > first_buffer.shape[0]  # the buffers grew
            assert np.shares_memory(view.store._delta, first_buffer)
            assert service.live.index_for_version("live", pinned) is view
            after = view_bytes(view), first_page(service, category, pinned)
            assert after == before
        finally:
            service.live.close()

    def test_pinned_reads_race_appends_and_growth(self, monkeypatch):
        """Lock-free readers of a published view see its bytes while upserts
        append past its prefix and regrow the buffers."""
        service, dataset = make_service()
        monkeypatch.setattr(service.live.merger, "maybe_schedule", lambda state: False)
        interval = sys.getswitchinterval()
        try:
            category = dataset.categories[0].name
            state = service.live.state_for("live")
            service.live.upsert_images("live", [new_image(970, category)])
            view = service.live.index_for_version("live", state.version)
            query = view.store.vector(0)

            def read():
                return view.store.score_all(query).tobytes(), view_bytes(view)

            expected = read()
            mismatches = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    if read() != expected:
                        mismatches.append(1)

            readers = [threading.Thread(target=reader) for _ in range(4)]
            sys.setswitchinterval(1e-5)
            for thread in readers:
                thread.start()
            try:
                for step in range(1, 12):
                    service.live.upsert_images("live", [new_image(970 + step, category)])
            finally:
                stop.set()
                for thread in readers:
                    thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in readers)
            assert not np.shares_memory(view.store._delta, state.delta_vectors)
            assert mismatches == []
        finally:
            sys.setswitchinterval(interval)
            service.live.close()

    def test_retained_views_hold_no_delta_copies(self):
        """Eight retained views over Δ delta rows trace less than two
        Δ-row matrices plus each view's O(N) state; copying the delta into
        every view held about eight."""
        service, dataset = make_service(merge_trigger_ratio=4.0)
        try:
            category = dataset.categories[0].name
            store = service.index_for("live", multiscale=True).store
            n_base, dim = len(store), store.dim
            gc.collect()
            tracemalloc.start()
            try:
                for step in range(40):
                    service.live.upsert_images("live", [new_image(960 + step, category)])
                gc.collect()
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            state = service.live.state_for("live")
            assert state.merges_completed == 0
            assert len(state.generations) == RETAINED_GENERATIONS
            delta = state.delta_rows
            # Tombstones, segments, engine columns and the image listing.
            per_view = 64 * (n_base + delta)
            assert held < 2 * delta * dim * 8 + RETAINED_GENERATIONS * per_view
        finally:
            service.live.close()


# ---------------------------------------------------------------------------
# SegmentMerger
# ---------------------------------------------------------------------------
class TestSegmentMerger:
    def test_force_merge_compacts_and_preserves_version(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [new_image(920, category)])
            before = service.live.describe("live")
            manifest = service.live.force_merge("live")
            assert manifest["version"] == before["version"]  # logical no-op
            assert manifest["generation"] == before["generation"] + 1
            assert manifest["delta_rows"] == 0
            assert manifest["tombstones"] == 0
            assert manifest["merges_completed"] == 1
            index = service.index_for("live", multiscale=True)
            assert not isinstance(index.store, DeltaVectorStore)
            assert 920 in index.image_ids
        finally:
            service.live.close()

    def test_each_swap_returns_freed_heap_once(self, monkeypatch):
        """One trim before the sealed build allocates, one after the swap."""
        calls = []
        monkeypatch.setattr(merger, "release_free_heap", lambda: calls.append(1))
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            service.live.force_merge("live")  # empty delta: no swap, no trim
            assert calls == []
            for image_id in (930, 931):
                service.live.upsert_images("live", [new_image(image_id, category)])
                service.live.force_merge("live")
            assert service.live.describe("live")["merges_completed"] == 2
            assert len(calls) == 2 * 2
        finally:
            service.live.close()

    def test_merge_without_delta_is_a_noop(self):
        service, _ = make_service()
        try:
            manifest = service.live.force_merge("live")
            assert manifest["merges_completed"] == 0
            assert manifest["generation"] == 1
        finally:
            service.live.close()

    def test_ratio_trigger_schedules_background_merge(self):
        service, dataset = make_service(merge_trigger_ratio=0.01)
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [new_image(921, category)])
            service.live.merger.join()
            manifest = service.live.describe("live")
            assert manifest["merges_completed"] >= 1
            assert manifest["delta_rows"] == 0
        finally:
            service.live.close()

    def test_sessions_started_before_merge_keep_their_view(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [new_image(922, category)])
            info = service.start_session(
                StartSessionRequest(dataset="live", text_query=f"a {category}")
            )
            first = service.next_results(info.session_id)
            from repro.server.api import FeedbackRequest

            for item in first.items:
                service.give_feedback(
                    FeedbackRequest(
                        session_id=info.session_id,
                        image_id=item.image_id,
                        relevant=False,
                    )
                )
            service.live.force_merge("live")
            # The in-flight session still answers (its index object is the
            # pre-merge live view, retained by the session itself).
            second = service.next_results(info.session_id)
            shown = {item.image_id for item in first.items} | {
                item.image_id for item in second.items
            }
            assert len(shown) == len(first.items) + len(second.items)
        finally:
            service.live.close()

    def test_merges_counted_in_metrics(self):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [new_image(923, category)])
            service.live.force_merge("live")
            families = {
                family["name"]: family
                for family in service.metrics.to_json()["metrics"]
            }
            assert "seesaw_merges_total" in families
            total = sum(
                series["value"]
                for series in families["seesaw_merges_total"]["series"]
            )
            assert total >= 1
            assert "seesaw_delta_rows" in families
        finally:
            service.live.close()

    def test_background_merge_failure_is_logged_and_counted(self, monkeypatch, caplog):
        service, dataset = make_service()
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [new_image(924, category)])
            state = service.live.state_for("live")
            registry_merger = service.live.merger

            def failing_build(*args, **kwargs):
                raise RuntimeError("sealed build failed")

            monkeypatch.setattr(registry_merger, "_build_sealed", failing_build)
            with caplog.at_level("ERROR", logger="repro.live"):
                assert registry_merger.schedule(state)
                registry_merger.join()
            records = [r for r in caplog.records if r.name == "repro.live"]
            assert len(records) == 1
            assert records[0].exc_info is not None
            assert "live" in records[0].getMessage()
            families = {
                family["name"]: family
                for family in service.metrics.to_json()["metrics"]
            }
            failures = families["seesaw_merge_failures_total"]["series"]
            assert [(s["labels"], s["value"]) for s in failures] == [
                ({"dataset": "live"}, 1.0)
            ]
            assert state.merge_inflight is False
            # The delta view keeps serving, and the next merge succeeds.
            info = service.start_session(
                StartSessionRequest(dataset="live", text_query=f"a {category}")
            )
            assert service.next_results(info.session_id).items
            assert 924 in service.index_for("live", multiscale=True).image_ids
            monkeypatch.undo()
            manifest = service.live.force_merge("live")
            assert manifest["merges_completed"] == 1
            assert manifest["delta_rows"] == 0
        finally:
            service.live.close()
