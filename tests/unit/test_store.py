"""Index serialization and cache tests: save/load identity and keying."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.config import RETIRED_FIELDS, MultiscaleConfig, SeeSawConfig
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.exceptions import StoreError
from repro.store import IndexCache, index_cache_key, load_index, save_index
from repro.store.hashing import config_fingerprint
from repro.store.serialize import META_FILE


@pytest.fixture(scope="module")
def saved_index(tiny_index, tiny_dataset, tiny_clip, tmp_path_factory):
    """The tiny index written to disk once for the whole module."""
    directory = tmp_path_factory.mktemp("index") / "entry"
    save_index(tiny_index, directory)
    return directory


class TestSerializeRoundTrip:
    def test_arrays_survive(self, saved_index, tiny_index, tiny_dataset, tiny_clip):
        loaded = load_index(saved_index, tiny_dataset, tiny_clip)
        assert np.allclose(loaded.store.vectors, tiny_index.store.vectors)
        assert np.array_equal(
            loaded.knn_graph.neighbor_ids, tiny_index.knn_graph.neighbor_ids
        )
        assert np.allclose(
            loaded.knn_graph.neighbor_weights, tiny_index.knn_graph.neighbor_weights
        )
        assert loaded.knn_graph.sigma == tiny_index.knn_graph.sigma
        assert np.allclose(loaded.db_matrix, tiny_index.db_matrix)

    def test_structure_survives(self, saved_index, tiny_index, tiny_dataset, tiny_clip):
        loaded = load_index(saved_index, tiny_dataset, tiny_clip)
        assert np.array_equal(loaded.patch_boxes, tiny_index.patch_boxes)
        assert np.array_equal(loaded.patch_levels, tiny_index.patch_levels)
        # The patch table is all .npy: index.json holds no per-vector or
        # per-image list.
        meta = json.loads((saved_index / META_FILE).read_text(encoding="utf-8"))
        assert set(meta) == {
            "format_version",
            "arrays_format",
            "dataset_name",
            "embedding_dim",
            "config",
            "knn_sigma",
            "build_report",
        }
        assert loaded.image_ids == tiny_index.image_ids
        for image_id in tiny_index.image_ids:
            assert loaded.vector_ids_for_image(image_id) == (
                tiny_index.vector_ids_for_image(image_id)
            )
        assert loaded.config == tiny_index.config
        report = loaded.build_report
        assert report.vector_count == tiny_index.build_report.vector_count
        assert report.multiscale == tiny_index.build_report.multiscale

    def test_loaded_index_returns_identical_next_batch(
        self, saved_index, tiny_index, tiny_dataset, tiny_clip
    ):
        loaded = load_index(saved_index, tiny_dataset, tiny_clip)
        query = tiny_dataset.category("cat_hard").prompt
        batches = []
        for index in (tiny_index, loaded):
            session = SearchSession(
                index=index,
                method=SeeSawSearchMethod(index.config),
                text_query=query,
                batch_size=4,
            )
            batch = session.next_batch()
            batches.append([(r.image_id, round(r.score, 12)) for r in batch])
        assert batches[0] == batches[1]

    def test_wrong_dataset_rejected(self, saved_index, tiny_dataset, tiny_clip):
        other = tiny_dataset.subset(tiny_dataset.positive_image_ids("cat_easy"))
        with pytest.raises(StoreError, match="dataset"):
            load_index(saved_index, other, tiny_clip)

    def test_missing_entry_rejected(self, tmp_path, tiny_dataset, tiny_clip):
        with pytest.raises(StoreError, match="No serialized index"):
            load_index(tmp_path / "nowhere", tiny_dataset, tiny_clip)

    def test_corrupt_meta_rejected(self, tmp_path, tiny_index, tiny_dataset, tiny_clip):
        directory = tmp_path / "entry"
        save_index(tiny_index, directory)
        (directory / META_FILE).write_text("{broken", encoding="utf-8")
        with pytest.raises(StoreError, match="Corrupt"):
            load_index(directory, tiny_dataset, tiny_clip)


class TestCacheKey:
    def test_key_is_stable(self, tiny_dataset, tiny_clip):
        config = SeeSawConfig(embedding_dim=64, seed=7)
        assert index_cache_key(tiny_dataset, tiny_clip, config) == index_cache_key(
            tiny_dataset, tiny_clip, config
        )

    def test_key_changes_with_index_affecting_config(self, tiny_dataset, tiny_clip):
        config = SeeSawConfig(embedding_dim=64, seed=7)
        coarse = config.with_overrides(multiscale=MultiscaleConfig(enabled=False))
        assert index_cache_key(tiny_dataset, tiny_clip, config) != index_cache_key(
            tiny_dataset, tiny_clip, coarse
        )

    def test_key_ignores_runtime_only_config(self, tiny_dataset, tiny_clip):
        config = SeeSawConfig(embedding_dim=64, seed=7)
        retuned = config.with_overrides(fit_bias=True, index_cache_dir="/elsewhere")
        assert index_cache_key(tiny_dataset, tiny_clip, config) == index_cache_key(
            tiny_dataset, tiny_clip, retuned
        )

    def test_default_config_keeps_the_key_of_the_entries_already_written(
        self, tiny_dataset, tiny_clip
    ):
        """Hex values pinned before ``faults`` was retired: removing a
        runtime field must not move any entry's key."""
        canonical = json.dumps(
            config_fingerprint(SeeSawConfig()), sort_keys=True, separators=(",", ":")
        )
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == (
            "88238db43868141ccf56d468b1577a1032d77f59706f2f372b101c99828d5adb"
        )
        assert index_cache_key(tiny_dataset, tiny_clip, SeeSawConfig()) == (
            "8d20bd9e94fde4f1434691ceb8057245c39a959fe17aef7b54cd5c8bdbb37d01"
        )

    def test_key_changes_with_dataset_content(self, tiny_dataset, tiny_clip):
        config = SeeSawConfig(embedding_dim=64, seed=7)
        half = [image.image_id for image in tiny_dataset.images][: len(tiny_dataset) // 2]
        subset = tiny_dataset.subset(half, name=tiny_dataset.name)
        assert index_cache_key(tiny_dataset, tiny_clip, config) != index_cache_key(
            subset, tiny_clip, config
        )


class TestIndexCache:
    def test_miss_builds_and_persists_then_hits(self, tmp_path, tiny_dataset, tiny_clip):
        cache = IndexCache(tmp_path / "cache")
        config = SeeSawConfig(embedding_dim=64, seed=7)
        built, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert not was_cached
        assert len(cache.entries()) == 1
        loaded, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert was_cached
        assert np.allclose(loaded.store.vectors, built.store.vectors)

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_dataset, tiny_clip):
        cache = IndexCache(tmp_path / "cache")
        config = SeeSawConfig(embedding_dim=64, seed=7)
        cache.load_or_build(tiny_dataset, tiny_clip, config)
        key = cache.key(tiny_dataset, tiny_clip, config)
        (cache.path_for(key) / META_FILE).write_text("{broken", encoding="utf-8")
        assert cache.load(key, tiny_dataset, tiny_clip) is None
        # The broken entry was evicted so the next build can re-persist.
        assert not cache.contains(key)

    def test_evict(self, tmp_path, tiny_dataset, tiny_clip):
        cache = IndexCache(tmp_path / "cache")
        config = SeeSawConfig(embedding_dim=64, seed=7)
        cache.load_or_build(tiny_dataset, tiny_clip, config)
        key = cache.key(tiny_dataset, tiny_clip, config)
        assert cache.contains(key)
        cache.evict(key)
        assert not cache.contains(key)
        assert cache.entries() == []


class TestShardedTopologyAndCache:
    """Sharding is a runtime topology: invisible to keys and artifacts."""

    def test_cache_key_ignores_shard_knob(self, tiny_dataset, tiny_clip):
        base = SeeSawConfig(embedding_dim=64, seed=7)
        scaled = SeeSawConfig(embedding_dim=64, seed=7, n_shards=8)
        assert index_cache_key(tiny_dataset, tiny_clip, base) == index_cache_key(
            tiny_dataset, tiny_clip, scaled
        )

    def test_sharded_index_serializes_as_flat_store(
        self, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        from repro.core.indexing import SeeSawIndex
        from repro.vectorstore import ExactVectorStore, ShardedVectorStore

        sharded = SeeSawIndex(
            dataset=tiny_dataset,
            embedding=tiny_clip,
            store=ShardedVectorStore.wrap(
                tiny_index.store, tiny_index.segments.vector_image_rows, 3
            ),
            segments=tiny_index.segments,
            patch_boxes=tiny_index.patch_boxes,
            patch_levels=tiny_index.patch_levels,
            knn_graph=tiny_index.knn_graph,
            db_matrix=tiny_index.db_matrix,
            config=tiny_index.config,
            build_report=tiny_index.build_report,
        )
        directory = tmp_path / "sharded-entry"
        save_index(sharded, directory)
        loaded = load_index(directory, tiny_dataset, tiny_clip)
        # Loads back flat (the service re-applies its configured topology)...
        assert isinstance(loaded.store, ExactVectorStore)
        # ...with bit-identical vectors: unit rows round-trip unrenormalized.
        assert np.array_equal(
            np.asarray(loaded.store.vectors), np.asarray(tiny_index.store.vectors)
        )

    def test_index_without_contiguous_segments_is_refused(
        self, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        """A live view's segments skip tombstoned rows; only sealed builds save."""
        from repro.core.indexing import SeeSawIndex
        from repro.engine import ImageSegments

        reordered = ImageSegments.from_mapping(
            {
                image_id: tiny_index.vector_ids_for_image(image_id)
                for image_id in reversed(tiny_index.image_ids)
            },
            tiny_index.vector_count,
        )
        index = SeeSawIndex(
            dataset=tiny_dataset,
            embedding=tiny_clip,
            store=tiny_index.store,
            segments=reordered,
            patch_boxes=tiny_index.patch_boxes,
            patch_levels=tiny_index.patch_levels,
            knn_graph=None,
            db_matrix=None,
            config=tiny_index.config,
            build_report=tiny_index.build_report,
        )
        with pytest.raises(StoreError, match="contiguous"):
            save_index(index, tmp_path / "entry")
        assert not (tmp_path / "entry").exists()

    def test_service_shards_cache_loaded_index(self, tiny_dataset, tiny_clip, tmp_path):
        from repro.server import SeeSawService
        from repro.vectorstore import ShardedVectorStore

        cache_dir = str(tmp_path / "cache")
        flat_config = SeeSawConfig(embedding_dim=64, seed=7, index_cache_dir=cache_dir)
        cold = SeeSawService(flat_config)
        cold.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        assert cold.cache_misses == 1

        sharded_config = SeeSawConfig(
            embedding_dim=64, seed=7, index_cache_dir=cache_dir, n_shards=3
        )
        warm = SeeSawService(sharded_config)
        warm.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        # Same cache entry (the knob is excluded from the key), but the
        # loaded index comes up partitioned.
        assert warm.cache_hits == 1
        store = warm.index_for("tiny").store
        assert isinstance(store, ShardedVectorStore)
        assert store.n_shards == 3


class TestMmapLayout:
    """The raw .npy layout: zero-copy loads; any other layout is a miss."""

    def test_default_layout_is_raw_npy(self, saved_index):
        assert (saved_index / "vectors.npy").exists()
        assert not (saved_index / "arrays.npz").exists()

    def test_mmap_load_is_zero_copy_and_read_only(
        self, saved_index, tiny_index, tiny_dataset, tiny_clip
    ):
        loaded = load_index(saved_index, tiny_dataset, tiny_clip, mmap=True)
        vectors = loaded.store.vectors
        assert not vectors.flags.writeable
        # The store adopted the on-disk mapping rather than copying it: the
        # view's base chain bottoms out at the memmap.
        base = vectors
        while isinstance(base.base, np.ndarray):
            base = base.base
        assert isinstance(base, np.memmap)
        assert np.array_equal(
            np.asarray(vectors), np.asarray(tiny_index.store.vectors)
        )

    def test_materialised_load_when_mmap_disabled(
        self, saved_index, tiny_dataset, tiny_clip
    ):
        loaded = load_index(saved_index, tiny_dataset, tiny_clip, mmap=False)
        base = loaded.store.vectors
        while isinstance(base.base, np.ndarray):
            base = base.base
        assert not isinstance(base, np.memmap)

    @pytest.mark.parametrize("format_value", [None, "npz"])
    def test_npz_entry_is_refused_and_the_cache_rebuilds_it(
        self, tiny_dataset, tiny_clip, tmp_path, format_value
    ):
        """An entry in the retired single-file compressed layout (meta says
        ``"npz"``, or predates the key) is a typed refusal from
        ``load_index`` and a self-healing miss through the cache."""
        cache = IndexCache(tmp_path / "cache")
        config = SeeSawConfig(embedding_dim=64, seed=7)
        built, _ = cache.load_or_build(tiny_dataset, tiny_clip, config)
        entry = cache.path_for(cache.key(tiny_dataset, tiny_clip, config))
        arrays = {path.stem: np.load(path) for path in entry.glob("*.npy")}
        np.savez_compressed(entry / "arrays.npz", **arrays)
        for name in arrays:
            (entry / f"{name}.npy").unlink()
        meta = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
        if format_value is None:
            del meta["arrays_format"]
        else:
            meta["arrays_format"] = format_value
        (entry / META_FILE).write_text(json.dumps(meta), encoding="utf-8")

        with pytest.raises(StoreError, match="arrays format"):
            load_index(entry, tiny_dataset, tiny_clip)
        rebuilt, was_cached = IndexCache(tmp_path / "cache").load_or_build(
            tiny_dataset, tiny_clip, config
        )
        assert not was_cached
        assert np.array_equal(
            np.asarray(rebuilt.store.vectors), np.asarray(built.store.vectors)
        )
        assert (entry / "vectors.npy").exists()
        assert not (entry / "arrays.npz").exists()
        _, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert was_cached

    def test_entry_with_retired_config_fields_is_a_hit(
        self, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        """Entries persist the config they were built with; fields retired
        since then are dropped on load, so the warm start survives."""
        config = tiny_index.config
        entry = _entry_with_config(
            tmp_path, tiny_index, tiny_dataset, tiny_clip,
            batch_window_ms=0.0, **{"optimizer.wolfe_c2": 0.9},
        )
        loaded, was_cached = IndexCache(tmp_path / "cache").load_or_build(
            tiny_dataset, tiny_clip, config
        )
        assert was_cached is True
        assert loaded.config == config
        assert (entry / META_FILE).exists()

    def test_entry_written_with_faults_null_is_a_hit(
        self, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        """Every entry written while ``faults`` was a config field carries
        ``"faults": null``; it still loads warm."""
        config = tiny_index.config
        _entry_with_config(tmp_path, tiny_index, tiny_dataset, tiny_clip, faults=None)
        loaded, was_cached = IndexCache(tmp_path / "cache").load_or_build(
            tiny_dataset, tiny_clip, config
        )
        assert was_cached is True
        assert loaded.config == config

    def test_entry_carrying_every_retired_field_is_a_hit(
        self, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        """An entry written while every retired field still existed, each
        set away from its old default, loads warm with today's config."""
        retired_values = {
            "batch_window_ms": 2.0,
            "optimizer.wolfe_c2": 0.5,
            "knn.use_nn_descent": True,
            "knn.nn_descent_iterations": 3,
            "knn.nn_descent_sample_rate": 0.5,
            "overload_ef_floor": 4,
            "retry_max_attempts": 7,
            "retry_base_ms": 10.0,
            "retry_max_ms": 80.0,
            "breaker_failure_threshold": 2,
            "breaker_reset_s": 1.5,
            "optimizer.history_size": 5,
            "optimizer.initial_step": 0.5,
            "optimizer.wolfe_c1": 1e-3,
            "optimizer.max_line_search_steps": 10,
            "faults": {"seed": 21, "error_probability": 1.0},
        }
        assert set(retired_values) == RETIRED_FIELDS
        config = tiny_index.config
        _entry_with_config(
            tmp_path, tiny_index, tiny_dataset, tiny_clip, **retired_values
        )
        loaded, was_cached = IndexCache(tmp_path / "cache").load_or_build(
            tiny_dataset, tiny_clip, config
        )
        assert was_cached is True
        assert loaded.config == config

    def test_entry_with_unknown_config_field_is_rebuilt(
        self, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        """A config key this version does not know is a typed refusal from
        ``load_index`` and a self-healing miss through the cache."""
        config = tiny_index.config
        entry = _entry_with_config(
            tmp_path, tiny_index, tiny_dataset, tiny_clip,
            future_knob=1, **{"optimizer.future_knob": 1},
        )
        with pytest.raises(StoreError, match="future_knob"):
            load_index(entry, tiny_dataset, tiny_clip)
        cache = IndexCache(tmp_path / "cache")
        _, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert not was_cached
        _, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert was_cached


def _entry_with_config(tmp_path, index, dataset, embedding, **extra):
    """Store ``index`` as a cache entry whose meta config also carries
    ``extra`` (``section.name`` keys land inside that section)."""
    cache = IndexCache(tmp_path / "cache")
    entry = cache.store(cache.key(dataset, embedding, index.config), index)
    meta = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
    for name, value in extra.items():
        section, _, leaf = name.rpartition(".")
        (meta["config"][section] if section else meta["config"])[leaf] = value
    (entry / META_FILE).write_text(json.dumps(meta), encoding="utf-8")
    return entry


class TestComputeDtypeTier:
    """The compute dtype is an on-disk property: keyed, stored, round-tripped."""

    def test_float32_changes_key_but_runtime_tiers_do_not(
        self, tiny_dataset, tiny_clip
    ):
        base = SeeSawConfig(embedding_dim=64, seed=7)
        f32 = base.with_overrides(compute_dtype="float32")
        runtime = base.with_overrides(
            quantized_store=True, quantized_rerank_factor=8, mmap_index=False
        )
        assert index_cache_key(tiny_dataset, tiny_clip, base) != index_cache_key(
            tiny_dataset, tiny_clip, f32
        )
        assert index_cache_key(tiny_dataset, tiny_clip, base) == index_cache_key(
            tiny_dataset, tiny_clip, runtime
        )

    def test_float32_index_round_trips_in_float32(
        self, tiny_dataset, tiny_clip, tmp_path
    ):
        from repro.core.indexing import SeeSawIndex

        config = SeeSawConfig(embedding_dim=64, seed=7, compute_dtype="float32")
        index = SeeSawIndex.build(tiny_dataset, tiny_clip, config)
        assert index.store.vectors.dtype == np.float32
        directory = tmp_path / "f32-entry"
        save_index(index, directory)
        loaded = load_index(directory, tiny_dataset, tiny_clip)
        assert loaded.store.vectors.dtype == np.float32
        # Bit-identical round trip: stored in the compute dtype, re-adopted
        # without renormalisation.
        assert np.array_equal(
            np.asarray(loaded.store.vectors), np.asarray(index.store.vectors)
        )


class TestBuildSingleFlight:
    """Concurrent cold starts sharing a cache dir pay exactly one build."""

    def _config(self) -> SeeSawConfig:
        return SeeSawConfig(embedding_dim=64, seed=7)

    def test_concurrent_load_or_build_builds_once(
        self, tmp_path, tiny_dataset, tiny_clip, monkeypatch
    ):
        import threading

        from repro.core.indexing import SeeSawIndex

        # Two caches over one directory model two cold processes.
        caches = [
            IndexCache(tmp_path / "cache", lock_poll_seconds=0.005) for _ in range(2)
        ]
        real_build = SeeSawIndex.build
        builds = []
        entered = threading.Event()

        def slow_build(*args, **kwargs):
            builds.append(threading.get_ident())
            entered.set()
            import time as _time

            _time.sleep(0.05)  # hold the build long enough for a real race
            return real_build(*args, **kwargs)

        monkeypatch.setattr(SeeSawIndex, "build", slow_build)
        results = [None, None]

        def run(slot):
            results[slot] = caches[slot].load_or_build(
                tiny_dataset, tiny_clip, self._config()
            )

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        threads[0].start()
        entered.wait(timeout=5)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(builds) == 1
        cached_flags = sorted(result[1] for result in results)
        assert cached_flags == [False, True]
        assert np.allclose(
            results[0][0].store.vectors, results[1][0].store.vectors
        )
        # The sentinel was released.
        key = caches[0].key(tiny_dataset, tiny_clip, self._config())
        assert not caches[0].build_lock_path(key).exists()

    def test_waiter_loads_entry_finished_by_lock_holder(
        self, tmp_path, tiny_dataset, tiny_clip
    ):
        import threading

        cache = IndexCache(tmp_path / "cache", lock_poll_seconds=0.005)
        config = self._config()
        key = cache.key(tiny_dataset, tiny_clip, config)
        # A foreign "process" holds the build lock...
        token = cache._try_acquire_build_lock(key)
        assert token is not None
        result = {}

        def run():
            result["value"] = cache.load_or_build(tiny_dataset, tiny_clip, config)

        thread = threading.Thread(target=run)
        thread.start()
        # ...finishes its build and releases; the waiter must load, not build.
        builder = IndexCache(tmp_path / "cache")
        from repro.core.indexing import SeeSawIndex

        builder.store(key, SeeSawIndex.build(tiny_dataset, tiny_clip, config))
        cache._release_build_lock(key, token)
        thread.join(timeout=30)
        index, was_cached = result["value"]
        assert was_cached
        assert index.store.vectors.shape[0] > 0

    def test_stale_lock_is_stolen(self, tmp_path, tiny_dataset, tiny_clip):
        import os
        import time

        cache = IndexCache(
            tmp_path / "cache", lock_poll_seconds=0.005, lock_stale_seconds=0.01
        )
        config = self._config()
        key = cache.key(tiny_dataset, tiny_clip, config)
        # A crashed builder left its sentinel behind, long ago.
        assert cache._try_acquire_build_lock(key) is not None
        stale = time.time() - 60.0
        os.utime(cache.build_lock_path(key), (stale, stale))
        index, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert not was_cached  # the steal proceeded to a fresh build
        assert cache.contains(key)
        assert not cache.build_lock_path(key).exists()


class TestServiceStoreTiers:
    """The service applies runtime tiers on load and reports them."""

    def test_quantized_tier_applied_and_composed_with_sharding(
        self, tiny_dataset, tiny_clip, tmp_path
    ):
        from repro.server import SeeSawService
        from repro.vectorstore import QuantizedVectorStore, ShardedVectorStore

        cache_dir = str(tmp_path / "cache")
        flat = SeeSawService(
            SeeSawConfig(embedding_dim=64, seed=7, index_cache_dir=cache_dir)
        )
        flat.register_dataset(tiny_dataset, tiny_clip, preprocess=True)

        tiered = SeeSawService(
            SeeSawConfig(
                embedding_dim=64,
                seed=7,
                index_cache_dir=cache_dir,
                quantized_store=True,
                quantized_rerank_factor=5,
                n_shards=2,
            )
        )
        tiered.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        # Same cache entry (runtime tiers are excluded from the key)...
        assert tiered.cache_hits == 1
        store = tiered.index_for("tiny").store
        # ...loaded as quantized shards.
        assert isinstance(store, ShardedVectorStore)
        assert all(
            isinstance(inner, QuantizedVectorStore) for inner in store.shard_stores
        )
        tiers = tiered.store_tiers
        assert tiers["tiny"]["quantized"] is True
        assert tiers["tiny"]["rerank_factor"] == 5
        assert tiers["tiny"]["shards"] == 2
        assert tiers["tiny"]["compute_dtype"] == "float64"

    def test_healthz_reports_storage_and_compute_tiers(
        self, tiny_dataset, tiny_clip, tmp_path
    ):
        from repro.server import SeeSawService
        from repro.server.manager import SessionManager

        service = SeeSawService(
            SeeSawConfig(
                embedding_dim=64,
                seed=7,
                index_cache_dir=str(tmp_path / "cache"),
                compute_dtype="float32",
                quantized_store=True,
            )
        )
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        health = SessionManager(service).health()
        assert health["compute_dtype"] == "float32"
        assert health["quantized_store"] is True
        assert health["mmap_index"] is True
        assert health["store_tiers"]["tiny"]["compute_dtype"] == "float32"
        assert health["store_tiers"]["tiny"]["quantized"] is True

    def test_float32_sessions_return_results(self, tiny_dataset, tiny_clip, tmp_path):
        """A float32 + quantized service serves a full interactive round."""
        from repro.server import SeeSawService
        from repro.server.api import StartSessionRequest

        service = SeeSawService(
            SeeSawConfig(
                embedding_dim=64,
                seed=7,
                compute_dtype="float32",
                quantized_store=True,
            )
        )
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        info = service.start_session(
            StartSessionRequest(dataset="tiny", text_query="cat_easy", batch_size=4)
        )
        response = service.next_results(info.session_id)
        assert len(response.items) == 4
        assert all(np.isfinite(item.score) for item in response.items)


class TestServiceHeapTrim:
    """A cold build hands its freed temporaries back; a cache hit has none."""

    def test_cold_build_trims_and_warm_hit_does_not(
        self, tiny_dataset, tiny_clip, tmp_path, monkeypatch
    ):
        from repro.server import SeeSawService
        from repro.server import service as service_module

        calls: "list[int]" = []
        monkeypatch.setattr(
            service_module, "release_free_heap", lambda: calls.append(1)
        )
        config = SeeSawConfig(
            embedding_dim=64, seed=7, index_cache_dir=str(tmp_path / "cache")
        )
        cold = SeeSawService(config)
        cold.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        assert cold.cache_misses == 1
        assert calls == [1]
        warm = SeeSawService(config)
        warm.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        assert warm.cache_hits == 1
        assert calls == [1]
        uncached = SeeSawService(config.with_overrides(index_cache_dir=None))
        uncached.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        assert calls == [1, 1]


class TestReviewRegressions:
    """Pins for the review findings on the tier/lock machinery."""

    def test_zero_row_corpus_round_trips_through_mmap(self, tmp_path):
        """Zero vectors are canonical: they must not break the zero-copy load."""
        from repro.vectorstore import ExactVectorStore

        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((6, 8))
        vectors[2] = 0.0  # a legitimately zero (e.g. padded) vector
        store = ExactVectorStore(vectors)
        assert np.all(store.vectors[2] == 0.0)
        # Re-adopting the canonical rows (as a cache load does) is zero-copy.
        readopted = ExactVectorStore(store.vectors)
        assert np.shares_memory(readopted.vectors, store.vectors)

    def test_slow_builder_does_not_release_a_stolen_lock(
        self, tmp_path, tiny_dataset, tiny_clip
    ):
        cache_a = IndexCache(tmp_path / "cache")
        cache_b = IndexCache(tmp_path / "cache", lock_stale_seconds=0.01)
        config = SeeSawConfig(embedding_dim=64, seed=7)
        key = cache_a.key(tiny_dataset, tiny_clip, config)
        # A claims, then stalls past staleness; B steals and re-claims.
        token_a = cache_a._try_acquire_build_lock(key)
        assert token_a is not None
        import os as _os
        import time as _time

        stale = _time.time() - 60.0
        _os.utime(cache_a.build_lock_path(key), (stale, stale))
        assert cache_b._lock_is_stale(key)
        cache_b._steal_stale_lock(key)
        token_b = cache_b._try_acquire_build_lock(key)
        assert token_b is not None
        # A finishing late must not delete B's live sentinel — even when A
        # and B are threads of the same cache instance (tokens are local to
        # each claim, never shared instance state).
        cache_a._release_build_lock(key, token_a)
        assert cache_a.build_lock_path(key).exists()
        cache_b._release_build_lock(key, token_b)
        assert not cache_b.build_lock_path(key).exists()

    def test_stale_steal_is_single_winner(self, tmp_path, tiny_dataset, tiny_clip):
        cache = IndexCache(tmp_path / "cache")
        config = SeeSawConfig(embedding_dim=64, seed=7)
        key = cache.key(tiny_dataset, tiny_clip, config)
        assert cache._try_acquire_build_lock(key) is not None
        # A steal decided against a sentinel that turned out to be fresh
        # (another waiter re-claimed between the staleness check and the
        # rename) must restore it, not delete it.
        cache._steal_stale_lock(key)
        assert cache.build_lock_path(key).exists()
        # Once genuinely stale, exactly one stealer removes it; a second
        # stealer's rename has already lost and is a silent no-op.
        import os as _os
        import time as _time

        stale = _time.time() - 2 * cache.lock_stale_seconds
        _os.utime(cache.build_lock_path(key), (stale, stale))
        cache._steal_stale_lock(key)
        cache._steal_stale_lock(key)
        other = IndexCache(tmp_path / "cache")
        assert other._try_acquire_build_lock(key) is not None


def _tier(name: str, index):
    """The index's vectors wrapped in the named runtime tier."""
    from repro.vectorstore import (
        GraphANNVectorStore,
        QuantizedVectorStore,
        ShardedVectorStore,
    )

    vectors = index.store.vectors
    if name == "quantized":
        return QuantizedVectorStore(vectors)
    graph = GraphANNVectorStore(vectors, graph_degree=8, ef=48)
    if name == "sharded-graph":
        return ShardedVectorStore.wrap(graph, index.segments.vector_image_rows, 3)
    return graph


class TestEntryPortability:
    """One entry layout: whatever tier wraps the store, the entry is exact.

    Tiers are runtime wraps, so an entry saved from a tiered index reloads
    as the exact store its vectors describe, and a service re-applies its
    configured tiers over it with the same results as over a cold build.
    """

    @pytest.mark.parametrize("tier", ["quantized", "graph", "sharded-graph"])
    def test_tiered_index_reloads_as_exact(
        self, tier, saved_index, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        from repro.vectorstore import ExactVectorStore

        index = load_index(saved_index, tiny_dataset, tiny_clip, mmap=False)
        index.replace_store(_tier(tier, index))
        directory = tmp_path / tier
        save_index(index, directory)
        assert sorted(path.name for path in directory.glob("*.npy")) == [
            "db_matrix.npy",
            "image_ids.npy",
            "image_offsets.npy",
            "knn_neighbor_ids.npy",
            "knn_neighbor_weights.npy",
            "patch_boxes.npy",
            "patch_levels.npy",
            "vectors.npy",
        ]
        loaded = load_index(directory, tiny_dataset, tiny_clip)
        assert type(loaded.store) is ExactVectorStore
        for got, want in (
            (loaded.store.vectors, tiny_index.store.vectors),
            (loaded.knn_graph.neighbor_ids, tiny_index.knn_graph.neighbor_ids),
            (loaded.knn_graph.neighbor_weights, tiny_index.knn_graph.neighbor_weights),
            (loaded.db_matrix, tiny_index.db_matrix),
        ):
            assert np.array_equal(np.asarray(got), np.asarray(want))
        assert loaded.knn_graph.sigma == tiny_index.knn_graph.sigma

    def test_tier_knobs_stay_out_of_the_key(self, tiny_dataset, tiny_clip):
        base = SeeSawConfig(embedding_dim=64, seed=7)
        tiered = base.with_overrides(
            ann_search=True,
            ann_graph_degree=32,
            ann_ef=256,
            quantized_store=True,
            quantized_rerank_factor=8,
            n_shards=3,
        )
        assert index_cache_key(tiny_dataset, tiny_clip, base) == index_cache_key(
            tiny_dataset, tiny_clip, tiered
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"ann_search": True, "ann_ef": 48, "ann_graph_degree": 8},
            {"quantized_store": True},
            {"n_shards": 3},
            {"ann_search": True, "quantized_store": True, "n_shards": 3},
        ],
        ids=["graph", "quantized", "sharded", "sharded-graph"],
    )
    def test_service_over_warm_entry_matches_cold_build(
        self, overrides, tiny_dataset, tiny_clip, tmp_path
    ):
        from repro.server import SeeSawService
        from repro.server.api import StartSessionRequest

        cache_dir = str(tmp_path / "cache")
        flat = SeeSawService(
            SeeSawConfig(embedding_dim=64, seed=7, index_cache_dir=cache_dir)
        )
        flat.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        config = SeeSawConfig(embedding_dim=64, seed=7, **overrides)

        def first_page(service: SeeSawService):
            service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
            info = service.start_session(
                StartSessionRequest(dataset="tiny", text_query="cat_easy", batch_size=5)
            )
            items = service.next_results(info.session_id).items
            return service.store_tiers, [(item.image_id, item.score) for item in items]

        warm = SeeSawService(config.with_overrides(index_cache_dir=cache_dir))
        warm_tiers, warm_page = first_page(warm)
        assert warm.cache_hits == 1
        cold_tiers, cold_page = first_page(SeeSawService(config))
        assert warm_tiers == cold_tiers
        assert warm_page == cold_page
        assert len(warm_page) == 5

    def test_service_applies_ann_tier_and_reports_it(
        self, tiny_dataset, tiny_clip, tmp_path
    ):
        from repro.server import SeeSawService
        from repro.vectorstore import GraphANNVectorStore

        config = SeeSawConfig(
            embedding_dim=64,
            seed=7,
            index_cache_dir=str(tmp_path / "cache"),
            ann_search=True,
            ann_ef=48,
            ann_graph_degree=8,
        )
        service = SeeSawService(config)
        service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
        store = service.index_for("tiny").store
        assert isinstance(store, GraphANNVectorStore)
        tier = service.store_tiers["tiny"]
        assert tier["graph"] is True
        assert tier["ann_graph_degree"] == 8
        assert tier["ann_ef"] == 48


def _rewrite_array(entry, name, edit):
    path = entry / f"{name}.npy"
    np.save(path, edit(np.load(path)), allow_pickle=False)


def _cut_knn_rows(entry):
    for name in ("knn_neighbor_ids", "knn_neighbor_weights"):
        _rewrite_array(entry, name, lambda array: array[:-5])


def _set_unknown_neighbour(entry):
    def edit(ids):
        ids[0, 0] = 10**9
        return ids

    _rewrite_array(entry, "knn_neighbor_ids", edit)


def _drop_build_report(entry):
    meta = json.loads((entry / META_FILE).read_text(encoding="utf-8"))
    del meta["build_report"]
    (entry / META_FILE).write_text(json.dumps(meta), encoding="utf-8")


def _set(name, position, value):
    """A corruption writing ``value`` at ``position`` of one array artifact."""

    def edit(array):
        array[position] = value
        return array

    return lambda entry: _rewrite_array(entry, name, edit)


def _swap_first_image_ids(entry):
    _rewrite_array(entry, "image_ids", lambda ids: ids[[1, 0, *range(2, ids.size)]])


class TestCorruptEntries:
    """An entry whose arrays or metadata do not fit together is a miss.

    ``load_index`` refuses it with ``StoreError``; the cache evicts it and
    the next ``load_or_build`` rebuilds a good entry in its place.
    """

    @pytest.mark.parametrize(
        "corrupt",
        [
            _cut_knn_rows,
            lambda entry: _rewrite_array(
                entry, "knn_neighbor_weights", lambda array: array[:, :-1]
            ),
            _set_unknown_neighbour,
            lambda entry: _rewrite_array(entry, "db_matrix", lambda _: np.eye(10)),
            _drop_build_report,
            lambda entry: (entry / "patch_boxes.npy").unlink(),
            lambda entry: _rewrite_array(entry, "patch_boxes", lambda boxes: boxes[:-1]),
            lambda entry: _rewrite_array(
                entry, "patch_levels", lambda levels: levels.astype(np.int64)
            ),
            lambda entry: _rewrite_array(entry, "image_ids", lambda ids: ids[:-1]),
            lambda entry: _rewrite_array(
                entry, "image_offsets", lambda offsets: offsets.astype(np.int32)
            ),
            _set("image_offsets", 0, 1),
            _set("image_offsets", 2, 1),
            _set("image_offsets", -1, 10**6),
            _swap_first_image_ids,
            _set("patch_levels", 0, 1),
            _set("patch_boxes", (3, 2), 0.0),
        ],
        ids=[
            "knn-rows-cut",
            "knn-shapes-differ",
            "knn-id-out-of-range",
            "db-matrix-shape",
            "meta-without-build-report",
            "patch-boxes-missing",
            "patch-boxes-shape",
            "patch-levels-dtype",
            "image-ids-shape",
            "image-offsets-dtype",
            "offsets-start-past-zero",
            "offsets-not-increasing",
            "offsets-end-past-vectors",
            "image-ids-out-of-order",
            "segment-led-by-fine-patch",
            "box-without-width",
        ],
    )
    def test_corrupt_entry_is_evicted_and_rebuilt(
        self, corrupt, tiny_index, tiny_dataset, tiny_clip, tmp_path
    ):
        cache = IndexCache(tmp_path / "cache")
        config = tiny_index.config
        key = cache.key(tiny_dataset, tiny_clip, config)
        entry = cache.store(key, tiny_index)
        corrupt(entry)
        with pytest.raises(StoreError):
            load_index(entry, tiny_dataset, tiny_clip)
        assert cache.load(key, tiny_dataset, tiny_clip) is None
        assert not cache.contains(key)
        rebuilt, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert not was_cached
        assert np.array_equal(
            rebuilt.knn_graph.neighbor_ids, tiny_index.knn_graph.neighbor_ids
        )
        _, was_cached = cache.load_or_build(tiny_dataset, tiny_clip, config)
        assert was_cached


class TestCacheSweep:
    """LRU bounding and sentinel cleanup (the live-merge growth guard)."""

    def _fill(self, tmp_path, tiny_dataset, tiny_clip, seeds, max_entries=None):
        cache = IndexCache(tmp_path / "cache", max_entries=max_entries)
        keys = []
        for seed in seeds:
            config = SeeSawConfig(embedding_dim=64, seed=seed)
            cache.load_or_build(tiny_dataset, tiny_clip, config)
            keys.append(cache.key(tiny_dataset, tiny_clip, config))
        return cache, keys

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(StoreError, match="max_entries"):
            IndexCache(tmp_path / "cache", max_entries=0)

    def test_unbounded_sweep_keeps_everything(
        self, tmp_path, tiny_dataset, tiny_clip
    ):
        cache, _ = self._fill(tmp_path, tiny_dataset, tiny_clip, (1, 2, 3))
        assert cache.sweep() == []
        assert len(cache.entries()) == 3

    def test_sweep_evicts_oldest_first(self, tmp_path, tiny_dataset, tiny_clip):
        import os as _os
        import time as _time

        cache, keys = self._fill(
            tmp_path, tiny_dataset, tiny_clip, (1, 2, 3), max_entries=2
        )
        # Make the first entry unambiguously the oldest.
        now = _time.time()
        _os.utime(cache.path_for(keys[0]), (now - 1000, now - 1000))
        evicted = cache.sweep()
        assert [path.name for path in evicted] == [keys[0][:32]]
        assert not cache.contains(keys[0])
        assert cache.contains(keys[1]) and cache.contains(keys[2])

    def test_pinned_entries_survive_even_over_budget(
        self, tmp_path, tiny_dataset, tiny_clip
    ):
        import os as _os
        import time as _time

        cache, keys = self._fill(
            tmp_path, tiny_dataset, tiny_clip, (1, 2, 3), max_entries=1
        )
        now = _time.time()
        for offset, key in enumerate(keys):
            stamp = now - 1000 + offset
            _os.utime(cache.path_for(key), (stamp, stamp))
        evicted = cache.sweep(pinned=[keys[0], keys[1]])
        # Only the unpinned entry can go; the pinned two stay although the
        # cache remains above max_entries.
        assert [path.name for path in evicted] == [keys[2][:32]]
        assert cache.contains(keys[0]) and cache.contains(keys[1])

    def test_orphaned_sentinels_cleaned(self, tmp_path, tiny_dataset, tiny_clip):
        import os as _os
        import time as _time

        cache = IndexCache(tmp_path / "cache", lock_stale_seconds=60.0)
        stale = cache.cache_dir / "deadbeef.building"
        fresh = cache.cache_dir / "cafebabe.building"
        stale.touch()
        fresh.touch()
        old = _time.time() - 3600
        _os.utime(stale, (old, old))
        cache.sweep()
        assert not stale.exists()  # crashed builder's orphan removed
        assert fresh.exists()  # an in-progress build is left alone


class TestAtomicManifestWrite:
    """Crash-safety of :func:`repro.store.serialize.write_json_atomic`."""

    def test_round_trip_and_canonical_bytes(self, tmp_path):
        import json

        from repro.store import write_json_atomic

        target = tmp_path / "nested" / "manifest.json"
        write_json_atomic(target, {"b": 2, "a": 1})
        assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1, "b": 2}
        # Keys are sorted so repeated writes of equal payloads are identical.
        first = target.read_bytes()
        write_json_atomic(target, {"a": 1, "b": 2})
        assert target.read_bytes() == first
        assert not list(target.parent.glob(".manifest.json.*"))

    def test_crash_before_replace_preserves_old_manifest(
        self, tmp_path, monkeypatch
    ):
        import json
        import os as _os

        from repro.store import write_json_atomic

        target = tmp_path / "manifest.json"
        write_json_atomic(target, {"version": 1})

        def exploding_replace(src, dst):
            raise OSError("simulated crash at the rename boundary")

        monkeypatch.setattr(_os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            write_json_atomic(target, {"version": 2})
        monkeypatch.undo()
        # Old manifest intact, no temp litter left behind.
        assert json.loads(target.read_text(encoding="utf-8")) == {"version": 1}
        assert list(tmp_path.iterdir()) == [target]

    def test_crash_mid_write_preserves_old_manifest(self, tmp_path, monkeypatch):
        import json

        from repro.store import serialize as serialize_module
        from repro.store.serialize import write_json_atomic

        target = tmp_path / "manifest.json"
        write_json_atomic(target, {"version": 1})

        def exploding_dump(payload, handle, **kwargs):
            handle.write('{"version": ')  # partial bytes hit the temp file
            raise OSError("simulated crash mid-serialization")

        monkeypatch.setattr(serialize_module.json, "dump", exploding_dump)
        with pytest.raises(OSError, match="mid-serialization"):
            write_json_atomic(target, {"version": 2})
        monkeypatch.undo()
        assert json.loads(target.read_text(encoding="utf-8")) == {"version": 1}
        assert list(tmp_path.iterdir()) == [target]
