"""Versioned dataset registry: the control plane of the mutable tier.

Every registered dataset gets a :class:`LiveDatasetState` — the sealed base
index, the writable delta (rows, boxes, levels, tombstones), the canonical
image ordering, and a mutation journal — plus a monotonically increasing
*version* (one per logical mutation) and *generation* (one per physical
swap, so a compaction that changes no logical content still advances it).
``register_dataset`` publishes version 1; every upsert/delete publishes the
next version; sessions may pin any retained version and get bit-stable
results for that exact corpus.

The canonical ordering is the bit-identity linchpin: surviving base images
keep their base order, images added (or re-added by an upsert) go to the
*end*, in mutation order.  A from-scratch rebuild of the merged dataset
then assigns every image the same row the live view gives it, so pooled
scores, tie-breaks, and result order match bit for bit.

Manifests are JSON files under ``<index_cache_dir>/registry/`` written with
:func:`repro.store.serialize.write_json_atomic` (fsync + atomic replace): a
crash mid-publish leaves the previous manifest, never a half-written one.
Cache keys named by a manifest are *pinned* — the index cache's LRU sweep
never evicts them.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import obs
from repro.config import MultiscaleConfig, SeeSawConfig
from repro.core.indexing import IndexBuildReport, SeeSawIndex
from repro.core.multiscale import generate_patches, patch_columns
from repro.data.dataset import ImageDataset
from repro.data.image import SyntheticImage
from repro.engine import ImageSegments
from repro.exceptions import (
    ServiceOverloadedError,
    SessionError,
    UnknownResourceError,
)
from repro.live.delta import DeltaVectorStore
from repro.store.serialize import write_json_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.service import SeeSawService

MANIFEST_FORMAT = 1
"""Bumped when the manifest schema changes."""

RETAINED_GENERATIONS = 8
"""How many past versions stay pinnable per dataset.  Old in-memory indexes
are dropped beyond this window (a pin to an expired version fails with a
typed 404), which bounds memory across an unbounded mutation stream.

A retained version costs its O(N) per-view state (tombstone column, image
segments, dataset listing, engine columns), not a copy of the delta: every
view of one base reads prefixes of the state's append-only delta matrix and
patch columns.  Only a view published before the buffers last grew keeps
the old, smaller buffers resident until it expires."""


class LiveDatasetState:
    """Everything mutable about one registered dataset.

    All fields are guarded by ``lock`` except ``current`` — the live index
    reference — which is swapped by one dict/attribute assignment so query
    paths read it without taking the lock (in-flight sessions keep whatever
    index object they started on; that is the zero-downtime contract).
    """

    def __init__(self, name: str, config: SeeSawConfig) -> None:
        self.name = name
        self.config = config
        self.lock = threading.RLock()
        self.merge_lock = threading.Lock()
        self.version = 1
        self.generation = 1
        self.mutation_seq = 0
        self.categories: "tuple" = ()
        self.description = ""
        self.base_index: "SeeSawIndex | None" = None
        self.base_cache_key: "str | None" = None
        self.current: "SeeSawIndex | None" = None
        self.images: "OrderedDict[int, SyntheticImage]" = OrderedDict()
        self.image_vector_ids: "OrderedDict[int, tuple[int, ...]]" = OrderedDict()
        # Append-only: an upsert writes its rows after the last ones, and
        # every published view reads read-only prefixes, so the views of one
        # base share these buffers (rows below a view's prefix never change).
        # The delta matrix holds delta rows only; the patch columns run over
        # base and delta rows alike.  See ``append_delta``.
        self.delta_rows = 0
        self.delta_vectors = np.zeros((0, 0))
        self.patch_boxes = np.zeros((0, 4))
        self.patch_levels = np.zeros(0, dtype=np.int8)
        self.tombstoned: "set[int]" = set()
        self.journal: "list[tuple[int, str, object]]" = []
        self.generations: "OrderedDict[int, SeeSawIndex]" = OrderedDict()
        self.merge_inflight = False
        self.merges_completed = 0

    @property
    def has_delta(self) -> bool:
        return self.delta_rows > 0 or bool(self.tombstoned)

    def append_delta(
        self, vectors: np.ndarray, boxes: np.ndarray, levels: np.ndarray
    ) -> "range":
        """Write one image's rows after the last delta row; their vector ids.

        A full buffer is replaced by one of twice the capacity (at first,
        room up to the merge trigger, so a delta that merges on schedule
        never grows).  Views published earlier keep reading the old buffer,
        whose prefix holds the same bytes.
        """
        assert self.base_index is not None
        n_base = len(self.base_index.store)
        start, stop = self.delta_rows, self.delta_rows + levels.size
        capacity = self.delta_vectors.shape[0]
        if stop > capacity:
            first_capacity = min(
                self.config.delta_max_rows,
                math.ceil(self.config.merge_trigger_ratio * n_base),
            )
            capacity = max(stop, 2 * capacity, first_capacity)
            self.delta_vectors = _grown(self.delta_vectors, start, capacity)
            self.patch_boxes = _grown(self.patch_boxes, n_base + start, n_base + capacity)
            self.patch_levels = _grown(self.patch_levels, n_base + start, n_base + capacity)
        self.delta_vectors[start:stop] = vectors
        self.patch_boxes[n_base + start : n_base + stop] = boxes
        self.patch_levels[n_base + start : n_base + stop] = levels
        self.delta_rows = stop
        return range(n_base + start, n_base + stop)

    def merged_dataset(self) -> ImageDataset:
        """The current logical corpus, in canonical (row-stable) order."""
        return ImageDataset(
            name=self.name,
            images=list(self.images.values()),
            categories=self.categories,
            description=self.description,
        )

    def retain(self, index: SeeSawIndex) -> None:
        """Remember ``index`` as the pinnable view of the current version."""
        self.generations[self.version] = index
        self.generations.move_to_end(self.version)
        while len(self.generations) > RETAINED_GENERATIONS:
            self.generations.popitem(last=False)


def _grown(buffer: np.ndarray, used: int, capacity: int) -> np.ndarray:
    """A writable ``capacity``-row buffer holding ``buffer``'s first ``used`` rows."""
    grown = np.empty((capacity, *buffer.shape[1:]), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


class DatasetRegistry:
    """Owns the live state, versions, and manifests of every dataset."""

    def __init__(self, service: "SeeSawService") -> None:
        self.service = service
        self._states: "dict[str, LiveDatasetState]" = {}
        self._states_lock = threading.Lock()
        metrics = service.metrics
        self._merges_total = metrics.counter(
            "seesaw_merges_total",
            "Completed delta-segment compactions, by dataset.",
            labels=("dataset",),
        )
        self._merge_failures = metrics.counter(
            "seesaw_merge_failures_total",
            "Background segment merges that raised, by dataset.",
            labels=("dataset",),
        )
        self._merge_seconds = metrics.histogram(
            "seesaw_merge_seconds",
            "Wall-clock duration of one background segment merge.",
        )
        metrics.gauge(
            "seesaw_delta_rows",
            "Unsealed delta rows across all live datasets.",
            callback=lambda: float(self.delta_rows_total()),
        )
        # Imported here to avoid a cycle (merger drives registry internals).
        from repro.live.merger import SegmentMerger

        self.merger = SegmentMerger(self)

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------
    def _live_config(self) -> SeeSawConfig:
        """The config the multiscale base index is built with.

        Must match ``SeeSawService.index_for(..., multiscale=True)`` exactly
        or the registry's cache keys would diverge from the entries the
        service loads.
        """
        return self.service.config.with_overrides(
            multiscale=MultiscaleConfig(enabled=True)
        )

    def _manifest_dir(self) -> "Path | None":
        cache_dir = self.service.config.index_cache_dir
        if cache_dir is None:
            return None
        return Path(cache_dir) / "registry"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def publish(self, dataset: ImageDataset) -> LiveDatasetState:
        """Publish version 1 of ``dataset`` (re-registering resets lineage)."""
        state = LiveDatasetState(dataset.name, self._live_config())
        state.categories = tuple(dataset.categories)
        state.description = dataset.description
        for image in dataset.images:
            state.images[image.image_id] = image
        with self._states_lock:
            self._states[dataset.name] = state
        self._persist_manifest(state)
        return state

    def forget(self, name: str) -> None:
        with self._states_lock:
            self._states.pop(name, None)

    def state_for(self, name: str) -> LiveDatasetState:
        with self._states_lock:
            state = self._states.get(name)
        if state is None:
            raise UnknownResourceError(f"Dataset '{name}' is not registered")
        return state

    def _ensure_base(self, state: LiveDatasetState) -> SeeSawIndex:
        """Adopt the sealed multiscale index as the state's base (lazy).

        The service may register with ``preprocess=False``; the first
        mutation or version lookup then pays the build (or cache load) the
        eager path would have paid at registration.
        """
        if state.base_index is None:
            index = self.service.index_for(state.name, multiscale=True)
            self._adopt_base(state, index)
            state.retain(index)
        assert state.base_index is not None
        return state.base_index

    def _adopt_base(self, state: LiveDatasetState, index: SeeSawIndex) -> None:
        """Reset the delta state onto a freshly sealed base index."""
        state.base_index = index
        state.current = index
        state.images = OrderedDict(
            (image.image_id, image) for image in index.dataset.images
        )
        state.image_vector_ids = OrderedDict(
            (image_id, index.vector_ids_for_image(image_id))
            for image_id in index.image_ids
        )
        # Empty delta buffers; the patch columns start as the base's own
        # (read-only) arrays and are copied once, when the first upsert
        # grows them.
        state.delta_rows = 0
        state.delta_vectors = np.empty(
            (0, index.store.dim), dtype=index.store.compute_dtype
        )
        state.patch_boxes = index.patch_boxes
        state.patch_levels = index.patch_levels
        state.tombstoned = set()
        state.journal = []
        cache = self.service._caches.get(state.name)
        if cache is not None:
            state.base_cache_key = cache.key(
                index.dataset, index.embedding, state.config
            )
        else:
            state.base_cache_key = None

    def warm(self, name: str) -> None:
        """Adopt the already-built sealed index now (eager-register path)."""
        state = self.state_for(name)
        with state.lock:
            self._ensure_base(state)
        self._persist_manifest(state)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def dataset_names(self) -> "tuple[str, ...]":
        with self._states_lock:
            return tuple(self._states)

    def versions(self) -> "dict[str, int]":
        """Current version per dataset (``/v1/capabilities``)."""
        with self._states_lock:
            states = list(self._states.values())
        return {state.name: state.version for state in states}

    def dataset_generations(self) -> "dict[str, int]":
        """Current physical generation per dataset (``/healthz``)."""
        with self._states_lock:
            states = list(self._states.values())
        return {state.name: state.generation for state in states}

    def delta_rows_total(self) -> int:
        with self._states_lock:
            states = list(self._states.values())
        return sum(state.delta_rows for state in states)

    def manifest(self, state: LiveDatasetState) -> "dict[str, object]":
        """The JSON-safe manifest describing one dataset's current version."""
        with state.lock:
            return {
                "format": MANIFEST_FORMAT,
                "name": state.name,
                "version": state.version,
                "generation": state.generation,
                "image_count": len(state.images),
                "delta_rows": state.delta_rows,
                "tombstones": len(state.tombstoned),
                "merges_completed": state.merges_completed,
                "cache_key": state.base_cache_key,
                "retained_versions": sorted(state.generations),
            }

    def describe(self, name: str) -> "dict[str, object]":
        return self.manifest(self.state_for(name))

    def list_datasets(self) -> "list[dict[str, object]]":
        with self._states_lock:
            states = list(self._states.values())
        return [self.manifest(state) for state in states]

    def pinned_cache_keys(self) -> "set[str]":
        """Cache keys a live manifest still points at (never evictable)."""
        with self._states_lock:
            states = list(self._states.values())
        return {
            state.base_cache_key
            for state in states
            if state.base_cache_key is not None
        }

    def _persist_manifest(self, state: LiveDatasetState) -> None:
        directory = self._manifest_dir()
        if directory is None:
            return
        write_json_atomic(directory / f"{state.name}.json", self.manifest(state))

    # ------------------------------------------------------------------
    # version pinning
    # ------------------------------------------------------------------
    def index_for_version(self, name: str, version: int) -> SeeSawIndex:
        """The retained index serving one pinned dataset version."""
        state = self.state_for(name)
        with state.lock:
            self._ensure_base(state)
            if version == state.version:
                assert state.current is not None
                return state.current
            index = state.generations.get(version)
            if index is None:
                retained = ", ".join(str(v) for v in sorted(state.generations))
                raise UnknownResourceError(
                    f"Version {version} of dataset '{name}' is not retained "
                    f"(current {state.version}; retained: {retained or 'none'})"
                )
            return index

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _check_live_enabled(self) -> None:
        if not self.service.config.live_datasets:
            raise SessionError(
                "Live dataset mutations are disabled "
                "(set SeeSawConfig.live_datasets=True to enable)"
            )

    def upsert_images(
        self, name: str, images: "Sequence[SyntheticImage]"
    ) -> "dict[str, object]":
        """Add or replace images; publishes a new dataset version."""
        self._check_live_enabled()
        state = self.state_for(name)
        if not images:
            raise SessionError("upsert requires at least one image")
        seen: "set[int]" = set()
        for image in images:
            if image.image_id in seen:
                raise SessionError(
                    f"duplicate image id {image.image_id} in one upsert"
                )
            seen.add(image.image_id)
        known = {info.name for info in state.categories}
        for image in images:
            unknown = image.categories - known
            if unknown:
                raise SessionError(
                    f"Image {image.image_id} uses unknown categories "
                    f"{sorted(unknown)} (catalog: {sorted(known)})"
                )
        with state.lock:
            self._ensure_base(state)
            projected = state.delta_rows + sum(
                len(generate_patches(image.width, image.height, state.config.multiscale))
                for image in images
            )
            if projected > self.service.config.delta_max_rows:
                self.merger.schedule(state)
                raise ServiceOverloadedError(
                    f"Delta segment for '{name}' is full "
                    f"({state.delta_rows} rows, cap "
                    f"{self.service.config.delta_max_rows}); a merge is in "
                    "progress, retry shortly",
                    retry_after_seconds=0.5,
                )
            self._apply_op(state, "upsert", tuple(images))
            self._publish_mutation(state)
        self.merger.maybe_schedule(state)
        return self.manifest(state)

    def delete_images(
        self, name: str, image_ids: "Sequence[int]"
    ) -> "dict[str, object]":
        """Remove images; publishes a new dataset version."""
        self._check_live_enabled()
        state = self.state_for(name)
        if not image_ids:
            raise SessionError("delete requires at least one image id")
        with state.lock:
            self._ensure_base(state)
            wanted = []
            seen: "set[int]" = set()
            for image_id in image_ids:
                image_id = int(image_id)
                if image_id in seen:
                    continue
                seen.add(image_id)
                if image_id not in state.images:
                    raise UnknownResourceError(
                        f"Image {image_id} is not in dataset '{name}'"
                    )
                wanted.append(image_id)
            if len(state.images) - len(wanted) < 1:
                raise SessionError(
                    f"Cannot delete all {len(state.images)} images of "
                    f"'{name}'; a dataset must keep at least one"
                )
            self._apply_op(state, "delete", tuple(wanted))
            self._publish_mutation(state)
        self.merger.maybe_schedule(state)
        return self.manifest(state)

    def _apply_op(
        self,
        state: LiveDatasetState,
        op: str,
        payload: object,
        seq: "int | None" = None,
        bump_version: bool = True,
    ) -> None:
        """Apply one journal operation to the delta state (lock held).

        ``seq``/``bump_version`` let the merger replay operations that
        arrived while a background compaction was building — they keep their
        original sequence numbers and already-assigned versions.
        """
        if seq is None:
            state.mutation_seq += 1
            seq = state.mutation_seq
        if op == "upsert":
            self._apply_upsert(state, payload)  # type: ignore[arg-type]
        elif op == "delete":
            self._apply_delete(state, payload)  # type: ignore[arg-type]
        else:  # pragma: no cover - internal invariant
            raise SessionError(f"Unknown mutation op '{op}'")
        state.journal.append((seq, op, payload))
        if bump_version:
            state.version += 1

    def _apply_upsert(
        self, state: LiveDatasetState, images: "Iterable[SyntheticImage]"
    ) -> None:
        assert state.base_index is not None
        embedding = state.base_index.embedding
        for image in images:
            old = state.image_vector_ids.pop(image.image_id, None)
            if old is not None:
                state.tombstoned.update(old)
                state.images.pop(image.image_id, None)
            patches = generate_patches(image.width, image.height, state.config.multiscale)
            vectors = embedding.embed_patches(image, [box for box, _ in patches])
            vector_ids = state.append_delta(vectors, *patch_columns(patches))
            # Re-inserted at the end of both ordered maps: the canonical
            # position a from-scratch rebuild would give the image.
            state.images[image.image_id] = image
            state.image_vector_ids[image.image_id] = tuple(vector_ids)

    def _apply_delete(
        self, state: LiveDatasetState, image_ids: "Iterable[int]"
    ) -> None:
        for image_id in image_ids:
            old = state.image_vector_ids.pop(image_id, None)
            if old is None:
                continue  # replay of a delete whose target a merge removed
            state.tombstoned.update(old)
            state.images.pop(image_id, None)

    def _publish_mutation(self, state: LiveDatasetState) -> None:
        """Rebuild the live view, swap it in, and persist the manifest."""
        state.generation += 1
        index = self._build_live_index(state)
        self._swap_current(state, index)
        state.retain(index)
        self._persist_manifest(state)

    def _build_live_index(self, state: LiveDatasetState) -> SeeSawIndex:
        """The delta-over-base view of the state's current logical corpus."""
        assert state.base_index is not None
        base = state.base_index
        if not state.has_delta:
            return base
        total = len(base.store) + state.delta_rows
        # Read-only prefixes of the append-only buffers: the store and the
        # index adopt them without a copy, and later appends write past them.
        delta_matrix = state.delta_vectors[: state.delta_rows]
        delta_matrix.setflags(write=False)
        tombstones = np.zeros(total, dtype=bool)
        if state.tombstoned:
            tombstones[
                np.fromiter(state.tombstoned, dtype=np.int64, count=len(state.tombstoned))
            ] = True
        tombstones.setflags(write=False)
        store = DeltaVectorStore(base.store, delta_matrix, tombstones)
        report = IndexBuildReport(
            dataset_name=state.name,
            image_count=len(state.images),
            vector_count=len(store),
            embedding_seconds=0.0,
            store_seconds=0.0,
            graph_seconds=0.0,
            multiscale=state.config.multiscale.enabled,
        )
        # No kNN graph / DB-alignment matrix over the live view: both are
        # merge-time artifacts (the delta generation would need them over a
        # different row space every mutation).  The search method degrades
        # gracefully — alignment resumes on the next sealed generation.
        return SeeSawIndex(
            dataset=state.merged_dataset(),
            embedding=base.embedding,
            store=store,
            segments=ImageSegments.from_mapping(state.image_vector_ids, total),
            patch_boxes=state.patch_boxes[:total],
            patch_levels=state.patch_levels[:total],
            knn_graph=None,
            db_matrix=None,
            config=state.config,
            build_report=report,
        )

    def _swap_current(self, state: LiveDatasetState, index: SeeSawIndex) -> None:
        """Atomically point new lookups at ``index`` (old sessions unaffected)."""
        index.engine  # warm before anything can route to it
        state.current = index
        service = self.service
        service._indexes[(state.name, True)] = index
        service._datasets[state.name] = (index.dataset, index.embedding)
        # The coarse (multiscale=False) index, if built, covers the previous
        # corpus; drop it so the next coarse session rebuilds from the
        # current one.
        service._indexes.pop((state.name, False), None)

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def force_merge(self, name: str) -> "dict[str, object]":
        """Synchronously compact ``name``'s delta into a new sealed segment."""
        self._check_live_enabled()
        state = self.state_for(name)
        with state.lock:
            self._ensure_base(state)
        self.merger.merge(state)
        return self.manifest(state)

    def close(self) -> None:
        """Wait for background merges to finish (test/shutdown hygiene)."""
        self.merger.join()
