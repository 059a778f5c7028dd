"""Background segment merger: compacts base+delta into a new sealed segment.

A merge seals the dataset's current logical corpus — through the index
cache when one is configured, so the new generation lands as a
content-hash-keyed raw-``.npy`` entry the next process start can
memory-map — executed *off the request path*.  It embeds nothing: every
patch was embedded once, by the cold build or by its upsert, and the live
view already holds those rows.  The merger gathers them in canonical order
and hands them to ``SeeSawIndex.build``, which builds patch columns, store,
kNN graph and ``M_D`` exactly as a cold build of the same corpus would, so the
sealed generation equals that cold build bit for bit and a merge costs the
exact kNN scan.  While the build runs,
queries keep flowing against the old generation and mutations keep landing
in the delta; at swap time the operations that arrived after the snapshot
are replayed (with their original sequence numbers and versions) as a fresh
delta over the new base, and the live index reference is swapped by a
single assignment.  In-flight sessions finish on the generation they
started with; seen-state survives because it is keyed by stable external
image ids, not store rows.

The merged generation gets everything a cold build gets — the kNN graph,
the DB-alignment matrix, the configured quantized/graph/sharded tier stack
— so the quality knobs the delta view had to forgo resume here.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.indexing import SeeSawIndex
from repro.data.dataset import ImageDataset
from repro.embedding.base import EmbeddingModel
from repro.utils.memory import release_free_heap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.registry import DatasetRegistry, LiveDatasetState

logger = logging.getLogger("repro.live")


class SegmentMerger:
    """Schedules and executes delta-segment compactions."""

    def __init__(self, registry: "DatasetRegistry") -> None:
        self.registry = registry
        self._threads: "list[threading.Thread]" = []
        self._threads_lock = threading.Lock()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def should_merge(self, state: "LiveDatasetState") -> bool:
        """True when the delta has outgrown its configured budget."""
        config = self.registry.service.config
        if not state.has_delta or state.base_index is None:
            return False
        if state.delta_rows >= config.delta_max_rows:
            return True
        base_rows = len(state.base_index.store)
        return state.delta_rows >= config.merge_trigger_ratio * base_rows

    def maybe_schedule(self, state: "LiveDatasetState") -> bool:
        """Kick off a background merge when the trigger condition holds."""
        with state.lock:
            if state.merge_inflight or not self.should_merge(state):
                return False
        return self.schedule(state)

    def schedule(self, state: "LiveDatasetState") -> bool:
        """Start a background merge for ``state`` (deduplicated)."""
        with state.lock:
            if state.merge_inflight:
                return False
            state.merge_inflight = True
        thread = threading.Thread(
            target=self._run,
            args=(state,),
            name=f"seesaw-merge-{state.name}",
            daemon=True,
        )
        with self._threads_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()
        return True

    def _run(self, state: "LiveDatasetState") -> None:
        try:
            self.merge(state, _scheduled=True)
        except Exception:
            # A failed background compaction must never take the serving
            # path down: the delta view stays live and the next mutation's
            # trigger retries the merge.  It must not be silent either, or a
            # merge that always fails looks like one that never triggers.
            logger.exception("background merge of dataset '%s' failed", state.name)
            self.registry._merge_failures.labels(state.name).inc()
            with state.lock:
                state.merge_inflight = False

    def join(self, timeout: "float | None" = 30.0) -> None:
        """Wait for in-flight background merges (shutdown/test hygiene)."""
        with self._threads_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout)

    # ------------------------------------------------------------------
    # the compaction itself
    # ------------------------------------------------------------------
    def merge(self, state: "LiveDatasetState", _scheduled: bool = False) -> bool:
        """Compact ``state``'s delta into a new sealed generation.

        Returns True when a new generation was swapped in, False when there
        was nothing to compact.  Serialised per dataset by ``merge_lock`` —
        a force-merge arriving while a background merge runs waits, then
        finds an empty delta and no-ops.
        """
        registry = self.registry
        with state.merge_lock:
            with state.lock:
                state.merge_inflight = True
                if not state.has_delta or state.base_index is None:
                    state.merge_inflight = False
                    return False
                snapshot = state.merged_dataset()
                snapshot_seq = state.mutation_seq
                embedding = state.base_index.embedding
                # The live view of exactly this snapshot; immutable, so its
                # rows are gathered after the lock is released.
                view = state.current
            try:
                start = time.perf_counter()
                with obs.trace_span(
                    "merge", dataset=state.name, images=len(snapshot)
                ):
                    # What was freed since the last merge (an expired base,
                    # its views' buffers) goes back to the OS before the new
                    # build lands on top of it.
                    release_free_heap()
                    # The view's segment order lists each image's rows, images
                    # in canonical order, coarse patch first: the order a cold
                    # build embeds them.  Read-only, so the store adopts the
                    # gathered matrix without another copy.
                    vectors = view.store.take(view.segments.order)
                    vectors.setflags(write=False)
                    sealed = self._build_sealed(state, snapshot, embedding, vectors)
                    with state.lock:
                        pending = [
                            entry for entry in state.journal if entry[0] > snapshot_seq
                        ]
                        registry._adopt_base(state, sealed)
                        for seq, op, payload in pending:
                            registry._apply_op(
                                state, op, payload, seq=seq, bump_version=False
                            )
                        state.generation += 1
                        state.merges_completed += 1
                        live = registry._build_live_index(state)
                        registry._swap_current(state, live)
                        state.retain(live)
                        registry._persist_manifest(state)
                elapsed = time.perf_counter() - start
                registry._merges_total.labels(state.name).inc()
                registry._merge_seconds.observe(elapsed)
                self._sweep_cache(state)
                # The build's temporaries are freed by now; without a trim
                # glibc keeps them resident behind small live allocations.
                release_free_heap()
                return True
            finally:
                with state.lock:
                    state.merge_inflight = False

    def _build_sealed(
        self,
        state: "LiveDatasetState",
        dataset: ImageDataset,
        embedding: EmbeddingModel,
        vectors: np.ndarray,
    ) -> SeeSawIndex:
        """A sealed build of the snapshot over its resident rows (cache-keyed
        when possible)."""
        service = self.registry.service
        cache = service._caches.get(state.name)
        if cache is not None:
            index, was_cached = cache.load_or_build(
                dataset, embedding, state.config, vectors=vectors
            )
            with service._counter_lock:
                if was_cached:
                    service.cache_hits += 1
                else:
                    service.cache_misses += 1
            service._cache_events.labels("hit" if was_cached else "miss").inc()
        else:
            index = SeeSawIndex.build(dataset, embedding, state.config, vectors=vectors)
        service._apply_store_tiers(index)
        index.engine
        return index

    def _sweep_cache(self, state: "LiveDatasetState") -> None:
        """Bound on-disk growth: each merge adds one entry, so sweep after."""
        cache = self.registry.service._caches.get(state.name)
        if cache is not None:
            cache.sweep(pinned=self.registry.pinned_cache_keys())
