"""On-disk index cache: build once, cold-start in milliseconds afterwards.

The cache maps a content hash of (dataset, embedding, config) to a
directory holding the serialized index.  A second process pointed at the
same cache directory loads the preprocessed artifacts from disk instead of
re-embedding the dataset, which is what lets the HTTP service restart
quickly (ISSUE: service cold-start).

Entries load memory-mapped by default (see :mod:`repro.store.serialize`),
and misses are **single-flighted across processes**: the first builder
claims an atomic ``<key>.building`` sentinel next to the entry, every other
process (or thread) polls for the finished entry instead of paying the same
build, and a sentinel left behind by a crashed builder is stolen once it
goes stale.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Iterable

from repro.config import SeeSawConfig
from repro.core.indexing import SeeSawIndex
from repro.data.dataset import ImageDataset
from repro.embedding.base import EmbeddingModel
from repro.exceptions import StoreError
from repro.store.hashing import index_cache_key
from repro.store.serialize import META_FILE, load_index, save_index


class IndexCache:
    """A directory of serialized indexes keyed by build-content hash."""

    def __init__(
        self,
        cache_dir: "str | os.PathLike[str]",
        mmap: bool = True,
        lock_poll_seconds: float = 0.05,
        lock_stale_seconds: float = 600.0,
        max_entries: "int | None" = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.mmap = bool(mmap)
        self.lock_poll_seconds = float(lock_poll_seconds)
        self.lock_stale_seconds = float(lock_stale_seconds)
        if max_entries is not None and int(max_entries) < 1:
            raise StoreError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = None if max_entries is None else int(max_entries)

    def key(
        self,
        dataset: ImageDataset,
        embedding: EmbeddingModel,
        config: SeeSawConfig,
    ) -> str:
        """The content hash identifying one buildable index."""
        return index_cache_key(dataset, embedding, config)

    def path_for(self, key: str) -> Path:
        """The directory a given key's artifacts live in."""
        return self.cache_dir / key[:32]

    def contains(self, key: str) -> bool:
        """True when a complete entry for ``key`` is on disk."""
        return (self.path_for(key) / META_FILE).exists()

    def load(
        self, key: str, dataset: ImageDataset, embedding: EmbeddingModel
    ) -> "SeeSawIndex | None":
        """Load the entry for ``key``, or ``None`` when absent or unreadable.

        A corrupt entry is treated as a miss (and removed) so one bad write
        can never permanently wedge the service start-up path.
        """
        if not self.contains(key):
            return None
        path = self.path_for(key)
        try:
            return load_index(path, dataset, embedding, mmap=self.mmap)
        except StoreError:
            self.evict(key)
            return None

    def store(self, key: str, index: SeeSawIndex) -> Path:
        """Serialize ``index`` under ``key`` and return its directory."""
        return save_index(index, self.path_for(key))

    def evict(self, key: str) -> None:
        """Remove the entry for ``key`` if present."""
        shutil.rmtree(self.path_for(key), ignore_errors=True)

    def entries(self) -> "list[Path]":
        """Directories of all complete entries currently in the cache."""
        return sorted(
            child
            for child in self.cache_dir.iterdir()
            if child.is_dir() and (child / META_FILE).exists()
        )

    def sweep(self, pinned: "Iterable[str]" = ()) -> "list[Path]":
        """Bound cache growth: evict LRU entries and clean orphaned sentinels.

        Live-dataset merges create a fresh entry per generation, which would
        grow the directory forever.  When ``max_entries`` is set, complete
        entries beyond it are evicted oldest-first (by entry mtime — touched
        at write time, so recently published generations survive) — except
        entries whose key is ``pinned``: a key named by a live registry
        manifest is load-bearing (a process restart must find it) and is
        never evicted, even when that leaves the cache above the bound.

        Independently of any entry bound, ``.building`` and ``.stale-*``
        sentinels older than ``lock_stale_seconds`` are removed: a builder
        that crashed without releasing leaves one behind, and while the
        build path steals them lazily, a cache that is only ever *read*
        afterwards would keep the orphan forever.

        Returns the entry directories that were evicted.
        """
        pinned_dirs = {key[:32] for key in pinned}
        now = time.time()
        for sentinel in list(self.cache_dir.glob("*.building")) + list(
            self.cache_dir.glob("*.stale-*")
        ):
            try:
                if now - sentinel.stat().st_mtime > self.lock_stale_seconds:
                    os.remove(sentinel)
            except (FileNotFoundError, OSError):
                continue
        evicted: "list[Path]" = []
        if self.max_entries is None:
            return evicted
        entries = self.entries()
        if len(entries) <= self.max_entries:
            return evicted
        def entry_mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except (FileNotFoundError, OSError):
                return 0.0
        for entry in sorted(entries, key=entry_mtime):
            if len(entries) - len(evicted) <= self.max_entries:
                break
            if entry.name in pinned_dirs:
                continue
            shutil.rmtree(entry, ignore_errors=True)
            evicted.append(entry)
        return evicted

    # ------------------------------------------------------------------
    # cross-process build single-flighting
    # ------------------------------------------------------------------
    def build_lock_path(self, key: str) -> Path:
        """The sentinel file claiming the build of one entry."""
        return self.cache_dir / f"{key[:32]}.building"

    def _try_acquire_build_lock(self, key: str) -> "str | None":
        """Atomically claim the build sentinel (``O_CREAT | O_EXCL``).

        Returns the claim's unique ownership token (``None`` when another
        holder owns the sentinel).  The token travels with the acquiring
        caller — not through shared instance state — so two threads of one
        cache racing a stale steal can never confuse their claims.
        """
        token = f"{os.getpid()}-{uuid.uuid4().hex}"
        try:
            fd = os.open(
                self.build_lock_path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return None
        try:
            os.write(fd, token.encode("ascii"))
        finally:
            os.close(fd)
        return token

    def _release_build_lock(self, key: str, token: str) -> None:
        """Remove the sentinel, but only if ``token`` still owns it.

        A builder that outlived the staleness window and lost its sentinel
        to a thief sees a foreign token and leaves the thief's claim alone.
        (The read-then-remove pair is not atomic; the remaining window is a
        steal landing in the microseconds between them, which requires the
        sentinel to have *already* been stale — best-effort by design.)
        """
        path = self.build_lock_path(key)
        try:
            if path.read_text(encoding="ascii") != token:
                return  # stolen as stale; the current holder owns it now
            os.remove(path)
        except (FileNotFoundError, OSError):
            pass

    def _lock_is_stale(self, key: str) -> bool:
        """True when the sentinel's holder has apparently died mid-build."""
        try:
            age = time.time() - self.build_lock_path(key).stat().st_mtime
        except FileNotFoundError:
            return False
        return age > self.lock_stale_seconds

    def _steal_stale_lock(self, key: str) -> None:
        """Remove a stale sentinel atomically (at most one stealer wins).

        The sentinel is first renamed to a unique path — ``os.rename`` is
        atomic, so two waiters racing the steal cannot both remove the same
        claim — and its age is then *re-checked on the renamed file*: a
        fresh claim that slipped in between the caller's staleness check
        and the rename is put back instead of deleted.  Best effort by
        construction: the narrow restore window can at worst admit one
        duplicate build (entry writes are idempotent by key), never a wedge.
        """
        lock_path = self.build_lock_path(key)
        doomed = lock_path.with_suffix(f".stale-{uuid.uuid4().hex}")
        try:
            os.rename(lock_path, doomed)
        except (FileNotFoundError, OSError):
            return  # another stealer won, or the holder released
        try:
            still_stale = (
                time.time() - doomed.stat().st_mtime > self.lock_stale_seconds
            )
        except (FileNotFoundError, OSError):
            still_stale = True
        if not still_stale:
            try:
                os.rename(doomed, lock_path)  # grabbed a fresh claim; restore it
                return
            except OSError:
                pass
        try:
            os.remove(doomed)
        except (FileNotFoundError, OSError):
            pass

    def load_or_build(
        self,
        dataset: ImageDataset,
        embedding: EmbeddingModel,
        config: "SeeSawConfig | None" = None,
        **build_kwargs: object,
    ) -> "tuple[SeeSawIndex, bool]":
        """Return ``(index, was_cached)``, building and persisting on a miss.

        Builds are single-flighted across every process (and thread) sharing
        this cache directory: a miss first claims the entry's atomic
        ``.building`` sentinel, and losers poll — re-checking for the
        winner's finished entry each round — instead of duplicating the
        build.  A sentinel older than ``lock_stale_seconds`` (a builder that
        crashed without releasing) is stolen — atomically, and ownership-
        checked on release so a slow builder outliving its sentinel can
        never delete the thief's claim — and the claim retried, so a dead
        process can never wedge every future cold start.  A build genuinely
        slower than the staleness window may be duplicated once; that is
        the recovery trade-off, not a correctness loss (entry writes are
        atomic and idempotent by key).
        """
        config = config or SeeSawConfig()
        key = self.key(dataset, embedding, config)
        while True:
            cached = self.load(key, dataset, embedding)
            if cached is not None:
                return cached, True
            token = self._try_acquire_build_lock(key)
            if token is not None:
                try:
                    # Double-check under the lock: the previous holder may
                    # have finished the entry between our miss and our claim.
                    cached = self.load(key, dataset, embedding)
                    if cached is not None:
                        return cached, True
                    index = SeeSawIndex.build(dataset, embedding, config, **build_kwargs)
                    self.store(key, index)
                    return index, False
                finally:
                    self._release_build_lock(key, token)
            if self._lock_is_stale(key):
                self._steal_stale_lock(key)
                continue
            time.sleep(self.lock_poll_seconds)
