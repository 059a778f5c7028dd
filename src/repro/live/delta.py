"""Writable delta segment over a sealed base vector store.

The mutable dataset tier keeps every expensive artifact sealed: the base
segment stays the immutable (usually memory-mapped) store the index cache
produced, and all mutations land in a small in-memory *delta* — appended
unit-normalized rows for upserted images plus a tombstone set marking rows
(base or delta) that later mutations deleted.  :class:`DeltaVectorStore`
presents the pair as one store to the engine:

* ``score_all`` fills one global score column — the base segment through the
  base store's own (shard-stable, bit-identical) kernel, the delta rows
  through the same :func:`~repro.utils.linalg.dot_rows` kernel a rebuild
  would use — so the exhaustive engine path over a live view returns the
  exact bits a from-scratch rebuild of the merged dataset returns.
* ``search_arrays`` merges the base tier's candidates with an exact scan of
  the delta rows through :func:`~repro.vectorstore.base.deterministic_top_k`
  — the same merge rule that makes sharded results bit-identical to flat
  ones — with tombstoned rows masked out on both sides.

Deletes never touch the sealed bytes: a tombstoned row keeps its slot (and
its score, on the exhaustive path) but is dropped from the image→vector
segment mapping, so pooling never gathers it; the candidate path masks it
explicitly.  Compaction (:mod:`repro.live.merger`) folds base+delta into a
new sealed segment off the request path.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VectorStoreError
from repro.utils.linalg import dot_rows, ensure_dtype, has_canonical_rows, normalize_rows
from repro.vectorstore.base import VectorStore, deterministic_top_k


class DeltaVectorStore(VectorStore):
    """A sealed base store plus an append-only delta segment and tombstones.

    The base store may be any tier the service composes — exact, sharded,
    quantized, or graph-ANN; the delta sits *above* the tier stack, so a
    mutation never rebuilds a quantization or a graph adjacency (those
    rebuild at merge).  ``exhaustive`` is inherited from the base: a live
    view over an exhaustive base still full-scans (base kernel + delta
    kernel fill one column), a live view over a candidate store drives the
    base's candidate API and scans only the delta exactly.
    """

    def __init__(
        self,
        base: VectorStore,
        delta_vectors: np.ndarray,
        tombstones: np.ndarray,
    ) -> None:
        # Deliberately does NOT call VectorStore.__init__: the base segment's
        # matrix is adopted by reference (it may be a shared mmap), never
        # copied or revalidated here.
        dtype = base.compute_dtype
        n_base = len(base)
        delta = ensure_dtype(np.asarray(delta_vectors), dtype)
        if delta.ndim != 2 or (delta.size and delta.shape[1] != base.dim):
            raise VectorStoreError(
                f"delta vectors must be (count x {base.dim}), got shape {delta.shape}"
            )
        if delta.shape[0] == 0:
            delta = np.zeros((0, base.dim), dtype=dtype)
        # The same canonical-row adoption the sealed store performs: rows
        # already unit (or zero) within the dtype's tolerance are kept
        # bit-exact, so a delta row embedded by the same deterministic
        # embedding a rebuild would run scores identically in both views.
        # Read-only rows are adopted without a copy: the registry hands
        # every view a read-only prefix of one append-only buffer.
        if delta.shape[0]:
            if not has_canonical_rows(delta):
                delta = ensure_dtype(normalize_rows(delta), dtype)
            elif delta.flags.writeable:
                delta = delta.copy()
        delta.setflags(write=False)
        tombstones = np.asarray(tombstones, dtype=bool)
        if tombstones.shape != (n_base + delta.shape[0],):
            raise VectorStoreError(
                f"tombstones must be a boolean column over all "
                f"{n_base + delta.shape[0]} rows, got shape {tombstones.shape}"
            )
        if tombstones.flags.writeable:
            tombstones = tombstones.copy()
            tombstones.setflags(write=False)

        self._base = base
        self._delta = delta
        self._tombstones = tombstones
        self._compute_dtype = dtype
        # Instance attribute shadowing the class flag, the sharded-store
        # precedent: the live view is exactly as exhaustive as its base.
        self.exhaustive = bool(base.exhaustive)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> VectorStore:
        """The sealed base segment (whatever tier stack the service built)."""
        return self._base

    @property
    def delta_rows(self) -> int:
        """Unsealed rows appended since the base segment was sealed."""
        return self._delta.shape[0]

    @property
    def tombstones(self) -> np.ndarray:
        """Boolean tombstone column over all rows (read-only)."""
        return self._tombstones

    @property
    def tombstone_count(self) -> int:
        return int(self._tombstones.sum())

    @property
    def live_rows(self) -> int:
        """Rows that are neither tombstoned base nor tombstoned delta."""
        return len(self) - self.tombstone_count

    # ------------------------------------------------------------------
    # VectorStore surface (base accessors that assumed self._vectors)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._base) + self._delta.shape[0]

    @property
    def dim(self) -> int:
        return self._base.dim

    @property
    def vectors(self) -> np.ndarray:
        """The full matrix, materialised: a fresh base+delta copy per call.

        Nothing on the serving or merge path reads it — scoring goes
        through the segment kernels below and row gathers (the feedback
        training set, the merger's resident rows) through :meth:`take` —
        so it is a whole-corpus copy only for whole-matrix consumers.
        """
        stacked = np.concatenate(
            [np.asarray(self._base.vectors), self._delta], axis=0
        )
        stacked.setflags(write=False)
        return stacked

    def take(self, vector_ids: np.ndarray) -> np.ndarray:
        """Gather rows from both segments without concatenating them."""
        vector_ids = self._check_ids(vector_ids)
        n_base = len(self._base)
        in_base = vector_ids < n_base
        if bool(in_base.all()):
            return self._base.take(vector_ids)
        out = np.empty((vector_ids.size, self.dim), dtype=self._compute_dtype)
        out[in_base] = self._base.take(vector_ids[in_base])
        in_delta = ~in_base
        out[in_delta] = self._delta[vector_ids[in_delta] - n_base]
        return out

    def vector(self, vector_id: int) -> np.ndarray:
        if not 0 <= vector_id < len(self):
            raise VectorStoreError(f"Unknown vector id {vector_id}")
        n_base = len(self._base)
        if vector_id < n_base:
            return self._base.vector(vector_id)
        return self._delta[vector_id - n_base].copy()

    def _share_vectors(self, vectors: np.ndarray) -> None:
        raise VectorStoreError(
            "DeltaVectorStore does not share its matrix; wrap the base store"
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score_all(self, query: np.ndarray) -> np.ndarray:
        """One global score column: base kernel then delta kernel.

        Tombstoned rows keep their true scores — the segment mapping no
        longer references them, so pooling never reads those slots, and not
        branching here keeps the column bit-identical to a rebuild's (whose
        matrix simply lacks the rows).
        """
        query = self._check_query(query)
        out = np.empty(len(self), dtype=self._compute_dtype)
        n_base = len(self._base)
        out[:n_base] = self._base.score_all(query)
        if self._delta.shape[0]:
            out[n_base:] = dot_rows(self._delta, query)
        return out

    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Candidate merge: base tier's top-k + exact delta scan.

        The base segment answers through whatever candidate machinery it has
        (exact scan, int8 rerank, graph descent) with tombstoned base rows
        folded into its exclusion mask; the delta — small by construction —
        is always scanned exactly.  Both sides then merge through
        ``deterministic_top_k``, so over an exhaustive base the result is
        the exact global top-k a rebuild would return, bit for bit.
        """
        if k < 1:
            raise VectorStoreError(f"k must be >= 1, got {k}")
        query = self._check_query(query)
        n_base = len(self._base)
        n_delta = self._delta.shape[0]
        if exclude_mask is not None and exclude_mask.shape[0] != len(self):
            raise VectorStoreError(
                f"exclude_mask length {exclude_mask.shape[0]} does not match "
                f"store size {len(self)}"
            )
        base_mask = self._tombstones[:n_base]
        if exclude_mask is not None:
            base_mask = base_mask | exclude_mask[:n_base]
        base_ids, base_scores = self._base.search_arrays(
            query, k, exclude_mask=base_mask if base_mask.any() else None
        )
        if n_delta == 0:
            return base_ids.astype(np.int64, copy=False), base_scores
        delta_scores = dot_rows(self._delta, query)
        delta_mask = self._tombstones[n_base:]
        if exclude_mask is not None:
            delta_mask = delta_mask | exclude_mask[n_base:]
        if delta_mask.any():
            delta_scores[delta_mask] = -np.inf
        merged_ids = np.concatenate(
            [
                base_ids.astype(np.int64, copy=False),
                np.arange(n_base, n_base + n_delta, dtype=np.int64),
            ]
        )
        merged_scores = np.concatenate(
            [base_scores, delta_scores.astype(base_scores.dtype, copy=False)]
        )
        top = deterministic_top_k(merged_scores, merged_ids, k)
        top = top[np.isfinite(merged_scores[top])]
        return merged_ids[top], merged_scores[top]
