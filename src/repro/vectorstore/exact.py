"""Exact maximum-inner-product store (full scan).

The paper notes that an exact scan is the accuracy reference Annoy is
compared against (§2.2); it is also the store used in most tests because its
results are unambiguous.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VectorStoreError
from repro.utils.linalg import dot_rows
from repro.vectorstore.base import VectorStore, deterministic_top_k


class ExactVectorStore(VectorStore):
    """Brute-force inner-product search over all stored vectors."""

    exhaustive = True

    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        if k < 1:
            raise VectorStoreError(f"k must be >= 1, got {k}")
        query = self._check_query(query)
        # dot_rows (not gemv) so a sharded wrapper scoring row slices gets
        # bit-identical values; see repro.utils.linalg.dot_rows.
        scores = dot_rows(self._vectors, query)
        if exclude_mask is not None:
            # dot_rows allocated a fresh array, so masking in place is safe —
            # no defensive copy needed.
            scores[exclude_mask] = -np.inf
        # Deterministic selection and ordering (score desc, id asc) even when
        # a tie group straddles the k-th position — the rule the sharded
        # merge reproduces, keeping flat and sharded results bit-identical.
        ids = np.arange(len(self), dtype=np.int64)
        top = deterministic_top_k(scores, ids, k)
        top = top[np.isfinite(scores[top])]
        return top, scores[top]
