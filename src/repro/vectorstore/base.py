"""Vector-store interface: stores hold unit vectors and nothing else."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import VectorStoreError
from repro.utils.linalg import (
    COMPUTE_DTYPES,
    dot_rows,
    ensure_dtype,
    has_canonical_rows,
    normalize_rows,
    resolve_compute_dtype,
)


def deterministic_top_k(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` best entries under (score desc, id asc).

    ``argpartition`` alone selects an *arbitrary* subset of entries tied at
    the k-th score, so two stores holding the same data could return
    different id sets when a tie group straddles the cut.  This helper makes
    the boundary deterministic: strictly-better entries are all taken, then
    tied entries fill the remaining slots smallest-id first, and the final
    ordering is score descending with ascending-id tie-break.  Both the
    exact store and the sharded merge select through it, which is what makes
    sharded results bit-identical to flat results *through ties* — any entry
    in the global top-k under this rule is also in its shard's local top-k
    under the same rule.
    """
    count = scores.shape[0]
    k = min(k, count)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k == count:
        chosen = np.arange(count)
    else:
        partitioned = np.argpartition(-scores, k - 1)
        kth_score = scores[partitioned[k - 1]]
        strictly_better = np.flatnonzero(scores > kth_score)
        tied = np.flatnonzero(scores == kth_score)
        need = k - strictly_better.size
        if need < tied.size:
            tied = tied[np.argsort(ids[tied], kind="stable")[:need]]
        chosen = np.concatenate([strictly_better, tied])
    return chosen[np.lexsort((ids[chosen], -scores[chosen]))]


class VectorStore(ABC):
    """Maximum-inner-product lookup over a fixed set of unit vectors."""

    exhaustive: bool = False
    """True when every query scores every stored vector (exact scan).

    The query engine full-scans exhaustive stores (mask + pool once, no
    retries) and drives candidate gathering for approximate ones.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        compute_dtype: "np.dtype | str | None" = None,
    ) -> None:
        source = np.asarray(vectors)
        if compute_dtype is None:
            # Adopt the dtype the data arrives in when it is already a
            # compute dtype: shard slices, cache-loaded artifacts, and tier
            # wrappers then propagate the tier choice with zero configuration
            # (and zero conversion copies).  Anything else promotes to the
            # float64 reference dtype.
            dtype = source.dtype if source.dtype in COMPUTE_DTYPES else np.dtype(np.float64)
        else:
            dtype = resolve_compute_dtype(compute_dtype)
        vectors = ensure_dtype(source, dtype)
        converted = vectors is not source
        if vectors.ndim != 2:
            raise VectorStoreError("vectors must be a 2-d array (count x dim)")
        if vectors.shape[0] == 0:
            raise VectorStoreError("cannot build a vector store with no vectors")
        # Rows already in canonical form are kept bit-exact instead of being
        # re-divided by a norm of 1±ulp: rebuilding a store from another
        # store's vectors (shard slices, cache loads) must not drift scores
        # in the last bits — the sharded store's equivalence guarantee and
        # the index cache's reproducibility both rest on this.  The defensive
        # copy is skipped when nobody else can mutate the rows: the dtype
        # conversion already produced a private array, and a read-only input
        # (another store's ``vectors`` view, an ``mmap_mode="r"`` artifact, a
        # cold build's frozen matrix) stays zero-copy.
        if has_canonical_rows(vectors):
            if converted or not vectors.flags.writeable:
                self._vectors = vectors
            else:
                self._vectors = vectors.copy()
        else:
            self._vectors = ensure_dtype(normalize_rows(vectors), dtype)
        self._compute_dtype = dtype

    # ------------------------------------------------------------------
    # shared accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._vectors.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the stored vectors."""
        return self._vectors.shape[1]

    @property
    def compute_dtype(self) -> np.dtype:
        """The floating dtype scoring runs in (``float64`` or ``float32``).

        Queries are converted to this dtype once at the store boundary
        (:meth:`_check_query`); every score array the store returns carries
        it, so the engine's pooling and selection kernels inherit the tier
        without further conversions.
        """
        return self._compute_dtype

    @property
    def vectors(self) -> np.ndarray:
        """The full (count x dim) matrix of stored unit vectors (read-only view)."""
        view = self._vectors.view()
        view.setflags(write=False)
        return view

    def vector(self, vector_id: int) -> np.ndarray:
        """One stored vector by id."""
        if not 0 <= vector_id < len(self):
            raise VectorStoreError(f"Unknown vector id {vector_id}")
        return self._vectors[vector_id].copy()

    def take(self, vector_ids: np.ndarray) -> np.ndarray:
        """A fresh ``(len(vector_ids) x dim)`` matrix of the given rows.

        Bit for bit ``vectors[vector_ids]``, in the compute dtype; a
        composite store overrides it to gather from its segments without
        materialising the whole matrix first.
        """
        vector_ids = self._check_ids(vector_ids)
        return self._vectors[vector_ids]

    def _check_ids(self, vector_ids: np.ndarray) -> np.ndarray:
        vector_ids = np.asarray(vector_ids, dtype=np.int64)
        if vector_ids.ndim != 1:
            raise VectorStoreError("vector ids must be a 1-d array")
        if vector_ids.size and (vector_ids.min() < 0 or vector_ids.max() >= len(self)):
            raise VectorStoreError(
                f"vector ids must lie in [0, {len(self)}), got "
                f"[{int(vector_ids.min())}, {int(vector_ids.max())}]"
            )
        return vector_ids

    def _share_vectors(self, vectors: np.ndarray) -> None:
        """Swap the owned matrix for a shared view with identical content.

        Used by the sharded wrapper after building its inner stores: each
        shard's matrix is replaced by a view into the wrapper's rows (same
        bits — the unit-norm construction path preserved them), so sharding
        does not double the corpus's resident memory.
        """
        if vectors.shape != self._vectors.shape:
            raise VectorStoreError(
                f"shared matrix shape {vectors.shape} does not match "
                f"{self._vectors.shape}"
            )
        if vectors.dtype != self._compute_dtype:
            raise VectorStoreError(
                f"shared matrix dtype {vectors.dtype} does not match the "
                f"store's compute dtype {self._compute_dtype}"
            )
        self._vectors = vectors

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = ensure_dtype(query, self._compute_dtype).ravel()
        if query.shape[0] != self.dim:
            raise VectorStoreError(
                f"query dimension {query.shape[0]} does not match store dimension {self.dim}"
            )
        return query

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    @abstractmethod
    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Array-native top-``k``: aligned ``(vector_ids, scores)``, best first.

        ``exclude_mask`` is an optional boolean column over the stored
        vectors (``True`` = excluded).  This is the one top-``k`` entry
        point; the query engine drives it each round and no per-hit objects
        are created.
        """

    def score_all(self, query: np.ndarray) -> np.ndarray:
        """Inner product of ``query`` with every stored vector.

        The engine's bulk-scoring kernel; also pays the deliberate
        linear-scan cost of the global baselines (ENS, label propagation)
        the paper contrasts SeeSaw against.  Computed with the shard-stable
        :func:`~repro.utils.linalg.dot_rows` kernel so a sharded store's
        per-shard scoring is bit-identical to the full scan.
        """
        query = self._check_query(query)
        return dot_rows(self._vectors, query)
