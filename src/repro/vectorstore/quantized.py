"""Int8-quantized candidate tier with exact re-ranking.

The per-round scoring cost of an exhaustive store is memory bandwidth: every
query streams the full vector matrix.  This store keeps a symmetric per-row
int8 quantization of the matrix alongside the exact compute-dtype rows and
splits each search into two passes:

1. **candidate pass** — the query is quantized the same way and scored
   against the int8 matrix with an int32-accumulated GEMM
   (``np.einsum(..., dtype=np.int32)``, no up-cast copy of the matrix), an
   8x bandwidth reduction over float64 scoring;
2. **exact re-rank** — the top ``rerank_factor * k`` candidates under the
   approximate scores are re-scored with true inner products in the compute
   dtype, and the final top-``k`` is selected from those with the same
   deterministic (score desc, id asc) rule the exact store uses.

Per-row symmetric quantization (``scale_i = max|row_i| / 127``) makes the
approximation *sliceable*: a shard's quantized rows equal the same rows of
the flat quantization, so the tier composes with
:class:`~repro.vectorstore.sharded.ShardedVectorStore` without changing any
candidate score.  With unit-norm rows the per-score error is well below the
typical top-k score gaps, so at modest re-rank factors the returned top-k is
empirically identical to the exact store's (recall@k = 1.0 — pinned by the
property suite); the contract invariants (true inner-product scores,
deterministic ordering, absolute exclusions) hold exactly because the
re-rank pass computes them exactly.

The store reports ``exhaustive = False``: its headline ``search_arrays``
results are approximate, so the query engine drives it through the masked
candidate API (like the forest) rather than the full-scan pool.  ``score_all``
stays exact — baselines that need true global scores read the compute-dtype
rows, never the int8 tier.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VectorStoreError
from repro.obs import trace_span
from repro.vectorstore.base import VectorStore, deterministic_top_k

_QUANT_LEVELS = 127
"""Symmetric int8 range: codes in [-127, 127] (-128 unused, keeping the
quantization symmetric so negating a vector negates its codes)."""


class QuantizedVectorStore(VectorStore):
    """Exact store wrapped in a symmetric per-row int8 candidate tier."""

    exhaustive = False

    def __init__(
        self,
        vectors: np.ndarray,
        rerank_factor: int = 4,
        compute_dtype: "np.dtype | str | None" = None,
    ) -> None:
        super().__init__(vectors, compute_dtype=compute_dtype)
        if rerank_factor < 1:
            raise VectorStoreError(
                f"rerank_factor must be >= 1, got {rerank_factor}"
            )
        # int32 accumulation holds dim * 127 * 127 per dot product; beyond
        # ~130k dimensions the worst case could wrap.
        if self.dim * _QUANT_LEVELS * _QUANT_LEVELS > np.iinfo(np.int32).max:
            raise VectorStoreError(
                f"dimension {self.dim} overflows int32 accumulation"
            )
        self.rerank_factor = int(rerank_factor)
        matrix = self._vectors
        # Per-row symmetric scales: row_i ~= codes_i * row_scales_i.  A
        # zero row gets scale 1 so its codes (all zero) stay exact.
        scales = np.abs(matrix).max(axis=1) / _QUANT_LEVELS
        scales[scales == 0.0] = 1.0
        self._row_scales = scales.astype(self.compute_dtype)
        self._codes = np.round(matrix / scales[:, None]).astype(np.int8)

    # ------------------------------------------------------------------
    # quantized scoring
    # ------------------------------------------------------------------
    def quantized_scores(self, query: np.ndarray) -> np.ndarray:
        """Approximate inner products from the int8 tier (candidate pass).

        One int32-accumulated GEMM over the codes plus a per-row rescale;
        exposed for the throughput benchmark and recall diagnostics.
        """
        query = self._check_query(query)
        return self._approximate_scores(query)

    def _approximate_scores(self, query: np.ndarray) -> np.ndarray:
        query_scale = float(np.abs(query).max()) / _QUANT_LEVELS
        if query_scale == 0.0:
            return np.zeros(len(self), dtype=self.compute_dtype)
        query_codes = np.round(query / query_scale).astype(np.int8)
        # dtype=np.int32 makes einsum accumulate in int32 without an up-cast
        # copy of the int8 matrix — the whole point of the tier is that the
        # candidate pass streams 1 byte per weight.
        raw = np.einsum("ij,j->i", self._codes, query_codes, dtype=np.int32)
        rescale = self._row_scales * self.compute_dtype.type(query_scale)
        return raw.astype(self.compute_dtype) * rescale

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        if k < 1:
            raise VectorStoreError(f"k must be >= 1, got {k}")
        query = self._check_query(query)
        approximate = self._approximate_scores(query)
        if exclude_mask is not None:
            approximate[exclude_mask] = -np.inf
        ids = np.arange(len(self), dtype=np.int64)
        fetch = min(len(self), self.rerank_factor * k)
        candidates = deterministic_top_k(approximate, ids, fetch)
        candidates = candidates[np.isfinite(approximate[candidates])]
        if candidates.size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=self.compute_dtype)
        # Exact re-rank: true inner products in the compute dtype, selected
        # and ordered with the same deterministic rule as the exact store.
        with trace_span("rerank", candidates=int(candidates.size)):
            exact = self._vectors[candidates] @ query
            top = deterministic_top_k(exact, candidates, min(k, candidates.size))
            return candidates[top], exact[top]
