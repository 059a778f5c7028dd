"""Label propagation and the collapsed DB-alignment matrix (§4.2).

Two pieces live here:

* :func:`propagate_labels` — the Zhu & Ghahramani label-propagation algorithm
  over the kNN graph.  It is the conceptual starting point of DB alignment
  and also powers the "SeeSaw prop." latency/accuracy comparison (Table 6).
* :func:`compute_db_alignment_matrix` — the once-per-dataset precomputation of
  ``M_D = X_D^T (D - W) X_D``, the d x d matrix that lets SeeSaw apply the
  same smoothness pressure as propagation without touching the full database
  at query time.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import IndexingError
from repro.knng.graph import KnnGraph
from repro.utils.linalg import ensure_dtype

_BLOCK_ROWS = 512
"""Rows of ``(D - W) X`` summed at a time, so the product's two buffers
besides its result are ``_BLOCK_ROWS x d``."""


def _laplacian_product(graph: KnnGraph, vectors: np.ndarray) -> np.ndarray:
    """``(D - W) @ vectors`` with the bits of scipy's CSR product.

    Each row starts at zero and adds its terms (``-w_ij x_j``, and ``d_i x_i``
    at column ``i``) one at a time in ascending column order, as scipy does.
    A block's rows go by decreasing term count, so the rows adding a
    ``step``-th term are a prefix and each step runs on contiguous buffers.
    Rows of any other float dtype are widened to float64 as they are
    gathered, which gives the bits of a float64 copy without holding one.
    """
    indptr, indices, weights, degrees = graph.csr()
    count, dim = vectors.shape
    nodes = np.arange(count)
    # D - W in CSR form: every row gains its diagonal (W has no self-edges).
    rows = np.concatenate([np.repeat(nodes, np.diff(indptr)), nodes])
    columns = np.concatenate([indices, nodes])
    order = np.lexsort((columns, rows))
    columns, values = columns[order], np.concatenate([-weights, degrees])[order]
    starts = indptr + np.arange(count + 1)
    lengths = np.diff(starts)

    product = np.empty((count, dim))
    sums, terms = np.empty((2, min(count, _BLOCK_ROWS), dim))
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(count, start + _BLOCK_ROWS)
        block = start + np.argsort(-lengths[start:stop], kind="stable")
        firsts, remaining = starts[block], lengths[block]
        sums[:] = 0.0
        for step in range(remaining[0]):
            live = np.count_nonzero(remaining > step)
            positions = firsts[:live] + step
            if vectors.dtype == np.float64:
                np.take(vectors, columns[positions], axis=0, out=terms[:live], mode="clip")
            else:
                terms[:live] = vectors[columns[positions]]
            terms[:live] *= values[positions, None]
            sums[:live] += terms[:live]
        product[block] = sums[: stop - start]
    return product


def compute_db_alignment_matrix(
    vectors: np.ndarray,
    graph: KnnGraph,
    normalize_by_count: bool = True,
) -> np.ndarray:
    """Compute ``M_D = X^T (D - W) X`` from the database vectors and kNN graph.

    Parameters
    ----------
    vectors:
        ``(count, d)`` matrix of database vectors ``X_D``.
    graph:
        The kNN graph built over the same vectors.
    normalize_by_count:
        When true the matrix is divided by the number of vectors, turning the
        sum over graph edges into a mean.  The paper leaves the scaling
        implicit in ``lambda_DB``; normalising keeps the reported
        ``lambda_DB = 1000`` meaningful across database sizes.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise IndexingError("vectors must be 2-d (count x dim)")
    if vectors.shape[0] != graph.node_count:
        raise IndexingError(
            f"graph has {graph.node_count} nodes but {vectors.shape[0]} vectors were given"
        )
    product = _laplacian_product(graph, vectors)
    # Widened only now, so a float32 corpus's float64 copy never sits beside
    # the product's block buffers.  One GEMM over the whole product: row
    # blocks would change its summation order, and so the bits of M_D.
    matrix = ensure_dtype(vectors, np.float64).T @ product
    if normalize_by_count:
        matrix = matrix / float(vectors.shape[0])
    # Numerical symmetrisation; the Laplacian is symmetric so M_D should be.
    return (matrix + matrix.T) / 2.0


def smoothness_penalty(matrix: np.ndarray, query: np.ndarray) -> float:
    """Evaluate ``(w/|w|)^T M_D (w/|w|)`` — the DB-alignment penalty of a query."""
    query = np.asarray(query, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(query))
    if norm == 0.0:
        return 0.0
    unit = query / norm
    return float(unit @ (np.asarray(matrix, dtype=np.float64) @ unit))


def propagate_labels(
    graph: KnnGraph,
    labeled: "dict[int, float]",
    iterations: int = 30,
    tolerance: float = 1e-5,
    prior: "np.ndarray | None" = None,
) -> np.ndarray:
    """Propagate a handful of labels over the kNN graph (Zhu & Ghahramani).

    Labelled nodes are clamped to their labels on every iteration; unlabelled
    nodes repeatedly take the weighted average of their neighbours.  Returns a
    soft label in [0, 1] for every node.

    Parameters
    ----------
    graph:
        The kNN graph over the database vectors.
    labeled:
        Mapping from node index to its observed label (0 or 1).
    iterations:
        Maximum number of propagation sweeps.
    tolerance:
        Early-stopping threshold on the largest per-node change.
    prior:
        Optional initial score per node (for example calibrated CLIP scores);
        defaults to 0.5 for unlabelled nodes.
    """
    count = graph.node_count
    if prior is None:
        scores = np.full(count, 0.5, dtype=np.float64)
    else:
        scores = np.asarray(prior, dtype=np.float64).copy()
        if scores.shape[0] != count:
            raise IndexingError("prior must have one entry per graph node")
    labeled_ids = np.array(sorted(labeled), dtype=np.int64)
    if labeled_ids.size and (labeled_ids.min() < 0 or labeled_ids.max() >= count):
        raise IndexingError("labeled node index out of range")
    labeled_values = np.array([labeled[int(i)] for i in labeled_ids], dtype=np.float64)

    # A sweep is D^{-1} W s; an isolated node's degree is taken as 1.  The
    # package imports scipy here only.
    from scipy import sparse

    indptr, indices, weights, degrees = graph.csr()
    adjacency = sparse.csr_matrix((weights, indices, indptr), shape=(count, count))
    inverse_degrees = 1.0 / np.where(degrees == 0.0, 1.0, degrees)

    scores[labeled_ids] = labeled_values
    for _ in range(iterations):
        updated = adjacency @ scores
        updated *= inverse_degrees
        updated[labeled_ids] = labeled_values
        change = float(np.max(np.abs(updated - scores))) if count else 0.0
        scores = updated
        if change < tolerance:
            break
    return np.clip(scores, 0.0, 1.0)
