"""Vector-math helpers shared across the embedding, store, and core modules.

The whole system operates on unit-norm vectors whose relevance is an inner
product (equivalently a cosine similarity), exactly as in the paper, so these
helpers centralise normalisation and similarity computations.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng

_EPSILON = 1e-12

ZERO_NORM_EPSILON = _EPSILON
"""Rows/vectors with an L2 norm below this are treated as zero: the
normalisation helpers preserve them verbatim instead of dividing, and the
canonical-form checks count them as already normalised."""

COMPUTE_DTYPES: "tuple[np.dtype, ...]" = (np.dtype(np.float64), np.dtype(np.float32))
"""The floating dtypes the scoring hot path may run in.

``float64`` is the bit-parity reference every equivalence guarantee in this
repo is stated against; ``float32`` halves the bytes every score streams
through memory and doubles effective GEMM throughput, at ~1e-7 relative
rounding.  Everything else (inputs arriving as python lists, integer arrays,
half precision) is promoted to ``float64`` at a store boundary.
"""


def resolve_compute_dtype(dtype: "np.dtype | str | type | None") -> np.dtype:
    """The validated compute dtype for ``dtype`` (``None`` means ``float64``)."""
    if dtype is None:
        return np.dtype(np.float64)
    resolved = np.dtype(dtype)
    if resolved not in COMPUTE_DTYPES:
        raise ValueError(
            f"compute dtype must be one of {[d.name for d in COMPUTE_DTYPES]}, "
            f"got '{resolved.name}'"
        )
    return resolved


def unit_norm_tolerance(dtype: "np.dtype | type") -> float:
    """How far from 1.0 a row norm may sit and still count as unit.

    Scaled to the dtype's precision: re-dividing a row whose norm is 1±ulp
    would change its bits, so the tolerance must be loose enough to recognise
    rows that were normalised in this dtype (or normalised in a wider dtype
    and cast down) and tight enough to catch genuinely unnormalised data.
    """
    return 1e-6 if np.dtype(dtype) == np.float32 else 1e-12


def has_canonical_rows(matrix: np.ndarray) -> bool:
    """True when every row is unit within :func:`unit_norm_tolerance` or
    (near-)zero, the form :func:`normalize_rows` gives, so callers can adopt
    the rows bit-exact.  ``einsum`` takes the norms without an ``x * x`` copy.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    canonical = (np.abs(norms - 1.0) < unit_norm_tolerance(matrix.dtype)) | (
        norms < ZERO_NORM_EPSILON
    )
    return bool(canonical.all())


def ensure_dtype(array: np.ndarray, dtype: "np.dtype | type") -> np.ndarray:
    """Return ``array`` in ``dtype`` — the same object when already there.

    The hot-path alternative to ``np.asarray(array, dtype=...)`` sprinkled at
    every boundary: conversion happens at most once, and an array already in
    the compute dtype flows through zero-copy by identity, which
    :func:`assert_no_copy` can then verify.
    """
    array = np.asarray(array)
    if array.dtype == np.dtype(dtype):
        return array
    return array.astype(dtype)


def assert_no_copy(source: np.ndarray, result: np.ndarray) -> np.ndarray:
    """Guard that a dtype pass-through really was zero-copy.

    Used at call sites where the caller *knows* ``source`` is already in the
    target dtype (the store converted it once at its boundary) and a silent
    conversion copy would mean a hot-path regression.  Returns ``result`` so
    the guard composes inline.
    """
    if result is not source and not np.shares_memory(result, source):
        raise AssertionError(
            "expected a zero-copy dtype pass-through but the array was copied "
            f"(source dtype {source.dtype}, result dtype {result.dtype})"
        )
    return result


def normalize_vector(vector: np.ndarray) -> np.ndarray:
    """Return ``vector`` scaled to unit L2 norm (zero vectors stay zero)."""
    vector = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vector))
    if norm < _EPSILON:
        return np.zeros_like(vector)
    return vector / norm


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` with each row scaled to unit L2 norm."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms < _EPSILON, 1.0, norms)
    return matrix / norms


_IN_PLACE_BLOCK_ROWS = 256
"""Rows :func:`unit_rows` normalises at a time in place, so its only
temporary is one block's squares."""


def unit_rows(matrix: np.ndarray, *, owned: bool = False) -> np.ndarray:
    """Rows at unit L2 norm, skipping the work (and the copy) when they already are.

    :func:`normalize_rows` always allocates and divides; callers on warm paths
    (kNN-graph construction over a store's already-normalised vectors, the
    exact scan re-checking its input) were paying a full-matrix
    copy per call for data that was unit norm all along.  Within the dtype's
    :func:`unit_norm_tolerance` the input is returned unchanged — same object,
    same bits — otherwise it is normalised in float64 and cast back.

    ``owned`` says nothing else holds ``matrix`` (the caller just made it): a
    float64 one is then divided in place, block by block, with the bits of
    :func:`normalize_rows` and no second copy.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype in COMPUTE_DTYPES and matrix.size and has_canonical_rows(matrix):
        return matrix
    if owned and matrix.dtype == np.float64:
        for start in range(0, matrix.shape[0], _IN_PLACE_BLOCK_ROWS):
            block = matrix[start : start + _IN_PLACE_BLOCK_ROWS]
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            block /= np.where(norms < _EPSILON, 1.0, norms)
        return matrix
    normalized = normalize_rows(matrix)
    if matrix.dtype in COMPUTE_DTYPES:
        normalized = ensure_dtype(normalized, matrix.dtype)
    return normalized


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom < _EPSILON:
        return 0.0
    return float(np.dot(a, b) / denom)


def dot_rows(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row-wise inner products of ``matrix`` with ``query``, shard-stable.

    ``matrix @ query`` delegates to BLAS ``gemv``, whose internal row
    blocking changes with the row count — scoring a row *slice* can differ
    from the same rows of a full scoring in the last bits.  ``np.einsum``
    contracts each row independently with the same reduction pattern
    regardless of how many rows are present, so

        ``dot_rows(M[a:b], q) == dot_rows(M, q)[a:b]``   (bit for bit)

    which is what lets :class:`~repro.vectorstore.sharded.ShardedVectorStore`
    guarantee bit-identical scores to an unsharded exact store.

    The tradeoff is explicit: einsum does not dispatch to BLAS, so unlike
    gemv it never multithreads and costs a modest single-kernel overhead
    (~15% on the engine benchmark's exact store).  That is the price of
    determinism — and parallelism is recovered *deterministically* by
    raising ``SeeSawConfig.n_shards``, which scores row slices of this same
    kernel on a thread pool instead of relying on BLAS's nondeterministic
    internal threading.
    """
    return np.einsum("ij,j->i", matrix, query)


def pairwise_inner(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """Inner products between each query row and each database row."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    database = np.asarray(database, dtype=np.float64)
    return queries @ database.T


def random_unit_vectors(
    count: int,
    dim: int,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Draw ``count`` unit vectors uniformly from the ``dim``-sphere."""
    rng = ensure_rng(seed)
    raw = rng.standard_normal(size=(count, dim))
    return normalize_rows(raw)


def rotate_towards(
    start: np.ndarray,
    target: np.ndarray,
    angle_radians: float,
) -> np.ndarray:
    """Rotate ``start`` towards ``target`` by ``angle_radians`` on the sphere.

    Used by the synthetic embedding to place a text vector at a controlled
    angular distance (the *alignment deficit*) from a concept direction.
    """
    start = normalize_vector(start)
    target = normalize_vector(target)
    # Component of target orthogonal to start defines the rotation plane.
    orthogonal = target - np.dot(target, start) * start
    orthogonal_norm = float(np.linalg.norm(orthogonal))
    if orthogonal_norm < _EPSILON:
        return start.copy()
    orthogonal = orthogonal / orthogonal_norm
    return normalize_vector(
        np.cos(angle_radians) * start + np.sin(angle_radians) * orthogonal
    )


def angular_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in radians between two vectors."""
    cosine = np.clip(cosine_similarity(a, b), -1.0, 1.0)
    return float(np.arccos(cosine))
