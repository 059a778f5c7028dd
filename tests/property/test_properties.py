"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import LossWeights
from repro.core.loss import SeeSawLoss
from repro.data.geometry import BoundingBox
from repro.metrics import average_precision_at_cutoff, average_precision_full
from repro.optim.objective import numerical_gradient
from repro.utils.linalg import normalize_rows, normalize_vector
from repro.vectorstore.exact import ExactVectorStore

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=0.5, max_value=500.0, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------
boxes = st.builds(
    BoundingBox,
    x=st.floats(min_value=-100, max_value=100, allow_nan=False),
    y=st.floats(min_value=-100, max_value=100, allow_nan=False),
    width=positive_floats,
    height=positive_floats,
)


@given(boxes, boxes)
def test_intersection_is_symmetric(a: BoundingBox, b: BoundingBox) -> None:
    assert a.intersection(b) == b.intersection(a)


@given(boxes, boxes)
def test_iou_bounds_and_symmetry(a: BoundingBox, b: BoundingBox) -> None:
    iou = a.iou(b)
    assert 0.0 <= iou <= 1.0 + 1e-9
    assert iou == b.iou(a)


@given(boxes)
def test_self_iou_is_one(a: BoundingBox) -> None:
    assert a.iou(a) == pytest.approx(1.0, abs=1e-9)


@given(boxes, boxes)
def test_intersection_bounded_by_each_area(a: BoundingBox, b: BoundingBox) -> None:
    inter = a.intersection(b)
    assert inter <= a.area + 1e-9
    assert inter <= b.area + 1e-9


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------
vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=32),
    elements=finite_floats,
)


@given(vectors)
def test_normalize_vector_is_unit_or_zero(vector: np.ndarray) -> None:
    normalized = normalize_vector(vector)
    norm = np.linalg.norm(normalized)
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 10), st.integers(2, 16)),
        elements=finite_floats,
    )
)
def test_normalize_rows_preserves_shape(matrix: np.ndarray) -> None:
    normalized = normalize_rows(matrix)
    assert normalized.shape == matrix.shape
    norms = np.linalg.norm(normalized, axis=1)
    # Rows are either unit norm or left (nearly) untouched because their norm
    # falls below the normalisation epsilon.
    assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms < 1e-6))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
@given(
    st.lists(st.booleans(), min_size=0, max_size=80),
    st.integers(min_value=0, max_value=200),
)
def test_cutoff_ap_is_bounded(relevance: list[bool], total_relevant: int) -> None:
    ap = average_precision_at_cutoff(relevance, total_relevant=total_relevant)
    assert 0.0 <= ap <= 1.0


@given(st.lists(st.booleans(), min_size=1, max_size=60), st.integers(1, 100))
def test_prepending_a_positive_never_hurts(relevance: list[bool], total_relevant: int) -> None:
    base = average_precision_at_cutoff(relevance, total_relevant=total_relevant)
    improved = average_precision_at_cutoff([True] + relevance, total_relevant=total_relevant)
    assert improved >= base - 1e-12


@given(
    hnp.arrays(dtype=np.float64, shape=st.integers(2, 40), elements=finite_floats),
    st.data(),
)
def test_full_ap_invariant_to_score_scaling(scores: np.ndarray, data) -> None:
    labels = np.array(
        data.draw(st.lists(st.booleans(), min_size=scores.size, max_size=scores.size)),
        dtype=float,
    )
    ap = average_precision_full(scores, labels)
    scaled = average_precision_full(scores * 3.0 + 0.0, labels)
    assert 0.0 <= ap <= 1.0
    assert abs(ap - scaled) < 1e-9


# ---------------------------------------------------------------------------
# exact vector store vs numpy reference
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=25)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(3, 40), st.integers(2, 12)),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
    st.integers(min_value=1, max_value=10),
)
def test_exact_store_matches_numpy_argsort(matrix: np.ndarray, k: int) -> None:
    # Rows that normalise to zero are acceptable; the store keeps them as zeros.
    store = ExactVectorStore(matrix)
    query = normalize_vector(matrix[0]) if np.any(matrix[0]) else np.ones(matrix.shape[1])
    query = normalize_vector(query)
    _, hit_scores = store.search_arrays(query, k=min(k, matrix.shape[0]))
    scores = store.vectors @ query
    best_scores = np.sort(scores)[::-1][: len(hit_scores)]
    assert np.allclose(np.sort(hit_scores)[::-1], best_scores, atol=1e-9)


# ---------------------------------------------------------------------------
# loss gradients
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_loss_gradient_matches_numerical(
    examples: int,
    dim: int,
    lambda_norm: float,
    lambda_clip: float,
    lambda_db: float,
    seed: int,
) -> None:
    rng = np.random.default_rng(seed)
    features = normalize_rows(rng.standard_normal((examples, dim)))
    labels = (rng.random(examples) < 0.5).astype(float)
    query = normalize_vector(rng.standard_normal(dim))
    raw = rng.standard_normal((dim, dim))
    db_matrix = raw @ raw.T / 50.0
    loss = SeeSawLoss(
        features,
        labels,
        query,
        db_matrix,
        LossWeights(lambda_norm, lambda_clip, lambda_db),
    )
    point = normalize_vector(rng.standard_normal(dim)) * 0.8
    _, analytic = loss(point)
    numeric = numerical_gradient(loss, point, step=1e-6)
    assert np.allclose(analytic, numeric, atol=2e-3, rtol=1e-3)
