"""The fused SeeSaw loss and the lean L-BFGS loop are bit-identical to the code they replaced.

The reference below is a frozen copy of the per-term loss (masked sigmoid,
``weighted_log_loss``, a zeroed gradient accumulator) and of the L-BFGS loop
that recomputed the accepted step, ``gamma`` and the gradient norm.  The new
code must give the same value and gradient bytes at every point, and whole
SeeSaw and few-shot sessions must give the same query-vector bytes,
iteration counts and evaluation counts, round by round.  GEMV results can
depend on the BLAS thread count, so CI runs this file at one and at two
OpenBLAS threads.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.few_shot import FewShotClipMethod
from repro.bench.simulate import OracleUser
from repro.config import LossWeights, OptimizerConfig, SeeSawConfig
from repro.core.aligner import SeeSawQueryAligner
from repro.core.indexing import SeeSawIndex
from repro.core.loss import SeeSawLoss
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.data import load_dataset
from repro.embedding import SyntheticClip
from repro.exceptions import ConfigurationError, OptimizationError
from repro.optim.lbfgs import LbfgsResult, lbfgs_minimize
from repro.utils.linalg import normalize_rows, normalize_vector


# ----------------------------------------------------------------------
# the frozen reference
# ----------------------------------------------------------------------
_EPSILON = 1e-12
HISTORY_SIZE = 10
INITIAL_STEP = 1.0
ARMIJO_C1 = 1e-4
MAX_LINE_SEARCH_STEPS = 25


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exponent = np.exp(values[~positive])
    out[~positive] = exponent / (1.0 + exponent)
    return out


def weighted_log_loss(
    labels: np.ndarray, probabilities: np.ndarray, sample_weights: np.ndarray
) -> float:
    """Binary cross-entropy with a non-negative weight per example."""
    probabilities = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
    labels = np.asarray(labels, dtype=np.float64)
    per_example = -(
        labels * np.log(probabilities) + (1.0 - labels) * np.log(1.0 - probabilities)
    )
    return float(np.sum(sample_weights * per_example))


class ReferenceLoss:
    """The loss's state as its constructor prepared it, and its ``__call__``."""

    def __init__(self, features, labels, query_text_vector, db_matrix, weights, fit_bias, sample_weights):
        self.features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        self.labels = np.asarray(labels, dtype=np.float64).ravel()
        if sample_weights is None:
            self.sample_weights = np.ones_like(self.labels)
        else:
            self.sample_weights = np.asarray(sample_weights, dtype=np.float64).ravel()
        self.query_text_vector = np.asarray(query_text_vector, dtype=np.float64).ravel()
        self.dim = self.query_text_vector.shape[0]
        self.weights = weights
        self.fit_bias = fit_bias
        self.db_matrix = None if db_matrix is None else (db_matrix + db_matrix.T) / 2.0

    def split_parameters(self, parameters):
        parameters = np.asarray(parameters, dtype=np.float64).ravel()
        if self.fit_bias:
            return parameters[:-1], float(parameters[-1])
        return parameters, 0.0

    def __call__(self, parameters: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss value and gradient with respect to the flat parameter vector."""
        w, b = self.split_parameters(parameters)
        norm = float(np.linalg.norm(w))
        norm = max(norm, _EPSILON)
        gradient_w = np.zeros_like(w)
        gradient_b = 0.0
        value = 0.0

        if self.features.size:
            logits = self.features @ w + b
            probabilities = sigmoid(logits)
            value += weighted_log_loss(self.labels, probabilities, self.sample_weights)
            error = self.sample_weights * (probabilities - self.labels)
            gradient_w += self.features.T @ error
            gradient_b += float(np.sum(error))

        value += self.weights.lambda_norm * float(w @ w)
        gradient_w += 2.0 * self.weights.lambda_norm * w

        if self.weights.lambda_clip > 0:
            inner = float(w @ self.query_text_vector)
            cosine = inner / norm
            value += self.weights.lambda_clip * (1.0 - cosine)
            gradient_w += self.weights.lambda_clip * (
                -self.query_text_vector / norm + inner * w / norm**3
            )

        if self.db_matrix is not None and self.weights.lambda_db > 0:
            mw = self.db_matrix @ w
            quadratic = float(w @ mw) / (norm * norm)
            value += self.weights.lambda_db * quadratic
            gradient_w += self.weights.lambda_db * 2.0 * (mw - quadratic * w) / (norm * norm)

        if self.fit_bias:
            gradient = np.concatenate([gradient_w, [gradient_b]])
        else:
            gradient = gradient_w
        return float(value), gradient


def _two_loop_direction(gradient, s_history, y_history, rho_history):
    """Compute the L-BFGS search direction via the two-loop recursion."""
    q = gradient.copy()
    alphas: list[float] = []
    for s, y, rho in zip(reversed(s_history), reversed(y_history), reversed(rho_history)):
        alpha = rho * float(s @ q)
        alphas.append(alpha)
        q -= alpha * y
    if s_history:
        s_last = s_history[-1]
        y_last = y_history[-1]
        gamma = float(s_last @ y_last) / max(float(y_last @ y_last), 1e-12)
        q *= gamma
    for (s, y, rho), alpha in zip(
        zip(s_history, y_history, rho_history), reversed(alphas)
    ):
        beta = rho * float(y @ q)
        q += (alpha - beta) * s
    return -q


def _armijo_line_search(objective, parameters, value, gradient, direction):
    """Armijo backtracking: halve the step until it gives sufficient decrease."""
    directional = float(gradient @ direction)
    if directional >= 0:
        raise OptimizationError("line search called with a non-descent direction")
    step = INITIAL_STEP
    evaluations = 0
    for _ in range(MAX_LINE_SEARCH_STEPS):
        candidate = parameters + step * direction
        candidate_value, candidate_gradient = objective(candidate)
        evaluations += 1
        if candidate_value <= value + ARMIJO_C1 * step * directional:
            return step, candidate_value, candidate_gradient, evaluations
        step *= 0.5
    return 0.0, value, gradient, evaluations


def reference_lbfgs_minimize(objective, initial_parameters, config=None) -> LbfgsResult:
    """Minimise ``objective`` starting from ``initial_parameters``."""
    config = config or OptimizerConfig()
    parameters = np.array(initial_parameters, dtype=np.float64, copy=True)
    value, gradient = objective(parameters)
    if not np.isfinite(value) or not np.all(np.isfinite(gradient)):
        raise OptimizationError("objective returned non-finite value or gradient")
    evaluations = 1
    s_history: deque[np.ndarray] = deque(maxlen=HISTORY_SIZE)
    y_history: deque[np.ndarray] = deque(maxlen=HISTORY_SIZE)
    rho_history: deque[float] = deque(maxlen=HISTORY_SIZE)

    iteration = 0
    converged = float(np.linalg.norm(gradient)) <= config.gradient_tolerance
    while iteration < config.max_iterations and not converged:
        direction = _two_loop_direction(gradient, s_history, y_history, rho_history)
        if float(gradient @ direction) >= 0:
            s_history.clear()
            y_history.clear()
            rho_history.clear()
            direction = -gradient
        step, new_value, new_gradient, line_evaluations = _armijo_line_search(
            objective, parameters, value, gradient, direction
        )
        evaluations += line_evaluations
        iteration += 1
        if step == 0.0:
            break
        new_parameters = parameters + step * direction
        s = new_parameters - parameters
        y = new_gradient - gradient
        sy = float(s @ y)
        if sy > 1e-12:
            s_history.append(s)
            y_history.append(y)
            rho_history.append(1.0 / sy)
        parameters, value, gradient = new_parameters, new_value, new_gradient
        converged = float(np.linalg.norm(gradient)) <= config.gradient_tolerance
    return LbfgsResult(
        parameters=parameters,
        value=value,
        gradient_norm=float(np.linalg.norm(gradient)),
        iterations=iteration,
        converged=converged,
        function_evaluations=evaluations,
    )


def assert_same_evaluation(actual, expected):
    (value, gradient), (want_value, want_gradient) = actual, expected
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert gradient.dtype == want_gradient.dtype and gradient.shape == want_gradient.shape
    assert gradient.tobytes() == want_gradient.tobytes()


def assert_same_result(actual: LbfgsResult, expected: LbfgsResult):
    assert actual.parameters.tobytes() == expected.parameters.tobytes()
    assert np.float64(actual.value).tobytes() == np.float64(expected.value).tobytes()
    assert actual.gradient_norm == expected.gradient_norm
    assert (actual.iterations, actual.converged, actual.function_evaluations) == (
        expected.iterations,
        expected.converged,
        expected.function_evaluations,
    )


# ----------------------------------------------------------------------
# the loss and the optimiser at random points
# ----------------------------------------------------------------------
SPECIAL_LOGITS = (0.0, -0.0, 700.0, -700.0, 800.0, -800.0)
"""Logits where the sigmoid saturates (exp over- and underflows at +-745) or
sits on its branch point."""


@st.composite
def problems(draw):
    rows = draw(st.sampled_from([0, 1, 7, 114, 700, 1320]))
    dim = draw(st.sampled_from([12, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = normalize_rows(rng.standard_normal((rows, dim)))
    # Rows t * e_0 with w_0 = 1 put the logit at exactly t (bias aside).
    special = rng.random(rows) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    features[special] = 0.0
    features[special, 0] = rng.choice(SPECIAL_LOGITS, size=int(special.sum()))
    labels = (rng.random(rows) < 0.4).astype(np.float64)
    query = normalize_vector(rng.standard_normal(dim))
    raw = rng.standard_normal((dim, dim))
    db_matrix = raw @ raw.T / 100.0 if draw(st.booleans()) else None
    weights = LossWeights(
        lambda_norm=draw(st.sampled_from([0.0, 1.0, 3.7])),
        lambda_clip=draw(st.sampled_from([0.0, 1.0, 2.5])),
        lambda_db=draw(st.sampled_from([0.0, 30.0])),
    )
    fit_bias = draw(st.booleans())
    sample_weights = None
    if draw(st.booleans()):
        sample_weights = 1.0 / rng.integers(1, 30, size=rows)
        sample_weights[rng.random(rows) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    point = rng.standard_normal(dim) * draw(st.sampled_from([0.05, 1.0]))
    point[0] = 1.0
    if draw(st.booleans()):
        point[1:] = 0.0  # every logit is exactly 0 or a special value
    if fit_bias:
        point = np.append(point, draw(st.sampled_from([0.0, -0.0, 0.3, -2.0])))
    args = (features, labels, query, db_matrix, weights, fit_bias, sample_weights)
    return args, point


@settings(max_examples=150, deadline=None)
@given(problem=problems())
def test_value_and_gradient_bytes_equal_the_reference(problem):
    args, point = problem
    loss = SeeSawLoss(*args)
    assert_same_evaluation(loss(point), ReferenceLoss(*args)(point))


@settings(max_examples=40, deadline=None)
@given(problem=problems())
def test_minimisation_equals_the_reference(problem):
    args, point = problem
    loss = SeeSawLoss(*args)
    config = OptimizerConfig(max_iterations=30)
    assert_same_result(
        lbfgs_minimize(loss, point, config),
        reference_lbfgs_minimize(ReferenceLoss(*args), point, config),
    )


@pytest.mark.parametrize("rows", [0, 1, 2])
@pytest.mark.parametrize("fit_bias", [False, True])
def test_signed_zeros_equal_the_reference(rows, fit_bias):
    """Weightless rows and zero lambdas make -0.0 products; the sums they
    reach must keep the reference's signs."""
    features = np.array([[-0.5, 0.25], [0.0, -1.0]])[:rows]
    point = np.array([-1.0, 2.0, -0.0] if fit_bias else [-1.0, 2.0])
    args = (features, np.ones(rows), normalize_vector(np.ones(2)), None, LossWeights(0.0, 0.0, 0.0))
    assert_same_evaluation(
        SeeSawLoss(*args, fit_bias, np.zeros(rows))(point),
        ReferenceLoss(*args, fit_bias, np.zeros(rows))(point),
    )


def test_a_label_that_is_not_zero_or_one_is_rejected():
    features = normalize_rows(np.random.default_rng(0).standard_normal((3, 4)))
    query = normalize_vector(np.ones(4))
    for labels in ([1.0, 0.5, 0.0], [1.0, 2.0, 0.0], [0.0, -1.0, 1.0], [1.0, np.nan, 0.0]):
        with pytest.raises(OptimizationError):
            SeeSawLoss(features, np.asarray(labels), query)


def test_align_rejects_non_finite_features_up_front():
    features = normalize_rows(np.random.default_rng(0).standard_normal((3, 4)))
    features[1, 2] = np.nan
    aligner = SeeSawQueryAligner(normalize_vector(np.ones(4)))
    with pytest.raises(ConfigurationError, match="features contains NaN or infinite values"):
        aligner.align(features, np.array([1.0, 0.0, 1.0]))


# ----------------------------------------------------------------------
# whole sessions, round by round
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["graph", "no-graph"])
def bdd_index(request) -> SeeSawIndex:
    """bdd at size_scale 0.15, with its kNN graph and M_D or without them."""
    dataset = load_dataset("bdd", seed=0, size_scale=0.15)
    embedding = SyntheticClip.for_dataset(dataset, dim=128, seed=0)
    graph = request.param == "graph"
    index = SeeSawIndex.build(dataset, embedding, SeeSawConfig(), build_graph=graph)
    assert (index.db_matrix is not None) == graph
    return index


def reference_align(aligner, features, labels, sample_weights, start):
    """The query vector, iterations and evaluations of the replaced code."""
    loss = ReferenceLoss(
        features,
        labels,
        aligner.query_text_vector,
        aligner.db_matrix,
        aligner._effective_weights(),
        aligner.config.fit_bias,
        sample_weights,
    )
    parameters = np.concatenate([start, [0.0]]) if aligner.config.fit_bias else start.copy()
    outcome = reference_lbfgs_minimize(loss, parameters, aligner.config.optimizer)
    weight_vector, _ = loss.split_parameters(outcome.parameters)
    aligned = normalize_vector(weight_vector)
    if not np.any(aligned):
        aligned = aligner.current_query_vector
    return aligned.tobytes(), outcome.iterations, outcome.function_evaluations


@pytest.mark.parametrize("method", [SeeSawSearchMethod, FewShotClipMethod])
def test_sessions_equal_the_reference_round_by_round(bdd_index, method, monkeypatch):
    rounds = []
    align = SeeSawQueryAligner.align

    def checked(self, features, labels, optimizer_config=None, sample_weights=None):
        start = self._scaled_start()
        expected = reference_align(self, features, labels, sample_weights, start)
        result = align(self, features, labels, optimizer_config, sample_weights)
        rounds.append(
            (
                (result.query_vector.tobytes(), result.iterations, result.function_evaluations),
                expected,
            )
        )
        return result

    monkeypatch.setattr(SeeSawQueryAligner, "align", checked)
    for category in bdd_index.dataset.category_names[:4]:
        session = SearchSession(bdd_index, method(), category, batch_size=10)
        user = OracleUser(bdd_index.dataset, category)
        for _ in range(5):
            for result in session.next_batch():
                judgement = user.judge(result.image_id)
                session.give_feedback(result.image_id, judgement.relevant, judgement.boxes)
    assert len(rounds) >= 12
    assert all(result[1] > 0 for result, _ in rounds)
    for actual, expected in rounds:
        assert actual == expected

