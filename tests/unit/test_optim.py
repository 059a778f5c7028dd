"""Tests for the from-scratch L-BFGS optimiser."""

import numpy as np
import pytest

from repro.config import OptimizerConfig
from repro.exceptions import OptimizationError
from repro.optim import lbfgs
from repro.optim.lbfgs import lbfgs_minimize
from repro.optim.objective import numerical_gradient


def quadratic(center: np.ndarray, scales: np.ndarray):
    """A separable convex quadratic with known minimiser."""

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        diff = x - center
        value = float(0.5 * np.sum(scales * diff**2))
        return value, scales * diff

    return objective


class TestLbfgs:
    def test_minimises_quadratic(self):
        center = np.array([1.0, -2.0, 3.0])
        scales = np.array([1.0, 10.0, 100.0])
        result = lbfgs_minimize(quadratic(center, scales), np.zeros(3))
        assert result.converged
        assert np.allclose(result.parameters, center, atol=1e-4)

    def test_minimises_rosenbrock(self):
        def rosenbrock(x: np.ndarray) -> tuple[float, np.ndarray]:
            a, b = 1.0, 100.0
            value = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
            grad = np.array(
                [
                    -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                    2 * b * (x[1] - x[0] ** 2),
                ]
            )
            return float(value), grad

        # The backtracking-only line search converges more slowly than a
        # strong-Wolfe search on this classic ill-conditioned valley, so it
        # gets a generous iteration budget (the SeeSaw loss needs far fewer).
        config = OptimizerConfig(max_iterations=1000, gradient_tolerance=1e-8)
        result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), config)
        assert np.allclose(result.parameters, [1.0, 1.0], atol=1e-3)

    def test_converges_faster_than_iteration_cap(self):
        result = lbfgs_minimize(quadratic(np.ones(5), np.ones(5)), np.zeros(5))
        assert result.iterations < 20

    def test_logistic_regression_objective(self, rng):
        true_w = np.array([2.0, -1.0, 0.5])
        features = rng.standard_normal((200, 3))
        labels = (features @ true_w + 0.1 * rng.standard_normal(200) > 0).astype(float)

        def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
            logits = features @ w
            probabilities = 1.0 / (1.0 + np.exp(-logits))
            value = -np.sum(
                labels * np.log(probabilities + 1e-12)
                + (1 - labels) * np.log(1 - probabilities + 1e-12)
            ) + 0.5 * np.sum(w**2)
            grad = features.T @ (probabilities - labels) + w
            return float(value), grad

        result = lbfgs_minimize(objective, np.zeros(3), OptimizerConfig(max_iterations=100))
        predictions = (features @ result.parameters > 0).astype(float)
        assert np.mean(predictions == labels) > 0.9

    def test_non_finite_objective_rejected(self):
        def bad(x: np.ndarray) -> tuple[float, np.ndarray]:
            return float("nan"), x

        with pytest.raises(OptimizationError):
            lbfgs_minimize(bad, np.zeros(2))

    def test_initial_parameters_not_mutated(self):
        start = np.array([5.0, 5.0])
        lbfgs_minimize(quadratic(np.zeros(2), np.ones(2)), start)
        assert np.allclose(start, [5.0, 5.0])

    def test_already_converged(self):
        result = lbfgs_minimize(quadratic(np.zeros(2), np.ones(2)), np.zeros(2))
        assert result.converged
        assert result.iterations == 0

    def test_line_search_gives_up_after_its_halvings(self):
        """A gradient that promises a decrease no step delivers: the line
        search tries its first step and every halving, then stops."""
        start = np.zeros(2)
        steps: "list[float]" = []

        def misleading(x: np.ndarray) -> tuple[float, np.ndarray]:
            if not np.array_equal(x, start):
                steps.append(float(-x[0]))
            return (0.0 if np.array_equal(x, start) else 1.0), np.ones(2)

        result = lbfgs_minimize(misleading, start)
        assert result.iterations == 1
        assert not result.converged
        assert result.function_evaluations == 1 + lbfgs.MAX_LINE_SEARCH_STEPS
        assert steps[0] == lbfgs.INITIAL_STEP
        assert steps[-1] == lbfgs.INITIAL_STEP * 0.5 ** (lbfgs.MAX_LINE_SEARCH_STEPS - 1)
        assert np.array_equal(result.parameters, start)


class TestNumericalGradient:
    def test_matches_analytic_gradient(self):
        objective = quadratic(np.array([0.5, -0.5]), np.array([2.0, 3.0]))
        point = np.array([1.0, 1.0])
        _, analytic = objective(point)
        numeric = numerical_gradient(objective, point)
        assert np.allclose(analytic, numeric, atol=1e-5)
