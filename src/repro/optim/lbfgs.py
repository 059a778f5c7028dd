"""Limited-memory BFGS with an Armijo backtracking line search.

The paper minimises its loss with PyTorch's L-BFGS (§4.4) because it
converges in a few tens of iterations without learning-rate tuning.  This
module provides the same capability from scratch: the classic two-loop
recursion over a bounded history of curvature pairs, with a line search that
halves the step until it gives sufficient decrease (the Armijo condition).
Curvature pairs with ``s·y`` too small to keep the inverse-Hessian estimate
positive definite are skipped.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.config import OptimizerConfig
from repro.exceptions import OptimizationError
from repro.optim.objective import ValueAndGradient

# Curvature pairs kept; a line search's first step, its Armijo
# sufficient-decrease constant, and the halvings it tries before giving up.
HISTORY_SIZE = 10
INITIAL_STEP = 1.0
ARMIJO_C1 = 1e-4
MAX_LINE_SEARCH_STEPS = 25


@dataclass
class LbfgsResult:
    """Outcome of one :func:`lbfgs_minimize` call."""

    parameters: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    converged: bool
    function_evaluations: int


@dataclass
class _CurvaturePair:
    """One ``(s, y)`` pair with the scalars the recursion reads: ``rho = 1/s.y``
    and, for the initial Hessian scale ``gamma``, ``s.y`` and ``y.y``."""

    s: np.ndarray
    y: np.ndarray
    sy: float
    yy: float
    rho: float


def _two_loop_direction(
    gradient: np.ndarray, history: "deque[_CurvaturePair]", scratch: np.ndarray
) -> np.ndarray:
    """Compute the L-BFGS search direction via the two-loop recursion."""
    q = gradient.copy()
    alphas: list[float] = []
    for pair in reversed(history):
        alpha = pair.rho * float(pair.s.dot(q))
        alphas.append(alpha)
        q -= np.multiply(alpha, pair.y, out=scratch)
    if history:
        last = history[-1]
        q *= last.sy / max(last.yy, 1e-12)
    for pair, alpha in zip(history, reversed(alphas)):
        beta = pair.rho * float(pair.y.dot(q))
        q += np.multiply(alpha - beta, pair.s, out=scratch)
    return np.negative(q, out=q)


def _armijo_line_search(
    objective: ValueAndGradient,
    parameters: np.ndarray,
    value: float,
    direction: np.ndarray,
    directional: float,
) -> "tuple[np.ndarray, float, np.ndarray, int] | None":
    """Armijo backtracking: halve the step until it gives sufficient decrease.

    The first step satisfying the Armijo condition (constant
    :data:`ARMIJO_C1`) along ``direction`` (whose slope is ``directional``
    = ``gradient . direction``) is accepted; no curvature condition is
    checked, which suits the smooth, low-dimensional SeeSaw loss.  Returns
    ``(candidate, new_value, new_gradient, evaluations)``, or ``None`` when
    no decrease was found within :data:`MAX_LINE_SEARCH_STEPS` halvings
    (which all count as evaluations).
    """
    step = INITIAL_STEP
    for evaluations in range(1, MAX_LINE_SEARCH_STEPS + 1):
        candidate = parameters + step * direction
        candidate_value, candidate_gradient = objective(candidate)
        if candidate_value <= value + ARMIJO_C1 * step * directional:
            return candidate, candidate_value, candidate_gradient, evaluations
        step *= 0.5
    return None


def _norm(vector: np.ndarray) -> float:
    """``np.linalg.norm(vector)``, which is ``sqrt(vector . vector)``."""
    return math.sqrt(vector.dot(vector))


def lbfgs_minimize(
    objective: ValueAndGradient,
    initial_parameters: np.ndarray,
    config: "OptimizerConfig | None" = None,
) -> LbfgsResult:
    """Minimise ``objective`` starting from ``initial_parameters``.

    Parameters
    ----------
    objective:
        Callable returning ``(value, gradient)`` for a parameter vector.
    initial_parameters:
        Starting point; not modified.
    config:
        Optimiser settings; defaults to :class:`OptimizerConfig`.
    """
    config = config or OptimizerConfig()
    parameters = np.array(initial_parameters, dtype=np.float64, copy=True)
    value, gradient = objective(parameters)
    if not np.isfinite(value) or not np.all(np.isfinite(gradient)):
        raise OptimizationError("objective returned non-finite value or gradient")
    evaluations = 1
    history: deque[_CurvaturePair] = deque(maxlen=HISTORY_SIZE)
    scratch = np.empty_like(parameters)

    iteration = 0
    converged = _norm(gradient) <= config.gradient_tolerance
    while iteration < config.max_iterations and not converged:
        direction = _two_loop_direction(gradient, history, scratch)
        directional = float(gradient.dot(direction))
        if directional >= 0:
            # The curvature history is unhelpful; restart from steepest descent.
            history.clear()
            direction = -gradient
            directional = float(gradient.dot(direction))
            if directional >= 0:
                raise OptimizationError("line search called with a non-descent direction")
        accepted = _armijo_line_search(objective, parameters, value, direction, directional)
        iteration += 1
        if accepted is None:
            evaluations += MAX_LINE_SEARCH_STEPS
            break  # no further progress possible along any tried step
        new_parameters, new_value, new_gradient, line_evaluations = accepted
        evaluations += line_evaluations
        s = new_parameters - parameters
        y = new_gradient - gradient
        sy = float(s.dot(y))
        if sy > 1e-12:
            history.append(_CurvaturePair(s, y, sy, float(y.dot(y)), 1.0 / sy))
        parameters, value, gradient = new_parameters, new_value, new_gradient
        converged = _norm(gradient) <= config.gradient_tolerance
    return LbfgsResult(
        parameters=parameters,
        value=value,
        gradient_norm=_norm(gradient),
        iterations=iteration,
        converged=converged,
        function_evaluations=evaluations,
    )
