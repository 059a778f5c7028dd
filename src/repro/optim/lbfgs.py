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


def _two_loop_direction(
    gradient: np.ndarray,
    s_history: "deque[np.ndarray]",
    y_history: "deque[np.ndarray]",
    rho_history: "deque[float]",
) -> np.ndarray:
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


def _armijo_line_search(
    objective: ValueAndGradient,
    parameters: np.ndarray,
    value: float,
    gradient: np.ndarray,
    direction: np.ndarray,
) -> tuple[float, float, np.ndarray, int]:
    """Armijo backtracking: halve the step until it gives sufficient decrease.

    The first step satisfying the Armijo condition (constant
    :data:`ARMIJO_C1`) is accepted; no curvature condition is checked,
    which suits the smooth, low-dimensional SeeSaw loss.  Returns ``(step,
    new_value, new_gradient, evaluations)``; a step of 0 means the search
    found no decrease within :data:`MAX_LINE_SEARCH_STEPS` halvings.
    """
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
    s_history: deque[np.ndarray] = deque(maxlen=HISTORY_SIZE)
    y_history: deque[np.ndarray] = deque(maxlen=HISTORY_SIZE)
    rho_history: deque[float] = deque(maxlen=HISTORY_SIZE)

    iteration = 0
    converged = float(np.linalg.norm(gradient)) <= config.gradient_tolerance
    while iteration < config.max_iterations and not converged:
        direction = _two_loop_direction(gradient, s_history, y_history, rho_history)
        if float(gradient @ direction) >= 0:
            # The curvature history is unhelpful; restart from steepest descent.
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
            break  # no further progress possible along any tried step
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
