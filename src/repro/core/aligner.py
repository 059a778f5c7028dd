"""SeeSawQueryAligner: the query_align implementation of Listing 1.

On every feedback round the aligner minimises the SeeSaw loss (Equation 5)
over the small patch-level training set derived from user feedback, starting
from the CLIP text vector, and returns the minimiser as the next query
vector.  The amount of work grows with the amount of feedback, not with the
database size, which is what keeps the loop interactive (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import LossWeights, OptimizerConfig, SeeSawConfig
from repro.core.loss import SeeSawLoss
from repro.exceptions import OptimizationError
from repro.optim.lbfgs import lbfgs_minimize
from repro.utils.linalg import normalize_vector


@dataclass
class AlignmentResult:
    """Outcome of one alignment round."""

    query_vector: np.ndarray
    loss_value: float
    iterations: int
    converged: bool
    used_feedback: int
    function_evaluations: int = 0


class SeeSawQueryAligner:
    """Turns accumulated feedback into the next query vector.

    Parameters
    ----------
    query_text_vector:
        The CLIP embedding ``q_0`` of the user's text query (unit norm).
    db_matrix:
        The precomputed DB-alignment matrix ``M_D``; ``None`` disables the
        DB-alignment term.
    config:
        The SeeSaw configuration.  ``config.use_clip_alignment`` and
        ``config.use_db_alignment`` toggle the respective loss terms, and
        setting both to false (with ``lambda_clip = lambda_db = 0``) recovers
        the plain few-shot logistic-regression baseline.
    """

    def __init__(
        self,
        query_text_vector: np.ndarray,
        db_matrix: "np.ndarray | None" = None,
        config: "SeeSawConfig | None" = None,
    ) -> None:
        self.config = config or SeeSawConfig()
        self.query_text_vector = normalize_vector(
            np.asarray(query_text_vector, dtype=np.float64).ravel()
        )
        if not np.any(self.query_text_vector):
            raise OptimizationError("query_text_vector must be non-zero")
        self.db_matrix = db_matrix if self.config.use_db_alignment else None
        self._current = self.query_text_vector.copy()
        self._last_result: "AlignmentResult | None" = None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def current_query_vector(self) -> np.ndarray:
        """The latest aligned query vector (initially the text vector)."""
        return self._current.copy()

    @property
    def last_result(self) -> "AlignmentResult | None":
        """Diagnostics from the most recent :meth:`align` call."""
        return self._last_result

    def _effective_weights(self) -> LossWeights:
        """Loss weights with disabled terms zeroed out."""
        weights = self.config.loss
        return LossWeights(
            lambda_norm=weights.lambda_norm,
            lambda_clip=weights.lambda_clip if self.config.use_clip_alignment else 0.0,
            lambda_db=weights.lambda_db if self.config.use_db_alignment else 0.0,
        )

    # ------------------------------------------------------------------
    # alignment
    # ------------------------------------------------------------------
    def align(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        optimizer_config: "OptimizerConfig | None" = None,
        sample_weights: "np.ndarray | None" = None,
    ) -> AlignmentResult:
        """Minimise the SeeSaw loss over the feedback set and update the query.

        With no feedback at all (or no informative labels when CLIP alignment
        is disabled) the aligner keeps the current query vector, matching the
        paper's default of trusting the zero-shot query until evidence
        accumulates.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if features.size == 0 or labels.size == 0:
            result = AlignmentResult(
                query_vector=self._current.copy(),
                loss_value=0.0,
                iterations=0,
                converged=True,
                used_feedback=0,
            )
            self._last_result = result
            return result
        loss = SeeSawLoss(
            features=features,
            labels=labels,
            query_text_vector=self.query_text_vector,
            db_matrix=self.db_matrix,
            weights=self._effective_weights(),
            fit_bias=self.config.fit_bias,
            sample_weights=sample_weights,
        )
        start = loss.initial_parameters(self._scaled_start())
        outcome = lbfgs_minimize(loss, start, optimizer_config or self.config.optimizer)
        weight_vector, _ = loss.split_parameters(outcome.parameters)
        aligned = normalize_vector(weight_vector)
        if not np.any(aligned):
            aligned = self._current.copy()
        self._current = aligned
        result = AlignmentResult(
            query_vector=aligned.copy(),
            loss_value=outcome.value,
            iterations=outcome.iterations,
            converged=outcome.converged,
            used_feedback=int(labels.size),
            function_evaluations=outcome.function_evaluations,
        )
        self._last_result = result
        return result

    def _scaled_start(self) -> np.ndarray:
        """Starting point for the optimiser.

        The norm penalty ``lambda |w|^2`` makes the optimal weight vector much
        smaller than unit norm, so starting from a down-scaled copy of the
        current query speeds convergence without changing the minimiser.
        """
        scale = 1.0
        if self.config.loss.lambda_norm > 0:
            scale = min(1.0, 1.0 / np.sqrt(self.config.loss.lambda_norm))
        return self._current * scale

    def reset(self) -> None:
        """Forget all feedback and return to the zero-shot text vector."""
        self._current = self.query_text_vector.copy()
        self._last_result = None
