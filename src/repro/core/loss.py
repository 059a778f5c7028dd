"""The SeeSaw loss function (Equation 5 / Table 1) with analytic gradients.

The loss combines four terms:

* logistic loss on the user's patch-level feedback ("fit user feedback"),
* an L2 norm penalty on the weight vector ("but avoid |w| -> inf"),
* the CLIP-alignment term ``lambda_text * (1 - w.q_text / |w|)`` ("prefer w
  aligned with q_text", §4.1),
* the DB-alignment term ``lambda_DB * (w/|w|)^T M_D (w/|w|)`` ("prefer w
  aligned with the database", §4.2).

The bias term ``b`` of the logistic model is optional and disabled by default,
matching the paper's observation (§3.2) that fitting it hurts the learned
vector's quality as a query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import LossWeights
from repro.exceptions import OptimizationError
from repro.utils.validation import check_finite

_EPSILON = 1e-12


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid: ``exp`` only ever sees ``-|z|``."""
    values = np.asarray(values, dtype=np.float64)
    decay = np.exp(-np.abs(values))
    return np.where(values >= 0, 1.0, decay) / (1.0 + decay)


def log_loss(labels: np.ndarray, probabilities: np.ndarray) -> float:
    """Summed binary cross-entropy, clipped for numerical safety."""
    probabilities = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
    labels = np.asarray(labels, dtype=np.float64)
    return float(
        -np.sum(labels * np.log(probabilities) + (1.0 - labels) * np.log(1.0 - probabilities))
    )


@dataclass
class LossBreakdown:
    """The value of each term of the loss at a given parameter vector."""

    data_term: float
    norm_term: float
    clip_term: float
    db_term: float

    @property
    def total(self) -> float:
        """Sum of all terms."""
        return self.data_term + self.norm_term + self.clip_term + self.db_term


class SeeSawLoss:
    """Differentiable SeeSaw objective over a small feedback training set.

    Parameters
    ----------
    features:
        ``(n, d)`` matrix of patch vectors with user feedback.
    labels:
        ``(n,)`` vector of 0/1 labels derived from box feedback; any other
        value is an :class:`OptimizationError`.
    query_text_vector:
        The original CLIP text vector ``q_0`` (unit norm).
    db_matrix:
        The ``(d, d)`` DB-alignment matrix ``M_D``; ``None`` disables the term.
    weights:
        The regularisation weights (lambda, lambda_text, lambda_DB).
    fit_bias:
        Whether to fit the logistic bias ``b`` (off by default, see §3.2).
    sample_weights:
        Optional per-example weights on the logistic term.  The multiscale
        representation multiplies the number of labelled vectors per image by
        an order of magnitude (§4.3); weighting each patch by one over its
        image's patch count keeps the data term on the same scale whether or
        not multiscale is enabled, so one set of lambda values works for both.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        query_text_vector: np.ndarray,
        db_matrix: "np.ndarray | None" = None,
        weights: "LossWeights | None" = None,
        fit_bias: bool = False,
        sample_weights: "np.ndarray | None" = None,
    ) -> None:
        self.features = check_finite("features", np.atleast_2d(np.asarray(features, dtype=np.float64)))
        self.labels = np.asarray(labels, dtype=np.float64).ravel()
        if self.features.shape[0] != self.labels.shape[0]:
            raise OptimizationError("features and labels must have the same length")
        self._positive = self.labels == 1.0
        if not np.all(self._positive | (self.labels == 0.0)):
            raise OptimizationError("labels must be 0 or 1")
        self.sample_weights = sample_weights
        if sample_weights is not None:
            self.sample_weights = np.asarray(sample_weights, dtype=np.float64).ravel()
            if self.sample_weights.shape != self.labels.shape:
                raise OptimizationError("sample_weights must match labels in length")
            if np.any(self.sample_weights < 0):
                raise OptimizationError("sample_weights must be non-negative")
        self.query_text_vector = check_finite(
            "query_text_vector", np.asarray(query_text_vector, dtype=np.float64).ravel()
        )
        self.dim = self.query_text_vector.shape[0]
        if self.features.size and self.features.shape[1] != self.dim:
            raise OptimizationError(
                "feature dimension does not match the query vector dimension"
            )
        self.weights = weights or LossWeights()
        self.fit_bias = bool(fit_bias)
        if db_matrix is None:
            self.db_matrix = None
        else:
            db_matrix = check_finite("db_matrix", np.asarray(db_matrix, dtype=np.float64))
            if db_matrix.shape != (self.dim, self.dim):
                raise OptimizationError(
                    f"db_matrix must be ({self.dim}, {self.dim}), got {db_matrix.shape}"
                )
            # Work with the symmetrised matrix so the gradient 2 M w is exact.
            self.db_matrix = (db_matrix + db_matrix.T) / 2.0
        self._features_t = self.features.T
        self._negative_query = -self.query_text_vector
        self._twice_lambda_norm = 2.0 * self.weights.lambda_norm
        self._twice_lambda_db = self.weights.lambda_db * 2.0

    # ------------------------------------------------------------------
    # parameter packing
    # ------------------------------------------------------------------
    @property
    def parameter_count(self) -> int:
        """Size of the flat parameter vector (d, or d+1 with a bias)."""
        return self.dim + (1 if self.fit_bias else 0)

    def initial_parameters(self, initial_vector: "np.ndarray | None" = None) -> np.ndarray:
        """A reasonable starting point: the CLIP text vector (zero bias)."""
        start = self.query_text_vector if initial_vector is None else np.asarray(
            initial_vector, dtype=np.float64
        ).ravel()
        if start.shape[0] != self.dim:
            raise OptimizationError("initial vector has the wrong dimension")
        if self.fit_bias:
            return np.concatenate([start, [0.0]])
        return start.copy()

    def split_parameters(self, parameters: np.ndarray) -> tuple[np.ndarray, float]:
        """Split a flat parameter vector into ``(w, b)``."""
        parameters = np.asarray(parameters, dtype=np.float64).ravel()
        if parameters.shape[0] != self.parameter_count:
            raise OptimizationError(
                f"expected {self.parameter_count} parameters, got {parameters.shape[0]}"
            )
        if self.fit_bias:
            return parameters[:-1], float(parameters[-1])
        return parameters, 0.0

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _data_term(self, logits: np.ndarray) -> tuple[float, np.ndarray]:
        """``-sum(weight * log(c or 1 - c))`` at ``logits``, ``c`` the clipped
        probability of a positive or a negative; and the probabilities."""
        probabilities = sigmoid(logits)
        clipped = np.minimum(np.maximum(probabilities, 1e-12), 1.0 - 1e-12)  # np.clip's bits
        logs = np.log(np.where(self._positive, clipped, 1.0 - clipped))
        if self.sample_weights is not None:
            logs *= self.sample_weights
        return -float(logs.sum()), probabilities

    def breakdown(self, parameters: np.ndarray) -> LossBreakdown:
        """The value of each loss term at ``parameters``."""
        w, b = self.split_parameters(parameters)
        norm = float(np.linalg.norm(w))
        data_term = 0.0
        if self.features.size:
            data_term = self._data_term(self.features @ w + b)[0]
        norm_term = self.weights.lambda_norm * float(w @ w)
        clip_term = 0.0
        if self.weights.lambda_clip > 0:
            cosine = float(w @ self.query_text_vector) / max(norm, _EPSILON)
            clip_term = self.weights.lambda_clip * (1.0 - cosine)
        db_term = 0.0
        if self.db_matrix is not None and self.weights.lambda_db > 0:
            quadratic = float(w @ (self.db_matrix @ w)) / max(norm * norm, _EPSILON)
            db_term = self.weights.lambda_db * quadratic
        return LossBreakdown(data_term, norm_term, clip_term, db_term)

    def __call__(self, parameters: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss value and gradient with respect to the flat parameter vector."""
        w, b = self.split_parameters(parameters)
        squared = float(w @ w)
        norm = max(math.sqrt(squared), _EPSILON)  # np.linalg.norm's sqrt(w . w)
        value = 0.0
        gradient_b = 0.0
        if self.features.size:
            logits = self.features @ w
            if self.fit_bias:
                logits += b
            value, probabilities = self._data_term(logits)
            error = probabilities - self.labels
            if self.sample_weights is not None:
                error *= self.sample_weights
            gradient_w = self._features_t @ error
            if self.fit_bias:
                gradient_b += float(np.sum(error))
        else:
            gradient_w = np.zeros_like(w)

        value += self.weights.lambda_norm * squared
        gradient_w += self._twice_lambda_norm * w

        if self.weights.lambda_clip > 0:
            inner = float(w @ self.query_text_vector)
            value += self.weights.lambda_clip * (1.0 - inner / norm)
            gradient_w += self.weights.lambda_clip * (
                self._negative_query / norm + inner * w / norm**3
            )

        if self.db_matrix is not None and self.weights.lambda_db > 0:
            mw = self.db_matrix @ w
            quadratic = float(w @ mw) / (norm * norm)
            value += self.weights.lambda_db * quadratic
            gradient_w += self._twice_lambda_db * (mw - quadratic * w) / (norm * norm)

        if self.fit_bias:
            return value, np.concatenate([gradient_w, [gradient_b]])
        return value, gradient_w
