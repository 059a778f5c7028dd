"""Rocchio's relevance-feedback algorithm (Equation 6 of the paper).

The next query vector is a weighted combination of the original text vector,
the centroid of the relevant examples seen so far, and (negatively) the
centroid of the non-relevant examples:

``q_n = alpha * q_0 + beta * mean(D_r) - gamma * mean(D_n)``

The paper uses ``alpha = 1``, ``beta = .5``, ``gamma = .25``.
"""

from __future__ import annotations

import numpy as np

from repro.core.feedback import FeedbackMap
from repro.core.interfaces import ImageResult, SearchContext, SearchMethod
from repro.exceptions import ConfigurationError, SessionError
from repro.utils.linalg import normalize_vector


class RocchioMethod(SearchMethod):
    """Classic Rocchio query refinement on top of the CLIP text vector."""

    name = "rocchio"

    def __init__(self, alpha: float = 1.0, beta: float = 0.5, gamma: float = 0.25) -> None:
        if alpha < 0 or beta < 0 or gamma < 0:
            raise ConfigurationError("Rocchio weights must be non-negative")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self._context: "SearchContext | None" = None
        self._text_vector: "np.ndarray | None" = None
        self._query: "np.ndarray | None" = None

    def begin(self, context: SearchContext, text_query: str) -> None:
        self._context = context
        self._text_vector = context.embed_text(text_query)
        self._query = self._text_vector.copy()

    def next_images(
        self, count: int, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "list[ImageResult]":
        if self._context is None or self._query is None:
            raise SessionError("begin must be called before next_images")
        return self._context.top_unseen_images(self._query, count, excluded_image_ids)

    def observe(self, feedback: FeedbackMap) -> None:
        if self._context is None or self._text_vector is None:
            raise SessionError("begin must be called before observe")
        features, labels, _ = feedback.to_patch_labels(self._context.index)
        if labels.size == 0:
            return
        query = self.alpha * self._text_vector
        positives = features[labels > 0.5]
        negatives = features[labels <= 0.5]
        if positives.size:
            query = query + self.beta * positives.mean(axis=0)
        if negatives.size:
            query = query - self.gamma * negatives.mean(axis=0)
        normalized = normalize_vector(query)
        if np.any(normalized):
            self._query = normalized

    @property
    def query_vector(self) -> "np.ndarray | None":
        return None if self._query is None else self._query.copy()
