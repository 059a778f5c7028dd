"""Few-shot CLIP: plain logistic regression on the user's feedback (Equation 1).

This is the natural "just train a linear model on the labels" baseline.  The
paper shows it usually *hurts* relative to zero-shot CLIP because the learned
vector is estimated from a handful of highly biased samples; SeeSaw's CLIP
alignment term exists precisely to fix that failure mode.
"""

from __future__ import annotations

import numpy as np

from repro.config import LossWeights, SeeSawConfig
from repro.core.aligner import SeeSawQueryAligner
from repro.core.feedback import FeedbackMap
from repro.core.interfaces import ImageResult, SearchContext, SearchMethod
from repro.exceptions import SessionError
from repro.obs import trace_span


def _few_shot_config(base: "SeeSawConfig | None", lambda_norm: float, fit_bias: bool) -> SeeSawConfig:
    """A SeeSaw configuration with both alignment terms disabled."""
    base = base or SeeSawConfig()
    return base.with_overrides(
        loss=LossWeights(lambda_norm=lambda_norm, lambda_clip=0.0, lambda_db=0.0),
        use_clip_alignment=False,
        use_db_alignment=False,
        fit_bias=fit_bias,
    )


class FewShotClipMethod(SearchMethod):
    """Logistic regression on feedback, used directly as the query vector."""

    name = "few_shot_clip"

    def __init__(
        self,
        config: "SeeSawConfig | None" = None,
        lambda_norm: float = 1.0,
        fit_bias: bool = False,
    ) -> None:
        self.config = _few_shot_config(config, lambda_norm, fit_bias)
        self._context: "SearchContext | None" = None
        self._aligner: "SeeSawQueryAligner | None" = None
        self._text_vector: "np.ndarray | None" = None

    def begin(self, context: SearchContext, text_query: str) -> None:
        self._context = context
        self._text_vector = context.embed_text(text_query)
        self._aligner = SeeSawQueryAligner(
            query_text_vector=self._text_vector,
            db_matrix=None,
            config=self.config,
        )

    def next_images(
        self, count: int, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "list[ImageResult]":
        if self._context is None or self._aligner is None:
            raise SessionError("begin must be called before next_images")
        return self._context.top_unseen_images(
            self._aligner.current_query_vector, count, excluded_image_ids
        )

    def observe(self, feedback: FeedbackMap) -> None:
        if self._context is None or self._aligner is None:
            raise SessionError("begin must be called before observe")
        with trace_span("labels", images=len(feedback)):
            features, labels, weights, _ = feedback.training_set(self._context.index)
        if labels.size == 0 or labels.max() == labels.min():
            # Without at least one positive and one negative example a purely
            # data-driven linear model is unidentifiable, so the method keeps
            # using the text vector (the same warm-up the paper gives ENS).
            return
        with trace_span("align", rows=labels.size):
            self._aligner.align(features, labels, sample_weights=weights)

    @property
    def query_vector(self) -> "np.ndarray | None":
        if self._aligner is None:
            return None
        return self._aligner.current_query_vector
