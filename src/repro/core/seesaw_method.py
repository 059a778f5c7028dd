"""The full SeeSaw search method: aligner + vector-store lookups.

This is the strategy the paper proposes: start from the CLIP text vector,
look up the best unseen image in the vector store, and after each round of
box feedback re-align the query vector with the SeeSaw loss (CLIP alignment +
DB alignment) before the next lookup.
"""

from __future__ import annotations

import numpy as np

from repro.config import SeeSawConfig
from repro.core.aligner import SeeSawQueryAligner
from repro.core.feedback import FeedbackMap
from repro.core.interfaces import ImageResult, SearchContext, SearchMethod
from repro.exceptions import SessionError
from repro.obs import trace_span


class SeeSawSearchMethod(SearchMethod):
    """SeeSaw: CLIP alignment + DB alignment over multiscale patch vectors."""

    name = "seesaw"

    def __init__(self, config: "SeeSawConfig | None" = None) -> None:
        self.config = config or SeeSawConfig()
        self._context: "SearchContext | None" = None
        self._aligner: "SeeSawQueryAligner | None" = None

    # ------------------------------------------------------------------
    # SearchMethod interface
    # ------------------------------------------------------------------
    def begin(self, context: SearchContext, text_query: str) -> None:
        self._context = context
        query_vector = context.embed_text(text_query)
        db_matrix = context.index.db_matrix if self.config.use_db_alignment else None
        self._aligner = SeeSawQueryAligner(
            query_text_vector=query_vector,
            db_matrix=db_matrix,
            config=self.config,
        )

    def next_images(
        self, count: int, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "list[ImageResult]":
        # The context resolves the exclusion set against the session's
        # persistent SeenMask and runs the columnar engine lookup (mask,
        # reduceat max-pool, argpartition) — the per-round hot path.
        context, aligner = self._require_started()
        return context.top_unseen_images(
            aligner.current_query_vector, count, excluded_image_ids
        )

    def observe(self, feedback: FeedbackMap) -> None:
        context, aligner = self._require_started()
        with trace_span("labels", images=len(feedback)):
            features, labels, weights, _ = feedback.training_set(context.index)
        with trace_span("align", rows=labels.size):
            aligner.align(features, labels, sample_weights=weights)

    @property
    def query_vector(self) -> "np.ndarray | None":
        if self._aligner is None:
            return None
        return self._aligner.current_query_vector

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _require_started(self) -> "tuple[SearchContext, SeeSawQueryAligner]":
        if self._context is None or self._aligner is None:
            raise SessionError("SeeSawSearchMethod.begin must be called before use")
        return self._context, self._aligner
