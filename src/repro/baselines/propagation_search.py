"""Full label-propagation search ("SeeSaw prop." in Table 6).

This variant realises the conceptual starting point of DB alignment directly:
after every feedback round it runs label propagation over the whole kNN graph
and ranks images by the propagated score.  It is accurate but its per-round
cost grows linearly with the database, which is exactly the scaling problem
the collapsed ``M_D`` term avoids (§4.2, Table 6).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.ens import raw_gamma_from_scores
from repro.core.feedback import FeedbackMap
from repro.core.interfaces import ImageResult, SearchContext, SearchMethod
from repro.core.propagation import propagate_labels
from repro.exceptions import SessionError


class PropagationMethod(SearchMethod):
    """Rank by label propagation over the database kNN graph every round."""

    name = "propagation"

    def __init__(self, iterations: int = 20) -> None:
        self.iterations = int(iterations)
        self._context: "SearchContext | None" = None
        self._query: "np.ndarray | None" = None
        self._prior: "np.ndarray | None" = None
        self._scores: "np.ndarray | None" = None

    def begin(self, context: SearchContext, text_query: str) -> None:
        if context.index.knn_graph is None:
            raise SessionError("PropagationMethod requires an index with a kNN graph")
        self._context = context
        self._query = context.embed_text(text_query)
        self._prior = raw_gamma_from_scores(context.store.score_all(self._query))
        self._scores = self._prior.copy()

    def next_images(
        self, count: int, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "list[ImageResult]":
        context = self._require_started()
        # Rank by the propagated per-patch scores: the engine max-pools them
        # into image scores and argpartitions directly, replacing the old
        # full argsort + Python regrouping loop (the propagated score of an
        # image is the max over its patches, same pooling as §4.3).
        image_ids, scores, vector_ids = context.engine.top_images_from_vector_scores(
            self._scores, count, context.mask_for(excluded_image_ids)
        )
        return context.results_from_arrays(image_ids, scores, vector_ids)

    def observe(self, feedback: FeedbackMap) -> None:
        context = self._require_started()
        _, labels, _, vector_ids = feedback.training_set(context.index)
        if labels.size == 0:
            return
        labeled = {int(vid): float(label) for vid, label in zip(vector_ids, labels)}
        self._scores = propagate_labels(
            context.index.knn_graph,
            labeled,
            iterations=self.iterations,
            prior=self._prior,
        )

    @property
    def query_vector(self) -> "np.ndarray | None":
        return None if self._query is None else self._query.copy()

    def _require_started(self) -> SearchContext:
        if self._context is None or self._scores is None:
            raise SessionError("begin must be called before using PropagationMethod")
        return self._context
