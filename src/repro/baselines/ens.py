"""Efficient Non-myopic Search (ENS), Jiang et al. 2017, adapted as in §5.4.

ENS is an active-search policy: instead of greedily showing the highest
scoring image, it scores each candidate by the *expected number of positives
found within the remaining budget* if that candidate were shown next.  The
probability model is a weighted kNN classifier over the database's kNN graph
with a per-vertex prior ``gamma_i``.

Following the paper's adaptation we (a) use CLIP similarity scores as the
per-vertex prior ``gamma_i`` (optionally Platt-calibrated for Table 4), and
(b) fall back to plain zero-shot ranking until the first positive example has
been found.

The expected-future-reward term uses the standard one-step-lookahead bound:
for each candidate we ask how its unlabeled neighbours' probabilities would
change if it were labelled positive or negative, and sum the top
``horizon - 1`` of them.  This preserves the two properties the paper's
analysis rests on: the policy prefers candidates inside dense clusters, and
longer horizons make it increasingly sensitive to probability calibration.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.feedback import FeedbackMap
from repro.core.interfaces import ImageResult, SearchContext, SearchMethod
from repro.exceptions import ConfigurationError, SessionError
from repro.knng.graph import KnnGraph

GammaCalibrator = Callable[[np.ndarray], np.ndarray]


def raw_gamma_from_scores(scores: np.ndarray) -> np.ndarray:
    """Map raw cosine scores in [-1, 1] to the [0, 1] prior ENS expects.

    This is intentionally *not* a calibrated probability — the point of
    Table 4 is that ENS degrades when its priors are not calibrated.
    """
    return np.clip((np.asarray(scores, dtype=np.float64) + 1.0) / 2.0, 0.0, 1.0)


class EnsMethod(SearchMethod):
    """Efficient Non-myopic Search over the kNN graph of coarse vectors."""

    name = "ens"

    def __init__(
        self,
        horizon: int = 60,
        prior_weight: float = 1.0,
        gamma_calibrator: "GammaCalibrator | None" = None,
        shrink_horizon: bool = True,
    ) -> None:
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if prior_weight <= 0:
            raise ConfigurationError("prior_weight must be > 0")
        self.horizon = int(horizon)
        self.prior_weight = float(prior_weight)
        self.gamma_calibrator = gamma_calibrator
        self.shrink_horizon = bool(shrink_horizon)
        self._context: "SearchContext | None" = None
        self._graph: "KnnGraph | None" = None
        self._query: "np.ndarray | None" = None
        self._gamma: "np.ndarray | None" = None
        self._labels: "dict[int, float]" = {}

    # ------------------------------------------------------------------
    # SearchMethod interface
    # ------------------------------------------------------------------
    def begin(self, context: SearchContext, text_query: str) -> None:
        if context.index.knn_graph is None:
            raise SessionError("ENS requires an index built with a kNN graph")
        self._context = context
        self._graph = context.index.knn_graph
        self._query = context.embed_text(text_query)
        scores = context.store.score_all(self._query)
        if self.gamma_calibrator is not None:
            self._gamma = np.clip(self.gamma_calibrator(scores), 0.0, 1.0)
        else:
            self._gamma = raw_gamma_from_scores(scores)
        self._labels = {}

    def next_images(
        self, count: int, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "list[ImageResult]":
        context = self._require_started()
        if not any(label > 0.5 for label in self._labels.values()):
            # Warm-up: until the first positive arrives ENS has nothing to
            # learn from, so rank with the zero-shot query (paper, §5.4).
            return context.top_unseen_images(self._query, count, excluded_image_ids)
        # Exclusion state is a boolean vector column (engine SeenMask) that
        # grows incrementally as candidates are chosen, replacing the old
        # per-round union of vector-id sets.
        shared = context.mask_for(excluded_image_ids)
        seen = shared.copy() if shared is not None else context.engine.new_mask()
        results: list[ImageResult] = []
        remaining = self._remaining_horizon(len(excluded_image_ids))
        # The kNN posterior depends only on the accumulated labels, which do
        # not change while a batch is being assembled — compute it once.
        probabilities = self._probabilities()
        for _ in range(count):
            vector_id = self._select_vector(probabilities, seen.vector_seen, remaining)
            if vector_id is None:
                break
            image_id = context.index.image_id_for_vector(vector_id)
            probability = probabilities[vector_id]
            results.append(
                ImageResult(
                    image_id=image_id,
                    score=float(probability),
                    vector_id=vector_id,
                    box=context.index.patch_box(vector_id),
                )
            )
            seen.mark_images((image_id,))
            remaining = max(1, remaining - 1)
        return results

    def observe(self, feedback: FeedbackMap) -> None:
        context = self._require_started()
        _, labels, _, vector_ids = feedback.training_set(context.index)
        self._labels = {
            int(vector_id): float(label) for vector_id, label in zip(vector_ids, labels)
        }

    @property
    def query_vector(self) -> "np.ndarray | None":
        return None if self._query is None else self._query.copy()

    # ------------------------------------------------------------------
    # the kNN probability model
    # ------------------------------------------------------------------
    def _probabilities(self) -> np.ndarray:
        """Posterior positive-probability of every vector under the kNN model."""
        graph = self._graph
        gamma = self._gamma
        count = graph.node_count
        numerator = self.prior_weight * gamma.copy()
        denominator = np.full(count, self.prior_weight, dtype=np.float64)
        for vector_id, label in self._labels.items():
            if vector_id >= count:
                continue
            neighbor_ids, weights = graph.neighbors_of(vector_id)
            numerator[neighbor_ids] += weights * label
            denominator[neighbor_ids] += weights
        return numerator / denominator

    def _select_vector(
        self,
        probabilities: np.ndarray,
        excluded_vector_mask: np.ndarray,
        remaining_horizon: int,
    ) -> "int | None":
        """Pick the vector with the highest expected total reward.

        ``excluded_vector_mask`` is a boolean column over the graph's
        vectors (``True`` = already shown / chosen this batch).
        """
        graph = self._graph
        candidate_mask = ~excluded_vector_mask[: graph.node_count]
        for vector_id in self._labels:
            if vector_id < graph.node_count:
                candidate_mask[vector_id] = False
        candidates = np.nonzero(candidate_mask)[0]
        if candidates.size == 0:
            return None
        lookahead = max(0, min(remaining_horizon - 1, graph.k))
        if lookahead == 0:
            best = candidates[int(np.argmax(probabilities[candidates]))]
            return int(best)
        scores = np.empty(candidates.size, dtype=np.float64)
        for position, candidate in enumerate(candidates):
            scores[position] = self._expected_utility(
                int(candidate), probabilities, candidate_mask, lookahead
            )
        return int(candidates[int(np.argmax(scores))])

    def _expected_utility(
        self,
        candidate: int,
        probabilities: np.ndarray,
        candidate_mask: np.ndarray,
        lookahead: int,
    ) -> float:
        """Expected positives found from showing ``candidate`` next."""
        graph = self._graph
        gamma = self._gamma
        probability = float(probabilities[candidate])
        neighbor_ids, weights = graph.neighbors_of(candidate)
        keep = candidate_mask[neighbor_ids]
        neighbor_ids = neighbor_ids[keep]
        weights = weights[keep]
        if neighbor_ids.size == 0:
            return probability
        # How the neighbours' probabilities would move under either outcome.
        base_numerator = probabilities[neighbor_ids] * self.prior_weight
        # Reconstruct the label mass already sitting on these neighbours from
        # the current probability: p = (prior * gamma + mass_pos) / (prior + mass).
        # For the lookahead bound we only need the *relative* movement, so we
        # approximate the current denominators with the prior weight, which is
        # exact before any neighbour of the neighbour has been labelled.
        del base_numerator
        numerator = self.prior_weight * gamma[neighbor_ids] + 0.0
        denominator = np.full(neighbor_ids.size, self.prior_weight, dtype=np.float64)
        positive_update = (numerator + weights) / (denominator + weights)
        negative_update = numerator / (denominator + weights)
        top_positive = np.sort(positive_update)[::-1][:lookahead]
        top_negative = np.sort(negative_update)[::-1][:lookahead]
        reward_if_positive = 1.0 + float(np.sum(top_positive))
        reward_if_negative = float(np.sum(top_negative))
        return probability * reward_if_positive + (1.0 - probability) * reward_if_negative

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _remaining_horizon(self, shown_count: int) -> int:
        if not self.shrink_horizon:
            return self.horizon
        return max(1, self.horizon - shown_count)

    def _require_started(self) -> SearchContext:
        if self._context is None or self._graph is None or self._query is None:
            raise SessionError("begin must be called before using EnsMethod")
        return self._context
