"""Interfaces shared by SeeSaw and the baseline search methods.

Every method (zero-shot CLIP, few-shot CLIP, Rocchio, ENS, SeeSaw, the
propagation variant) is a :class:`SearchMethod`: it starts from a text query,
proposes the next images to show, and updates its internal state from the
accumulated feedback.  :class:`SearchSession` (Listing 1) drives any of them
through the same loop, which is how the benchmarks compare them fairly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.feedback import FeedbackMap
from repro.core.indexing import SeeSawIndex
from repro.data.geometry import BoundingBox
from repro.engine import SeenMask
from repro.exceptions import SessionError


@dataclass(frozen=True)
class ImageResult:
    """One image proposed to the user, with the patch that triggered it."""

    image_id: int
    score: float
    vector_id: int
    box: BoundingBox


class SearchContext:
    """What a search method is allowed to see: the index, never the labels.

    The context is engine-backed: it owns the session's persistent
    :class:`~repro.engine.SeenMask`, which the session updates incrementally
    as batches are shown, and adapts the engine's aligned result columns to
    the public :class:`ImageResult` API.
    """

    def __init__(self, index: SeeSawIndex) -> None:
        self.index = index
        self.engine = index.engine
        self.seen_mask = self.engine.new_mask()
        self._session_exclusions: "set[int] | None" = None

    @property
    def store(self):
        """The vector store of the indexed dataset."""
        return self.index.store

    @property
    def embedding(self):
        """The embedding model used for text queries."""
        return self.index.embedding

    def embed_text(self, text: str) -> np.ndarray:
        """Embed the user's text query."""
        return self.index.embed_query(text)

    # ------------------------------------------------------------------
    # seen-state bookkeeping
    # ------------------------------------------------------------------
    def mark_seen(self, image_ids: "list[int] | tuple[int, ...]") -> None:
        """Incrementally mark shown images in the session's persistent mask."""
        self.seen_mask.mark_images(image_ids)

    def bind_session_exclusions(self, excluded_image_ids: "set[int]") -> None:
        """Register the session-owned exclusion set.

        The session grows this set and the persistent mask together, so
        :meth:`mask_for` can recognise it by identity — an O(1) check
        instead of re-verifying membership of every shown image each round.
        """
        self._session_exclusions = excluded_image_ids

    def mask_for(
        self, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "SeenMask | None":
        """The mask matching an exclusion set — the result is read-only.

        The session's own exclusion set (bound via
        :meth:`bind_session_exclusions`, the call pattern of every
        :class:`SearchMethod` driven by ``SearchSession``) resolves to the
        persistent mask by identity; any other set that happens to equal
        the seen state reuses it too, and everything else gets an ephemeral
        mask.  Callers that want to mutate the mask must ``copy()`` it —
        its public columns reject writes.
        """
        if not excluded_image_ids:
            return None
        if (
            excluded_image_ids is self._session_exclusions
            or self.seen_mask.covers_exactly(excluded_image_ids)
        ):
            return self.seen_mask
        return self.engine.mask_for_images(excluded_image_ids)

    # ------------------------------------------------------------------
    # result selection helpers
    # ------------------------------------------------------------------
    def top_unseen_images(
        self,
        query_vector: np.ndarray,
        count: int,
        excluded_image_ids: "frozenset[int] | set[int]",
    ) -> "list[ImageResult]":
        """The ``count`` best-scoring unseen images for ``query_vector``.

        Patch hits are grouped into images (an image scores the maximum of
        its patches, §4.3).  The selection runs entirely in the columnar
        engine — scores masked once, max-pooled with ``reduceat``, images
        argpartitioned directly; ``ImageResult`` objects are materialized
        only for the ``count`` selected images.
        """
        if count < 1:
            raise SessionError("count must be >= 1")
        image_ids, scores, vector_ids = self.engine.top_unseen_arrays(
            query_vector, count, self.mask_for(excluded_image_ids)
        )
        return self.results_from_arrays(image_ids, scores, vector_ids)

    def results_from_arrays(
        self,
        image_ids: np.ndarray,
        scores: np.ndarray,
        vector_ids: np.ndarray,
    ) -> "list[ImageResult]":
        """Adapt the engine's aligned columns to ``ImageResult`` objects."""
        index = self.index
        return [
            ImageResult(
                image_id=int(image_id),
                score=float(score),
                vector_id=int(vector_id),
                box=index.patch_box(int(vector_id)),
            )
            for image_id, score, vector_id in zip(image_ids, scores, vector_ids)
        ]

    def score_all_images_array(self, query_vector: np.ndarray) -> np.ndarray:
        """Max-pooled per-image scores aligned with ``index.segments.image_ids``.

        This is a full linear scan; SeeSaw itself avoids it, but baselines
        such as ENS and label propagation need global scores (which is
        precisely the scaling problem Table 6 documents).
        """
        return self.engine.score_all_images(query_vector)

    def score_all_images(self, query_vector: np.ndarray) -> "dict[int, float]":
        """Legacy dict adapter over :meth:`score_all_images_array`."""
        scores = self.score_all_images_array(query_vector)
        return {
            int(image_id): float(score)
            for image_id, score in zip(self.index.segments.image_ids, scores)
        }


class SearchMethod(ABC):
    """A relevance-feedback search strategy driven by :class:`SearchSession`."""

    name: str = "method"

    @abstractmethod
    def begin(self, context: SearchContext, text_query: str) -> None:
        """Reset internal state and start a new search from ``text_query``."""

    @abstractmethod
    def next_images(
        self, count: int, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "list[ImageResult]":
        """Propose the next ``count`` images, never repeating excluded ones."""

    @abstractmethod
    def observe(self, feedback: FeedbackMap) -> None:
        """Incorporate the feedback accumulated so far (Listing 1, line 7)."""

    @property
    def query_vector(self) -> "np.ndarray | None":
        """The method's current internal query vector, when it has one."""
        return None
