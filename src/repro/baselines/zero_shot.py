"""Zero-shot CLIP: rank by the text embedding alone, ignore all feedback."""

from __future__ import annotations

import numpy as np

from repro.core.feedback import FeedbackMap
from repro.core.interfaces import ImageResult, SearchContext, SearchMethod
from repro.exceptions import SessionError


class ZeroShotClipMethod(SearchMethod):
    """The no-feedback baseline: the query vector never changes."""

    name = "zero_shot_clip"

    def __init__(self) -> None:
        self._context: "SearchContext | None" = None
        self._query: "np.ndarray | None" = None

    def begin(self, context: SearchContext, text_query: str) -> None:
        self._context = context
        self._query = context.embed_text(text_query)

    def next_images(
        self, count: int, excluded_image_ids: "frozenset[int] | set[int]"
    ) -> "list[ImageResult]":
        if self._context is None or self._query is None:
            raise SessionError("begin must be called before next_images")
        return self._context.top_unseen_images(self._query, count, excluded_image_ids)

    def observe(self, feedback: FeedbackMap) -> None:
        """Zero-shot CLIP ignores feedback entirely (Listing 1 with no line 7)."""

    @property
    def query_vector(self) -> "np.ndarray | None":
        return None if self._query is None else self._query.copy()
