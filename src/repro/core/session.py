"""The interactive search loop of Listing 1.

A :class:`SearchSession` wires a :class:`SearchMethod` to a user (real or
simulated): it asks the method for the next batch of images, records the
feedback the user gives on them, hands the accumulated feedback back to the
method, and keeps the ordered history of shown images that the evaluation
metrics are computed over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.feedback import BoxFeedback, FeedbackMap
from repro.core.indexing import SeeSawIndex
from repro.core.interfaces import ImageResult, SearchContext, SearchMethod
from repro.data.geometry import BoundingBox
from repro.exceptions import SessionError


@dataclass
class SessionStep:
    """One image shown to the user and the feedback it received."""

    position: int
    result: ImageResult
    relevant: "bool | None" = None
    feedback_boxes: tuple[BoundingBox, ...] = ()


@dataclass
class SessionStats:
    """Latency accounting for one session (feeds Table 6)."""

    lookup_seconds: float = 0.0
    update_seconds: float = 0.0
    rounds: int = 0

    @property
    def seconds_per_round(self) -> float:
        """Mean per-iteration system latency (lookup + model update)."""
        if self.rounds == 0:
            return 0.0
        return (self.lookup_seconds + self.update_seconds) / self.rounds


@dataclass
class SearchSession:
    """Drives one text query through the interactive loop of Listing 1."""

    index: SeeSawIndex
    method: SearchMethod
    text_query: str
    batch_size: int = 1
    context: SearchContext = field(init=False)
    feedback: FeedbackMap = field(init=False, default_factory=FeedbackMap)
    history: "list[SessionStep]" = field(init=False, default_factory=list)
    stats: SessionStats = field(init=False, default_factory=SessionStats)
    _pending: "dict[int, ImageResult]" = field(init=False, default_factory=dict)
    _shown_set: "set[int]" = field(init=False, default_factory=set)
    _started: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise SessionError("batch_size must be >= 1")
        self.context = SearchContext(self.index)
        # The session owns one exclusion set, grown incrementally alongside
        # the context's SeenMask; binding it lets the context recognise the
        # session's own exclusions by identity (O(1)) instead of re-walking
        # the set every round.
        self.context.bind_session_exclusions(self._shown_set)
        self.method.begin(self.context, self.text_query)
        self._started = True

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    @property
    def shown_image_ids(self) -> "list[int]":
        """Image ids in the order they were shown."""
        return [step.result.image_id for step in self.history]

    @property
    def relevant_found(self) -> int:
        """Number of shown images the user marked relevant so far."""
        return sum(1 for step in self.history if step.relevant)

    def next_batch(self, count: "int | None" = None) -> "list[ImageResult]":
        """Fetch the next batch of images to show (Listing 1, line 4).

        Raises :class:`SessionError` if the previous batch has not been fully
        labelled yet, mirroring the UI flow where feedback is given per batch.
        """
        if self._pending:
            raise SessionError("previous batch still has unlabelled images")
        count = count or self.batch_size
        start = time.perf_counter()
        results = self.method.next_images(count, self._shown_set)
        self.stats.lookup_seconds += time.perf_counter() - start
        # History, pending feedback, the exclusion set, and the context's
        # persistent SeenMask advance together — incrementally, O(batch) per
        # round instead of re-deriving exclusion state from the full history.
        for result in results:
            self.history.append(SessionStep(position=len(self.history), result=result))
            self._pending[result.image_id] = result
        shown = [result.image_id for result in results]
        self._shown_set.update(shown)
        self.context.mark_seen(shown)
        return results

    def give_feedback(
        self,
        image_id: int,
        relevant: bool,
        boxes: Iterable[BoundingBox] = (),
    ) -> None:
        """Record the user's judgement for one image of the current batch."""
        if image_id not in self._pending:
            raise SessionError(f"Image {image_id} is not awaiting feedback")
        boxes = tuple(boxes)
        if relevant and not boxes:
            # A relevant image without an explicit region defaults to a
            # whole-image box, the coarsest possible positive annotation.
            image = self.index.dataset.image(image_id)
            boxes = (image.full_box,)
        feedback = (
            BoxFeedback.positive(image_id, boxes)
            if relevant
            else BoxFeedback.negative(image_id)
        )
        self.feedback.update(feedback)
        for step in reversed(self.history):
            if step.result.image_id == image_id:
                step.relevant = relevant
                step.feedback_boxes = boxes
                break
        del self._pending[image_id]
        if not self._pending:
            self._update_method()

    def _update_method(self) -> None:
        """Hand the accumulated feedback to the method (Listing 1, line 7)."""
        start = time.perf_counter()
        self.method.observe(self.feedback)
        self.stats.update_seconds += time.perf_counter() - start
        self.stats.rounds += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def relevance_sequence(self) -> "list[bool]":
        """The shown images' relevance judgements, in display order.

        Unlabelled images (for example when a run is cut off mid-batch) count
        as not relevant, which matches how the benchmark scores truncated
        sessions.
        """
        return [bool(step.relevant) for step in self.history]
