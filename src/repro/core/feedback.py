"""User feedback: box annotations and their conversion to patch labels.

The user marks relevant regions with boxes (or marks a whole image as not
relevant).  Patch vectors whose pre-indexed box overlaps a feedback box are
treated as positive examples for the next alignment round; patches of the
same image with no overlap are negatives, and every patch of an image marked
not-relevant is a negative (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from repro.data.geometry import BoundingBox
from repro.exceptions import SessionError

if TYPE_CHECKING:  # pragma: no cover - import only used for type checking
    from repro.core.indexing import SeeSawIndex
    from repro.vectorstore.base import VectorStore


@dataclass(frozen=True)
class BoxFeedback:
    """Feedback for one image: relevant region boxes, or a negative judgement."""

    image_id: int
    relevant: bool
    boxes: tuple[BoundingBox, ...] = ()

    def __post_init__(self) -> None:
        if self.relevant and not self.boxes:
            raise SessionError(
                f"Image {self.image_id} marked relevant requires at least one box"
            )
        if not self.relevant and self.boxes:
            raise SessionError(
                f"Image {self.image_id} marked not relevant must not carry boxes"
            )

    @staticmethod
    def positive(image_id: int, boxes: Iterable[BoundingBox]) -> "BoxFeedback":
        """Feedback marking ``image_id`` relevant with the given region boxes."""
        return BoxFeedback(image_id=image_id, relevant=True, boxes=tuple(boxes))

    @staticmethod
    def negative(image_id: int) -> "BoxFeedback":
        """Feedback marking ``image_id`` not relevant."""
        return BoxFeedback(image_id=image_id, relevant=False)


@dataclass
class FeedbackMap:
    """Accumulated feedback across a search session (Listing 1, line 6)."""

    _items: "dict[int, BoxFeedback]" = field(default_factory=dict)
    # The training set for _blocks_for's index and min_box_overlap, in row
    # arrays that are only ever appended to: _rows maps an image id to its
    # rows, _stale holds the images judged since the last training_set().
    _blocks_for: "tuple[SeeSawIndex, float] | None" = field(
        init=False, default=None, repr=False, compare=False
    )
    _rows: "dict[int, slice]" = field(init=False, default_factory=dict, repr=False, compare=False)
    _stale: "dict[int, None]" = field(init=False, default_factory=dict, repr=False, compare=False)
    _arrays: "tuple[np.ndarray, ...]" = field(init=False, default=(), repr=False, compare=False)
    _size: int = field(init=False, default=0, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, image_id: int) -> bool:
        return image_id in self._items

    def __iter__(self) -> Iterator[BoxFeedback]:
        return iter(self._items.values())

    def update(self, feedback: BoxFeedback) -> None:
        """Record (or overwrite) the feedback for one image."""
        self._items[feedback.image_id] = feedback
        self._stale[feedback.image_id] = None

    def get(self, image_id: int) -> "BoxFeedback | None":
        """The feedback recorded for ``image_id``, if any."""
        return self._items.get(image_id)

    @property
    def image_ids(self) -> frozenset[int]:
        """Every image that has received feedback."""
        return frozenset(self._items)

    @property
    def positive_count(self) -> int:
        """Number of images marked relevant."""
        return sum(1 for feedback in self._items.values() if feedback.relevant)

    @property
    def negative_count(self) -> int:
        """Number of images marked not relevant."""
        return len(self._items) - self.positive_count

    def as_mapping(self) -> Mapping[int, BoxFeedback]:
        """Read-only view of the feedback by image id."""
        return dict(self._items)

    # ------------------------------------------------------------------
    # training-set construction
    # ------------------------------------------------------------------
    def training_set(
        self, index: "SeeSawIndex", min_box_overlap: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(vectors, labels, weights, vector_ids)`` of every judged patch, as views.

        Each row is a stored patch vector of an image with feedback; its
        label is 1 when the patch overlaps a positive feedback box and 0
        otherwise, and its weight is 1 / (patches of its image).  Rows follow
        the order in which images were first judged.

        The rows live in arrays that are only ever appended to and double in
        length when full: a call labels and gathers only the images judged
        since the last one with the same ``index`` and ``min_box_overlap``,
        and a re-judged image rewrites its labels in place.  Read the views;
        do not write them.
        """
        memo_for, self._blocks_for = self._blocks_for, None  # a failed call rebuilds
        if memo_for is None or memo_for[0] is not index or memo_for[1] != min_box_overlap:
            self._rows, self._stale, self._size, self._arrays = {}, dict.fromkeys(self._items), 0, ()
        blocks = [
            (image_id, *_label_block(self._items[image_id], index, min_box_overlap))
            for image_id in self._stale
        ]
        start = self._size
        end = start + sum(block.size for image_id, block, _ in blocks if image_id not in self._rows)
        if not self._arrays or end > len(self._arrays[3]):
            self._grow(index.store, end)
        vectors, labels, weights, ids = self._arrays
        for image_id, block_ids, block_labels in blocks:
            rows = self._rows.get(image_id)
            if rows is None:
                rows = self._rows[image_id] = slice(self._size, self._size + block_ids.size)
                self._size = rows.stop
                ids[rows] = block_ids
            labels[rows] = block_labels
        self._stale = {}
        if end > start:
            new = slice(start, end)
            vectors[new] = index.store.take(ids[new])
            segments = index.segments
            weights[new] = 1.0 / segments.counts[segments.vector_image_rows[ids[new]]]
        self._blocks_for = (index, min_box_overlap)
        return vectors[:end], labels[:end], weights[:end], ids[:end]

    def _grow(self, store: "VectorStore", rows: int) -> None:
        """Room for at least ``rows`` rows, at twice the old length or more: a
        session copies its rows O(log rows) times, never the whole index."""
        capacity = max(rows, 2 * len(self._arrays[3]) if self._arrays else 0)
        grown = (
            np.empty((capacity, store.dim), dtype=store.compute_dtype),
            np.empty(capacity),
            np.empty(capacity),
            np.empty(capacity, dtype=np.int64),
        )
        for old, new in zip(self._arrays, grown):
            new[: self._size] = old[: self._size]
        self._arrays = grown

    def to_patch_labels(
        self, index: "SeeSawIndex", min_box_overlap: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A fresh copy of :meth:`training_set`'s ``(vectors, labels, vector_ids)``."""
        vectors, labels, _, vector_ids = self.to_weighted_patch_labels(index, min_box_overlap)
        return vectors, labels, vector_ids

    def to_weighted_patch_labels(
        self, index: "SeeSawIndex", min_box_overlap: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A fresh copy of :meth:`training_set`.

        The weights of 1 / (patches per image) keep each *image* contributing
        one unit to the data term: with the multiscale representation a
        single image contributes an order of magnitude more labelled vectors
        than a coarse index does, so the loss weights behave the same in
        both regimes.
        """
        vectors, labels, weights, vector_ids = self.training_set(index, min_box_overlap)
        if vector_ids.size == 0:
            dim = index.store.dim
            return np.zeros((0, dim)), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64)
        return vectors.copy(), labels.copy(), weights.copy(), vector_ids.copy()

    def to_image_labels(self) -> "dict[int, float]":
        """Image-level labels (1 relevant / 0 not), used by coarse-only methods."""
        return {
            feedback.image_id: 1.0 if feedback.relevant else 0.0
            for feedback in self._items.values()
        }


def _label_block(
    feedback: BoxFeedback, index: "SeeSawIndex", min_box_overlap: float
) -> tuple[np.ndarray, np.ndarray]:
    """One judged image's ``(vector_ids, labels)``: a patch is positive when
    its box overlaps a feedback box by more than ``min_box_overlap``.

    One broadcast over (patches x feedback boxes), bit for bit
    :meth:`BoundingBox.intersection`: the same edge sums, min minus max, and
    a zero area unless both overlaps are positive.
    """
    segments = index.segments
    vector_ids = segments.vector_ids_for_row(segments.row_for_image(feedback.image_id))
    labels = np.zeros(vector_ids.size, dtype=np.float64)
    if feedback.relevant:
        patches = index.patch_boxes[vector_ids][:, None, :]
        boxes = np.array(
            [(b.x, b.y, b.width, b.height) for b in feedback.boxes], dtype=np.float64
        )
        overlap_w = np.minimum(
            patches[..., 0] + patches[..., 2], boxes[:, 0] + boxes[:, 2]
        ) - np.maximum(patches[..., 0], boxes[:, 0])
        overlap_h = np.minimum(
            patches[..., 1] + patches[..., 3], boxes[:, 1] + boxes[:, 3]
        ) - np.maximum(patches[..., 1], boxes[:, 1])
        areas = np.where(
            (overlap_w > 0) & (overlap_h > 0), overlap_w * overlap_h, 0.0
        )
        labels[(areas > min_box_overlap).any(axis=1)] = 1.0
    return vector_ids, labels
