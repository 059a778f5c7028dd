"""CSR-style image segment layout: the columnar patch-to-image mapping.

The multiscale index stores several patch vectors per image.  The legacy
representation was a ``dict[int, tuple[int, ...]]`` mapping image id to its
vector ids — convenient, but every hot-path operation (exclusion sets,
max-pooling patches into images) had to walk it in Python.  This module
replaces it with three flat arrays:

* ``image_ids`` — the indexed image ids, in index order (an image's position
  in this array is its *row*);
* ``order`` / ``offsets`` — CSR layout: ``order[offsets[r]:offsets[r + 1]]``
  are the vector ids of the image at row ``r``;
* ``vector_image_rows`` — the inverse ``vector_id -> row`` int64 column.

With these, pooling per-patch scores into per-image scores is a single
``np.maximum.reduceat`` and exclusion is boolean-mask indexing, no Python
loops and no per-hit objects.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import IndexingError


class ImageSegments:
    """Columnar vector-to-image layout shared by the query engine."""

    __slots__ = (
        "image_ids",
        "order",
        "offsets",
        "vector_image_rows",
        "_row_by_image",
        "_contiguous",
    )

    def __init__(
        self,
        image_ids: np.ndarray,
        order: np.ndarray,
        offsets: np.ndarray,
        vector_count: int,
    ) -> None:
        self.image_ids = np.asarray(image_ids, dtype=np.int64)
        self.order = np.asarray(order, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size != self.image_ids.size + 1:
            raise IndexingError("offsets must have one more entry than image_ids")
        if self.offsets[0] != 0 or self.offsets[-1] != self.order.size:
            raise IndexingError("offsets must start at 0 and end at len(order)")
        lengths = np.diff(self.offsets)
        if lengths.size and lengths.min() < 1:
            # An empty segment would make ``np.maximum.reduceat`` silently
            # return a neighbouring segment's value, so it is rejected here.
            raise IndexingError("every image must contribute at least one vector")
        if self.order.size:
            if self.order.min() < 0 or self.order.max() >= vector_count:
                raise IndexingError("segment vector id out of range")
            # A mark per vector id instead of ``np.unique``'s hash-and-sort:
            # fewer marks than ids means some id was listed twice.
            marked = np.zeros(vector_count, dtype=bool)
            marked[self.order] = True
            if np.count_nonzero(marked) != self.order.size:
                raise IndexingError("a vector id may belong to at most one image")
        self.vector_image_rows = np.full(vector_count, -1, dtype=np.int64)
        self.vector_image_rows[self.order] = np.repeat(
            np.arange(self.image_ids.size, dtype=np.int64), lengths
        )
        self._row_by_image = {
            int(image_id): row for row, image_id in enumerate(self.image_ids)
        }
        if len(self._row_by_image) != self.image_ids.size:
            raise IndexingError("image ids must be unique")
        self._contiguous = bool(
            self.order.size == vector_count
            and np.array_equal(self.order, np.arange(vector_count))
        )
        # The columns are shared by every engine, mask, and context built
        # over this index; freeze them so views handed out (segment slices,
        # the id columns themselves) reject writes instead of silently
        # desynchronizing the layout.
        for column in (self.image_ids, self.order, self.offsets, self.vector_image_rows):
            column.setflags(write=False)

    @classmethod
    def from_mapping(
        cls,
        image_vector_ids: "Mapping[int, Sequence[int]]",
        vector_count: int,
    ) -> "ImageSegments":
        """Build the columnar layout from the legacy id mapping.

        The mapping's iteration order defines the image rows, matching the
        ordering guarantees of ``SeeSawIndex.image_ids`` and
        ``coarse_vector_ids()``.
        """
        image_ids = np.fromiter(
            (int(i) for i in image_vector_ids), dtype=np.int64, count=len(image_vector_ids)
        )
        lengths = np.fromiter(
            (len(ids) for ids in image_vector_ids.values()),
            dtype=np.int64,
            count=len(image_vector_ids),
        )
        offsets = np.zeros(image_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets[-1]:
            order = np.concatenate(
                [np.asarray(ids, dtype=np.int64) for ids in image_vector_ids.values()]
            )
        else:
            order = np.zeros(0, dtype=np.int64)
        return cls(image_ids, order, offsets, vector_count)

    # ------------------------------------------------------------------
    # shape accessors
    # ------------------------------------------------------------------
    @property
    def image_count(self) -> int:
        """Number of image segments."""
        return self.image_ids.size

    @property
    def vector_count(self) -> int:
        """Number of vectors the inverse column covers."""
        return self.vector_image_rows.size

    @property
    def contiguous(self) -> bool:
        """True when row ``r`` owns vectors ``offsets[r]:offsets[r + 1]``."""
        return self._contiguous

    @property
    def counts(self) -> np.ndarray:
        """Vectors per image, aligned with ``image_ids``."""
        return np.diff(self.offsets)

    def row_for_image(self, image_id: int) -> int:
        """The row of one image id."""
        try:
            return self._row_by_image[int(image_id)]
        except KeyError as exc:
            raise IndexingError(f"Image {image_id} is not in the index") from exc

    def rows_for_images(self, image_ids: Iterable[int]) -> np.ndarray:
        """The rows of a collection of image ids (order-preserving)."""
        lookup = self._row_by_image
        try:
            return np.fromiter(
                (lookup[int(i)] for i in image_ids), dtype=np.int64
            )
        except KeyError as exc:
            raise IndexingError(f"Image {exc.args[0]} is not in the index") from exc

    def vector_ids_for_row(self, row: int) -> np.ndarray:
        """The vector ids of the image at one row (read-only slice)."""
        return self.order[self.offsets[row] : self.offsets[row + 1]]

    def first_vector_ids(self) -> np.ndarray:
        """The first stored vector id of every image, in row order."""
        return self.order[self.offsets[:-1]]

    # ------------------------------------------------------------------
    # columnar kernels
    # ------------------------------------------------------------------
    def pool_max(self, vector_scores: np.ndarray) -> np.ndarray:
        """Max-pool per-vector scores into per-image scores (§4.3).

        One ``np.maximum.reduceat`` over the segment offsets; when vector ids
        are already laid out image-by-image (the layout ``SeeSawIndex.build``
        produces) the gather through ``order`` is skipped entirely.
        """
        vector_scores = np.asarray(vector_scores)
        if vector_scores.shape[0] != self.vector_count:
            raise IndexingError(
                f"expected {self.vector_count} vector scores, got {vector_scores.shape[0]}"
            )
        if self.image_count == 0:
            return np.zeros(0, dtype=np.float64)
        segmented = vector_scores if self._contiguous else vector_scores[self.order]
        return np.maximum.reduceat(segmented, self.offsets[:-1])

    def best_vectors_in_rows(
        self, vector_scores: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """The best-scoring vector id of each given image row.

        Only called for the handful of selected top images per round, so a
        short loop over ragged segment slices beats any full-array trick.
        """
        out = np.empty(len(rows), dtype=np.int64)
        for position, row in enumerate(rows):
            segment = self.order[self.offsets[row] : self.offsets[row + 1]]
            out[position] = segment[int(np.argmax(vector_scores[segment]))]
        return out

    def vector_mask_for_rows(self, rows: np.ndarray) -> np.ndarray:
        """Boolean mask over vectors covering the given image rows."""
        mask = np.zeros(self.vector_count, dtype=bool)
        self.mark_vector_mask(mask, rows)
        return mask

    def mark_vector_mask(self, mask: np.ndarray, rows: "np.ndarray | Iterable[int]") -> None:
        """Set the vector positions of the given image rows in ``mask``."""
        if self._contiguous:
            for row in rows:
                mask[self.offsets[row] : self.offsets[row + 1]] = True
        else:
            for row in rows:
                mask[self.order[self.offsets[row] : self.offsets[row + 1]]] = True
