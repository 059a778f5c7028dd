"""Abstract interface every embedding model must implement."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.data.geometry import BoundingBox
from repro.data.image import SyntheticImage


class EmbeddingModel(ABC):
    """A visual-semantic embedding: text and image regions share one space.

    All returned vectors are unit L2 norm so that inner product and cosine
    similarity coincide, as assumed throughout the paper.
    """

    @property
    @abstractmethod
    def dim(self) -> int:
        """Dimensionality of the embedding space."""

    def fingerprint(self) -> "dict[str, object]":
        """A JSON-serializable identity of this model, for index cache keys.

        Two models with equal fingerprints must embed identically.  The base
        implementation only captures the class and dimensionality; models with
        internal randomness or tunable parameters must extend it.
        """
        return {"class": type(self).__name__, "dim": self.dim}

    @abstractmethod
    def embed_text(self, query: str) -> np.ndarray:
        """Embed a free-text query string into the shared space."""

    @abstractmethod
    def embed_patches(
        self, image: SyntheticImage, regions: "Sequence[BoundingBox]"
    ) -> np.ndarray:
        """Embed rectangular regions of one image, one row per region.

        The embedding primitive: the index build and live upserts embed each
        image's patches in one call, so per-image work (per-object appearance
        and background directions) is done once per image, not once per
        region.  Returns an ``(len(regions), dim)`` float64 array.
        """

    def embed_region(self, image: SyntheticImage, region: BoundingBox) -> np.ndarray:
        """Embed one rectangular region of an image."""
        return self.embed_patches(image, (region,))[0]

    def embed_image(self, image: SyntheticImage) -> np.ndarray:
        """Embed the whole image (the paper's *coarse* embedding)."""
        return self.embed_region(image, image.full_box)

    def embed_images(self, images: "list[SyntheticImage]") -> np.ndarray:
        """Embed a batch of whole images, one row per image."""
        if not images:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack([self.embed_image(image) for image in images])
