"""SyntheticClip: a deterministic stand-in for the CLIP embedding model.

The real CLIP cannot be shipped or run offline here, so this model generates
unit vectors with the properties the paper's algorithms rely on:

* **Shared space** — text and image regions embed into the same unit sphere,
  relevance is the inner product.
* **Concept locality** — patches showing a category cluster tightly around
  that category's latent concept direction, so a linear model ("ideal query
  vector", Figure 4) separates them nearly perfectly.
* **Alignment deficit** — the text vector of a category sits at an angular
  offset from the concept direction, rotated toward a confuser direction, so
  hard queries genuinely retrieve the wrong content first (Figure 1 / 2a).
* **Coarse dilution** — a whole-image embedding is an area-weighted mixture of
  object and background directions, so small objects nearly vanish from the
  coarse vector and only reappear when the image is tiled into patches
  (the motivation for the multiscale representation, §4.3).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.dataset import CategoryInfo, ImageDataset
from repro.data.geometry import BoundingBox
from repro.data.image import SyntheticImage
from repro.embedding.base import EmbeddingModel
from repro.embedding.concepts import ConceptSpace
from repro.exceptions import EmbeddingError
from repro.utils.linalg import normalize_vector


def _normalize_query_text(text: str) -> str:
    """Map a free-text query to a canonical category-name form."""
    cleaned = text.strip().lower()
    for prefix in ("a photo of a ", "a photo of ", "an ", "a "):
        if cleaned.startswith(prefix):
            cleaned = cleaned[len(prefix):]
            break
    return cleaned.replace(" ", "_")


class SyntheticClip(EmbeddingModel):
    """Deterministic visual-semantic embedding over synthetic scenes.

    Parameters
    ----------
    categories:
        Category metadata (name, prompt, alignment deficit, locality noise).
        Text queries matching a known category are embedded with that
        category's deficit; unknown text gets a deterministic free-form vector.
    dim:
        Embedding dimensionality (the paper's CLIP uses 512; the default here
        is 128 for speed — every algorithm is dimension-agnostic).
    seed:
        Seed for the concept space and all deterministic noise.
    background_strength:
        How strongly scene context contributes to a region embedding.
    clutter_noise:
        Norm of the per-image background clutter added to every region.
    coverage_exponent:
        The contribution of an object to a region vector scales with
        ``coverage ** coverage_exponent`` where coverage is the fraction of
        the region the object occupies.  Values below 1 model CLIP's
        non-linear sensitivity: a clearly visible object produces a solid
        signal even when it covers a modest fraction of the crop, while an
        object covering a sliver of a large image still nearly vanishes.
    """

    def __init__(
        self,
        categories: Iterable[CategoryInfo],
        dim: int = 128,
        seed: int = 0,
        background_strength: float = 0.6,
        clutter_noise: float = 0.08,
        contexts: Iterable[str] = (),
        coverage_exponent: float = 0.5,
    ) -> None:
        self._categories: dict[str, CategoryInfo] = {
            info.name: info for info in categories
        }
        if not self._categories:
            raise EmbeddingError("SyntheticClip requires at least one category")
        self._space = ConceptSpace(dim=dim, seed=seed)
        self._dim = int(dim)
        self.seed = int(seed)
        self.background_strength = float(background_strength)
        self.clutter_noise = float(clutter_noise)
        self.coverage_exponent = float(coverage_exponent)
        self._contexts = tuple(sorted(set(contexts)))
        self._confusers = self._build_confusers()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(
        cls, dataset: ImageDataset, dim: int = 128, seed: int = 0, **kwargs: float
    ) -> "SyntheticClip":
        """Build the embedding model matching a dataset's category catalog."""
        contexts = {image.context for image in dataset.images}
        return cls(dataset.categories, dim=dim, seed=seed, contexts=contexts, **kwargs)

    def _build_confusers(self) -> dict[str, np.ndarray]:
        """Choose, per category, the direction a misaligned query drifts toward.

        A misaligned text query is only *hard* if it ranks content that is
        actually present in the database above the relevant content (Figure
        2a), so the confuser is a blend of another category's concept
        direction and a scene-context direction, both chosen deterministically
        from this model's catalog.
        """
        names = sorted(self._categories)
        confusers: dict[str, np.ndarray] = {}
        for index, name in enumerate(names):
            parts = []
            if len(names) > 1:
                other = names[(index * 7 + 1) % len(names)]
                if other == name:
                    other = names[(index + 1) % len(names)]
                parts.append(0.65 * self._space.concept_vector(other))
            if self._contexts:
                context = self._contexts[index % len(self._contexts)]
                parts.append(0.55 * self._space.context_vector(context))
            if not parts:
                parts.append(self._space.confuser_vector(name))
            confusers[name] = normalize_vector(np.sum(parts, axis=0))
        return confusers

    # ------------------------------------------------------------------
    # EmbeddingModel interface
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def concept_space(self) -> ConceptSpace:
        """The underlying concept space (exposed for analysis and tests)."""
        return self._space

    @property
    def known_categories(self) -> Mapping[str, CategoryInfo]:
        """The category catalog this model was built for."""
        return dict(self._categories)

    def fingerprint(self) -> "dict[str, object]":
        """Identity for index cache keys: seed, knobs, and the category catalog."""
        identity = super().fingerprint()
        identity.update(
            seed=self.seed,
            background_strength=self.background_strength,
            clutter_noise=self.clutter_noise,
            coverage_exponent=self.coverage_exponent,
            contexts=list(self._contexts),
            categories=[
                {
                    "name": info.name,
                    "alignment_deficit": info.alignment_deficit,
                    "locality_noise": info.locality_noise,
                }
                for info in sorted(self._categories.values(), key=lambda c: c.name)
            ],
        )
        return identity

    def embed_text(self, query: str) -> np.ndarray:
        """Embed a text query.

        Known category names (optionally phrased as "a <name>") use the
        category's alignment deficit; unknown strings get a deterministic
        free-form direction, mimicking CLIP's behaviour of returning *some*
        vector for any prompt.
        """
        canonical = _normalize_query_text(query)
        info = self._categories.get(canonical)
        if info is None:
            return self._space.freeform_text_vector(query)
        return self._space.text_vector(
            info.name, info.alignment_deficit, confuser=self._confusers[info.name]
        )

    def concept_vector(self, category: str) -> np.ndarray:
        """The ideal (fully aligned) direction for ``category``."""
        info = self._require_category(category)
        return self._space.concept_vector(info.name)

    def embed_patches(
        self, image: SyntheticImage, regions: "Sequence[BoundingBox]"
    ) -> np.ndarray:
        """Embed regions of one image, one row per region.

        A region vector is a coverage-weighted mixture of the concept
        directions of the objects visible in the region, the scene-context
        direction, and deterministic clutter noise.  Coverage is measured as
        the fraction of the *region* occupied by the object, which is what
        produces coarse-embedding dilution for small objects.

        Each object's appearance direction (keyed by its position in
        ``image.objects``: instance ids need not be unique) and the image's
        background direction are derived at most once per call.  The
        region x object overlap uses only elementwise ``+ - * / min max``
        and each row accumulates its objects in image order, so every row is
        bit-identical to embedding its region on its own.
        """
        clipped = [region.clipped_to(image.width, image.height) for region in regions]
        vectors = np.zeros((len(clipped), self._dim), dtype=np.float64)
        if not clipped:
            return vectors
        # Regions down the rows, objects across the columns.
        rx, ry, rw, rh = np.array(
            [[r.x, r.y, r.width, r.height] for r in clipped], dtype=np.float64
        ).T[:, :, None]
        bx, by, bw, bh = np.array(
            [[o.box.x, o.box.y, o.box.width, o.box.height] for o in image.objects],
            dtype=np.float64,
        ).reshape(-1, 4).T
        # objects_in_region: the fraction of each object's box inside the
        # region; then the fraction of the region the object covers.
        overlap_w = np.minimum(bx + bw, rx + rw) - np.maximum(bx, rx)
        overlap_h = np.minimum(by + bh, ry + rh) - np.maximum(by, ry)
        intersection = np.where(
            (overlap_w > 0.0) & (overlap_h > 0.0), overlap_w * overlap_h, 0.0
        )
        box_area = bw * bh
        visible_fraction = intersection / box_area
        coverage = np.minimum(1.0, (box_area * visible_fraction) / (rw * rh))
        positive = coverage > 0.0  # implies visible_fraction > 0
        weights = np.zeros_like(coverage)
        # Python's float pow: numpy's vectorised pow may differ from libm's
        # in the last bit on some CPUs.
        weights[positive] = [
            value ** self.coverage_exponent for value in coverage[positive].tolist()
        ]
        covered = np.zeros(len(clipped), dtype=np.float64)
        for position in np.flatnonzero(positive.any(axis=0)):
            instance = image.objects[position]
            info = self._categories.get(instance.category)
            locality_noise = info.locality_noise if info is not None else 0.04
            noise = self._space.instance_noise(
                image.image_id, instance.instance_id, locality_noise
            )
            appearance = self._space.concept_vector(instance.category) + noise
            # Rows the object misses add signed zeros, which leave their bits
            # unchanged: no partial sum here is ever -0.
            row_weights = instance.distinctiveness * weights[:, position]
            vectors += row_weights[:, None] * normalize_vector(appearance)
            covered += coverage[:, position]
        background_weight = self.background_strength * np.maximum(
            0.0, 1.0 - np.minimum(covered, 1.0)
        )
        rows = np.flatnonzero(background_weight > 0.0)
        if rows.size:
            background = self._space.context_vector(image.context)
            background = background + self._space.image_noise(
                image.image_id, self.clutter_noise
            )
            vectors[rows] += background_weight[rows, None] * normalize_vector(background)
        empty = ~vectors.any(axis=1)
        if empty.any():
            # A region with no objects and no background weight: fall back to
            # pure per-image clutter so the embedding is still well defined.
            vectors[empty] = self._space.image_noise(image.image_id, 1.0)
        for row in vectors:
            row[:] = normalize_vector(row)
        return vectors

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def alignment_deficit(self, category: str) -> float:
        """The angular deficit configured for ``category`` (radians)."""
        return self._require_category(category).alignment_deficit

    def text_prompt(self, category: str) -> str:
        """The natural-language prompt used to start a search for ``category``."""
        return self._require_category(category).prompt

    def _require_category(self, category: str) -> CategoryInfo:
        info = self._categories.get(category)
        if info is None:
            raise EmbeddingError(f"Unknown category '{category}'")
        return info
