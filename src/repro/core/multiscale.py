"""Multi-scale, multi-vector image representation (§4.3).

An image maps to one *coarse* patch covering the whole image plus, when the
image is large enough, a grid of finer patches whose side is a fraction of
the image (half by default), strided by half a patch.  Each patch gets its own
vector (an image's patches are embedded in one ``embed_patches`` call); at
query time an image's score is the maximum over its patches.
"""

from __future__ import annotations

import numpy as np

from repro.config import MultiscaleConfig
from repro.data.geometry import BoundingBox

COARSE_LEVEL = 0
FINE_LEVEL = 1


def _strided_positions(image_side: float, patch_side: float, stride: float) -> list[float]:
    """Patch origins along one axis, always including a final edge-aligned one."""
    if patch_side >= image_side:
        return [0.0]
    positions = list(np.arange(0.0, image_side - patch_side + 1e-9, stride))
    last = image_side - patch_side
    if not positions or positions[-1] < last - 1e-6:
        positions.append(last)
    return [float(p) for p in positions]


def generate_patches(
    width: int, height: int, config: "MultiscaleConfig | None" = None
) -> "list[tuple[BoundingBox, int]]":
    """Enumerate the (box, scale_level) patches for an image of the given size.

    The coarse full-image patch is always present.  Finer patches are added
    only when ``config.enabled`` and the patch side would be at least
    ``config.min_patch_pixels`` — e.g. a 224x224 ObjectNet image maps to a
    single coarse vector, while a 1280x720 BDD frame maps to the coarse vector
    plus a grid of 360-pixel patches.
    """
    config = config or MultiscaleConfig()
    patches: list[tuple[BoundingBox, int]] = [
        (BoundingBox.full_image(width, height), COARSE_LEVEL)
    ]
    if not config.enabled:
        return patches
    patch_side = config.patch_fraction * min(width, height)
    if patch_side < config.min_patch_pixels:
        return patches
    stride = config.stride_fraction * patch_side
    xs = _strided_positions(float(width), patch_side, stride)
    ys = _strided_positions(float(height), patch_side, stride)
    for y in ys:
        for x in xs:
            patches.append((BoundingBox(x, y, patch_side, patch_side), FINE_LEVEL))
    return patches


def pool_image_scores(
    patch_scores: np.ndarray, patch_image_ids: np.ndarray
) -> "dict[int, float]":
    """Max-pool patch scores into per-image scores.

    This is the score an image receives at query time: the maximum score of
    any of its patches (§4.3).
    """
    patch_scores = np.asarray(patch_scores, dtype=np.float64)
    patch_image_ids = np.asarray(patch_image_ids)
    scores: dict[int, float] = {}
    for image_id, score in zip(patch_image_ids, patch_scores):
        image_id = int(image_id)
        current = scores.get(image_id)
        if current is None or score > current:
            scores[image_id] = float(score)
    return scores


def patch_columns(
    patches: "list[tuple[BoundingBox, int]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """``generate_patches`` output as columns: a ``(P x 4)`` float64 box
    block (x, y, width, height) and a ``(P,)`` int8 scale-level block."""
    boxes = np.array(
        [(box.x, box.y, box.width, box.height) for box, _ in patches], dtype=np.float64
    )
    levels = np.array([level for _, level in patches], dtype=np.int8)
    return boxes, levels
