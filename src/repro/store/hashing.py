"""Content hashing: a stable key identifying one buildable index.

The cache key must change whenever the built artifacts would change — a
different dataset, a different embedding model, or different preprocessing
configuration — and must stay identical across processes so a second server
start finds the artifacts the first one wrote.  The key is the SHA-256 of a
canonical JSON fingerprint of all three inputs.  Every entry holds an exact
store; the runtime tiers (quantized, graph-ANN, sharded) are derived from its
vectors at load time, so none of their knobs enters the key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.config import SeeSawConfig
from repro.data.dataset import ImageDataset
from repro.embedding.base import EmbeddingModel

FORMAT_VERSION = 3
"""Bumped whenever the on-disk layout changes; part of every cache key so
stale-format entries are simply never matched."""


def dataset_fingerprint(dataset: ImageDataset) -> "dict[str, Any]":
    """A JSON-serializable identity of the dataset content.

    Covers everything the index build reads: image geometry, contexts, and
    the object annotations the synthetic embedding derives vectors from.
    """
    return {
        "name": dataset.name,
        "categories": [
            {
                "name": info.name,
                "alignment_deficit": info.alignment_deficit,
                "locality_noise": info.locality_noise,
                "frequency": info.frequency,
            }
            for info in dataset.categories
        ],
        "images": [
            {
                "id": image.image_id,
                "size": [image.width, image.height],
                "context": image.context,
                "objects": [
                    [
                        instance.category,
                        instance.instance_id,
                        instance.distinctiveness,
                        [
                            instance.box.x,
                            instance.box.y,
                            instance.box.width,
                            instance.box.height,
                        ],
                    ]
                    for instance in image.objects
                ],
            }
            for image in dataset.images
        ],
    }


def config_fingerprint(config: SeeSawConfig) -> "dict[str, Any]":
    """The configuration sections that affect what gets built.

    Runtime-only knobs (loss weights, optimizer settings, task cutoffs, the
    cache directory itself) are deliberately excluded: changing them must not
    invalidate the preprocessed artifacts.
    """
    full = config.to_dict()
    fingerprint: "dict[str, Any]" = {
        "embedding_dim": full["embedding_dim"],
        "seed": full["seed"],
        "multiscale": full["multiscale"],
        "knn": full["knn"],
    }
    # The compute dtype changes the serialized artifacts (vectors are stored
    # in it), so non-default tiers get their own entries.  It is added only
    # when non-default so every float64 key — including entries written
    # before the dtype tier existed — keeps matching.  Purely runtime tiers
    # (quantization, sharding, mmap) stay excluded: they are derived from
    # the same on-disk artifacts at load time.
    if full["compute_dtype"] != "float64":
        fingerprint["compute_dtype"] = full["compute_dtype"]
    return fingerprint


def index_cache_key(
    dataset: ImageDataset, embedding: EmbeddingModel, config: SeeSawConfig
) -> str:
    """The cache key (hex digest) for one (dataset, embedding, config) build."""
    fingerprint = {
        "format": FORMAT_VERSION,
        "dataset": dataset_fingerprint(dataset),
        "embedding": embedding.fingerprint(),
        "config": config_fingerprint(config),
    }
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
