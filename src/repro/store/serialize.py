"""Serialize a built :class:`SeeSawIndex` to disk and load it back.

The expensive preprocessing outputs — patch vectors, kNN graph, DB-alignment
matrix — and the patch table (boxes, scale levels, the image segment
layout) are written as raw ``.npy`` artifacts (one file per array), which
:func:`load_index` can open with ``mmap_mode="r"``: a cold start then *maps*
the arrays instead of reading them into a private copy, and the vector
store adopts the mapping zero-copy (its construction keeps read-only input
as-is — its one sequential unit-norm validation pass reads the pages
through the OS page cache, so a restart on a warm machine touches no disk
at all, and the mapped corpus stays evictable and shared across server
processes).  An entry in any other layout, or one whose arrays or metadata
do not fit together, is refused with :class:`StoreError`, which the index
cache treats as a miss and rebuilds.

An entry always loads as an :class:`ExactVectorStore`.  Whatever tier wraps
the store at save time (quantized, graph-ANN, sharded), only its vectors
are written: tiers are runtime wraps the service re-applies after loading.

The configuration and build report go into a small JSON sidecar that holds
no per-vector or per-image list.  The dataset and embedding model
themselves are *not* serialized: they are cheap to recreate
deterministically and the loader receives live instances, which keeps the
on-disk format small and free of pickled code.  Arrays are stored in the
store's compute dtype, so a float32 index is both half the bytes on disk
and zero-copy at load.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.config import SeeSawConfig
from repro.core.indexing import IndexBuildReport, SeeSawIndex
from repro.data.dataset import ImageDataset
from repro.embedding.base import EmbeddingModel
from repro.engine import ImageSegments
from repro.exceptions import ConfigurationError, IndexingError, StoreError
from repro.knng.graph import KnnGraph
from repro.store.hashing import FORMAT_VERSION
from repro.utils.linalg import assert_no_copy
from repro.vectorstore.exact import ExactVectorStore

META_FILE = "index.json"

ARRAY_NAMES = (
    "vectors",
    "patch_boxes",
    "patch_levels",
    "image_ids",
    "image_offsets",
    "knn_neighbor_ids",
    "knn_neighbor_weights",
    "db_matrix",
)
"""The array artifacts an entry may hold, one ``<name>.npy`` file each
(the first five are always present, the kNN graph and ``M_D`` optional)."""

REQUIRED_META = (
    "dataset_name",
    "embedding_dim",
    "config",
    "knn_sigma",
    "build_report",
)
"""Keys every ``index.json`` must carry besides the two format fields."""


def write_json_atomic(path: "str | os.PathLike[str]", payload: object) -> Path:
    """Write ``payload`` as canonical JSON with crash-safe durability.

    The registry's manifests are the pointers that make a dataset version
    real: a crash mid-publish must leave either the old manifest or the new
    one, never a truncated file, and the surviving file must actually be on
    the platter.  Three steps buy that: the JSON is written to a unique
    sibling temp file, ``fsync``-ed so the *content* is durable before any
    name points at it, then moved over ``path`` with atomic ``os.replace``;
    finally the parent directory is ``fsync``-ed so the rename itself
    survives power loss.  Readers concurrently opening ``path`` see the old
    or the new bytes, never a mix.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.remove(tmp_name)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(target.parent, os.O_RDONLY)
    except OSError:
        return target  # platform without directory fds; rename is still atomic
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return target


def save_index(index: SeeSawIndex, directory: "str | os.PathLike[str]") -> Path:
    """Write ``index`` under ``directory`` (created if missing).

    Each array goes into its own raw ``<name>.npy`` so the loader can
    memory-map it.  The write is atomic at the directory level: files are
    assembled in a temporary sibling directory first and moved into place
    with ``os.replace`` so a concurrent reader never observes a half-written
    entry.
    """
    target = Path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    segments = index.segments
    if not segments.contiguous:
        raise StoreError(
            "only an index whose images own contiguous vector ranges can be "
            "saved (a sealed build, not a live view)"
        )
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=target.parent))
    try:
        arrays: dict[str, np.ndarray] = {
            "vectors": np.asarray(index.store.vectors),
            "patch_boxes": index.patch_boxes,
            "patch_levels": index.patch_levels,
            "image_ids": segments.image_ids,
            "image_offsets": segments.offsets,
        }
        if index.knn_graph is not None:
            arrays["knn_neighbor_ids"] = index.knn_graph.neighbor_ids
            arrays["knn_neighbor_weights"] = index.knn_graph.neighbor_weights
        if index.db_matrix is not None:
            arrays["db_matrix"] = index.db_matrix
        for name, array in arrays.items():
            np.save(staging / f"{name}.npy", array, allow_pickle=False)

        report = index.build_report
        meta: dict[str, object] = {
            "format_version": FORMAT_VERSION,
            "arrays_format": "npy",
            "dataset_name": index.dataset.name,
            "embedding_dim": index.embedding.dim,
            "config": index.config.to_dict(),
            "knn_sigma": None if index.knn_graph is None else index.knn_graph.sigma,
            "build_report": {
                "dataset_name": report.dataset_name,
                "image_count": report.image_count,
                "vector_count": report.vector_count,
                "embedding_seconds": report.embedding_seconds,
                "store_seconds": report.store_seconds,
                "graph_seconds": report.graph_seconds,
                "multiscale": report.multiscale,
            },
        }
        write_json_atomic(staging / META_FILE, meta)

        if (target / META_FILE).exists():
            # Another writer finished first; its entry is equivalent by key.
            shutil.rmtree(staging, ignore_errors=True)
        else:
            if target.exists():
                # Leftover from an interrupted write; clear it out of the way.
                shutil.rmtree(target, ignore_errors=True)
            try:
                os.replace(staging, target)
            except OSError:
                if not (target / META_FILE).exists():
                    raise
                shutil.rmtree(staging, ignore_errors=True)
        return target
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _load_arrays(source: Path, mmap: bool) -> "dict[str, np.ndarray]":
    """The entry's arrays, memory-mapped when the caller allows.

    Each ``.npy`` file opens with ``mmap_mode="r"`` (nothing is copied into
    private memory; reads go through the OS page cache).
    """
    loaded: "dict[str, np.ndarray]" = {}
    for name in ARRAY_NAMES:
        path = source / f"{name}.npy"
        if not path.exists():
            continue
        try:
            loaded[name] = np.load(
                path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except (OSError, ValueError) as exc:
            raise StoreError(f"Corrupt array artifact at '{path}': {exc}") from exc
    if "vectors" not in loaded:
        raise StoreError(f"No serialized index at '{source}'")
    return loaded


def load_index(
    directory: "str | os.PathLike[str]",
    dataset: ImageDataset,
    embedding: EmbeddingModel,
    mmap: bool = True,
) -> SeeSawIndex:
    """Reconstruct a :class:`SeeSawIndex` previously written by :func:`save_index`.

    ``dataset`` and ``embedding`` must be the live instances the index was
    built from (the cache key guarantees this when loading through
    :class:`repro.store.cache.IndexCache`); basic identity checks guard
    against loading mismatched artifacts directly.  With ``mmap`` true (the
    default) the arrays are memory-mapped read-only and the vector
    store adopts the mapping zero-copy; pass false to force materialised
    arrays (e.g. when the cache directory may be deleted while in use).
    """
    source = Path(directory)
    meta_path = source / META_FILE
    if not meta_path.exists():
        raise StoreError(f"No serialized index at '{source}'")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"Corrupt index metadata at '{meta_path}': {exc}") from exc
    if meta.get("format_version") != FORMAT_VERSION:
        raise StoreError(
            f"Index at '{source}' has format version {meta.get('format_version')}, "
            f"expected {FORMAT_VERSION}"
        )
    if meta.get("arrays_format") != "npy":
        raise StoreError(
            f"Index at '{source}' has arrays format "
            f"{meta.get('arrays_format')!r}, expected 'npy'"
        )
    missing = [key for key in REQUIRED_META if key not in meta]
    if missing:
        raise StoreError(f"Index at '{source}' lacks metadata keys {missing}")
    if meta["dataset_name"] != dataset.name:
        raise StoreError(
            f"Index at '{source}' was built for dataset '{meta['dataset_name']}', "
            f"not '{dataset.name}'"
        )
    dim = embedding.dim
    if meta["embedding_dim"] != dim:
        raise StoreError(
            f"Index at '{source}' stores {meta['embedding_dim']}-d vectors but the "
            f"embedding model produces {dim}-d vectors"
        )
    try:
        config = SeeSawConfig.from_dict(meta["config"])
    except ConfigurationError as exc:
        raise StoreError(f"Index at '{source}' has an unreadable config: {exc}") from exc
    try:
        report_meta = meta["build_report"]
        report = IndexBuildReport(
            dataset_name=report_meta["dataset_name"],
            image_count=int(report_meta["image_count"]),
            vector_count=int(report_meta["vector_count"]),
            embedding_seconds=float(report_meta["embedding_seconds"]),
            store_seconds=float(report_meta["store_seconds"]),
            graph_seconds=float(report_meta["graph_seconds"]),
            multiscale=bool(report_meta["multiscale"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"Index at '{source}' has malformed metadata: {exc!r}") from exc

    arrays = _load_arrays(source, mmap)
    vectors = arrays["vectors"]
    if vectors.ndim != 2 or vectors.shape[1] != dim:
        raise StoreError(
            f"Index at '{source}' holds vectors of shape {vectors.shape}, "
            f"expected (N, {dim})"
        )
    count = vectors.shape[0]
    _check_patch_table(source, arrays, count, dataset)
    store = ExactVectorStore(vectors)
    if mmap and isinstance(vectors, np.memmap):
        # The zero-copy cold-start guarantee, enforced at runtime: the store
        # must have adopted the read-only mapping, not silently copied it.
        # save_index only ever writes canonical (unit or zero) rows, so a
        # copy here means the artifact was tampered with or corrupted —
        # raised as StoreError so IndexCache treats the entry as a miss
        # (evict + rebuild) instead of wedging every future cold start.
        try:
            assert_no_copy(vectors, store.vectors)
        except AssertionError as exc:
            raise StoreError(
                f"Index at '{source}' holds non-canonical vectors (the store "
                f"renormalised them instead of adopting the mapping): {exc}"
            ) from exc

    knn_graph = _load_knn_graph(source, arrays, meta["knn_sigma"], count)
    db_matrix = arrays.get("db_matrix")
    if db_matrix is not None and db_matrix.shape != (dim, dim):
        raise StoreError(
            f"Index at '{source}' holds a db_matrix of shape {db_matrix.shape}, "
            f"expected {(dim, dim)}"
        )
    try:
        return SeeSawIndex(
            dataset=dataset,
            embedding=embedding,
            store=store,
            segments=ImageSegments(
                arrays["image_ids"], np.arange(count), arrays["image_offsets"], count
            ),
            patch_boxes=arrays["patch_boxes"],
            patch_levels=arrays["patch_levels"],
            knn_graph=knn_graph,
            db_matrix=db_matrix,
            config=config,
            build_report=report,
        )
    except IndexingError as exc:
        # Offsets that do not partition the vectors, a segment not led by its
        # coarse patch, an empty box: the entry is corrupt, so it is a miss.
        raise StoreError(f"Index at '{source}' has an invalid patch table: {exc}") from exc


def _check_patch_table(
    source: Path, arrays: "dict[str, np.ndarray]", count: int, dataset: ImageDataset
) -> None:
    """The patch-table arrays must have the shapes and dtypes the index reads
    and list ``dataset``'s images in order; the index checks the rest."""
    images = len(dataset)
    expected = {
        "patch_boxes": ((count, 4), np.float64),
        "patch_levels": ((count,), np.int8),
        "image_ids": ((images,), np.int64),
        "image_offsets": ((images + 1,), np.int64),
    }
    for name, (shape, dtype) in expected.items():
        array = arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            found = "nothing" if array is None else f"{array.dtype} {array.shape}"
            raise StoreError(
                f"Index at '{source}' holds {found} as {name}, expected "
                f"{np.dtype(dtype)} {shape}"
            )
    dataset_ids = np.fromiter(
        (image.image_id for image in dataset.images), np.int64, count=images
    )
    if not np.array_equal(arrays["image_ids"], dataset_ids):
        raise StoreError(
            f"Index at '{source}' lists other images, or another order, than "
            f"dataset '{dataset.name}'"
        )


def _load_knn_graph(
    source: Path, arrays: "dict[str, np.ndarray]", sigma: object, count: int
) -> "KnnGraph | None":
    """The entry's kNN graph, checked against the ``count`` stored vectors.

    Both neighbour arrays must be ``(count, k)`` and every id must name a
    stored vector, so a truncated or tampered graph is refused here rather
    than failing inside the first Laplacian built from it.
    """
    neighbor_ids = arrays.get("knn_neighbor_ids")
    neighbor_weights = arrays.get("knn_neighbor_weights")
    if neighbor_ids is None and neighbor_weights is None:
        return None
    if neighbor_ids is None or neighbor_weights is None:
        raise StoreError(f"Index at '{source}' holds only half of its kNN graph")
    if (
        neighbor_ids.ndim != 2
        or neighbor_ids.shape[0] != count
        or neighbor_weights.shape != neighbor_ids.shape
    ):
        raise StoreError(
            f"Index at '{source}' holds kNN arrays of shapes {neighbor_ids.shape} "
            f"and {neighbor_weights.shape}, expected ({count}, k) for both"
        )
    if neighbor_ids.size and (
        int(neighbor_ids.min()) < 0 or int(neighbor_ids.max()) >= count
    ):
        raise StoreError(
            f"Index at '{source}' holds kNN neighbour ids outside [0, {count})"
        )
    if not isinstance(sigma, (int, float)):
        raise StoreError(f"Index at '{source}' has a kNN graph without a sigma")
    return KnnGraph(
        neighbor_ids=neighbor_ids, neighbor_weights=neighbor_weights, sigma=float(sigma)
    )
