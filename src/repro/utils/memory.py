"""Keeping glibc's heap from holding memory the program has freed.

glibc's malloc adapts its mmap threshold: once a large mmapped block is
freed, later blocks up to that size come from the ``brk`` heap instead, and
a few small long-lived allocations near the top of that heap keep the freed
space resident.  :func:`freeze_heap_thresholds` fixes the thresholds, so
corpus-sized blocks are mmapped and go back to the OS when freed;
:func:`release_free_heap` (``malloc_trim(0)``) hands back what the heap
still holds after a bulk release (a cold index build or a live merge
dropping its temporaries).  Both are no-ops on C libraries without the
symbols, such as macOS's and musl.
"""

from __future__ import annotations

import functools
from typing import Callable

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
"""glibc's ``mallopt`` parameter numbers (``<malloc.h>``)."""

MMAP_THRESHOLD_BYTES = 2 * 1024 * 1024
"""Blocks at least this large are mmapped: the kNN scan's similarity block,
a merge's gathered corpus, the Laplacian product.  A feedback round's
training-set gather stays below it; at 128 KiB each gather took a fresh
mapping, 180–260 more minor page faults per round on the benchmark."""

TRIM_THRESHOLD_BYTES = 4 * 1024 * 1024
"""Free space at the top of the heap that ``free`` leaves in place.  Left
where glibc had it when the mmap threshold was fixed (128 KiB by default),
``free`` trims the heap top after request-sized blocks and the next round
faults it back in: 150–205 more minor page faults per round."""


def _libc_function(name: str, argtypes: list) -> "Callable[..., int] | None":
    """One C library function returning ``int``, or ``None`` where it is missing."""
    import ctypes  # only a process that builds, merges or serves pays for the import

    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        # macOS and musl have no malloc_trim or mallopt; Windows has no CDLL(None).
        return None
    function.argtypes = argtypes
    function.restype = ctypes.c_int
    return function


@functools.lru_cache(maxsize=1)
def _malloc_trim() -> "Callable[[int], int] | None":
    """glibc's ``malloc_trim``, or ``None`` where the C library lacks it."""
    import ctypes

    return _libc_function("malloc_trim", [ctypes.c_size_t])


@functools.lru_cache(maxsize=1)
def _mallopt() -> "Callable[[int, int], int] | None":
    """glibc's ``mallopt``, or ``None`` where the C library lacks it."""
    import ctypes

    return _libc_function("mallopt", [ctypes.c_int, ctypes.c_int])


def release_free_heap() -> bool:
    """Give freed heap pages back to the OS; ``False`` where unsupported."""
    trim = _malloc_trim()
    if trim is None:
        return False
    trim(0)
    return True


def freeze_heap_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds for the whole process.

    Sets :data:`MMAP_THRESHOLD_BYTES` and :data:`TRIM_THRESHOLD_BYTES`,
    which also turns off glibc's dynamic adjustment of both and overrides
    any ``MALLOC_MMAP_THRESHOLD_`` / ``MALLOC_TRIM_THRESHOLD_`` environment
    variable.  Idempotent.  ``False`` where ``mallopt`` is unsupported.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return False
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1
    return mmap_set and trim_set
