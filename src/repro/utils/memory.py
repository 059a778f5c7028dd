"""Returning freed heap memory to the operating system.

glibc's malloc serves large temporaries from the ``brk`` heap once its
dynamic mmap threshold has grown, and a few small long-lived allocations
near the top of that heap keep the freed space resident.  After a bulk
release (a cold index build or a live merge dropping its temporaries)
``malloc_trim(0)`` hands those pages back.
"""

from __future__ import annotations

import functools
from typing import Callable


@functools.lru_cache(maxsize=1)
def _malloc_trim() -> "Callable[[int], int] | None":
    """glibc's ``malloc_trim``, or ``None`` where the C library lacks it."""
    import ctypes  # only a process that builds or merges pays for the import

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        # macOS and musl have no malloc_trim; Windows has no CDLL(None).
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_free_heap() -> bool:
    """Give freed heap pages back to the OS; ``False`` where unsupported."""
    trim = _malloc_trim()
    if trim is None:
        return False
    trim(0)
    return True
