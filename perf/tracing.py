"""Spans recorded from outside the program, and their analysis.

The traced server child calls :func:`install` before it serves: the public
callables at each layer boundary are replaced (``setattr`` on the class) by
wrappers that record ``[layer, name, start, end, parent, attrs]`` on a
per-thread stack, in memory.  The child writes them out once, after it has
drained (:meth:`SpanRecorder.dump`).  No file under ``src/`` changes.

The load generator reads the file back with :func:`summarize`.  Both
processes stamp spans with ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on
Linux, one epoch for every process on the machine — so the generator selects
the measured segment's server spans by its own segment start time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYER, NAME, START, END, PARENT, ATTRS = range(6)

SESSION_CALLS = ("start_session", "next_results", "give_feedback", "session_info", "close_session")
LIVE_CALLS = ("upsert_images", "delete_images", "force_merge")
STORE_CALLS = ("score_all", "score_many", "search_arrays")


class SpanRecorder:
    """In-memory span log; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: "list[list[Any]]" = []
        self._local = threading.local()

    def wrap(
        self,
        fn: "Callable[..., Any]",
        layer: str,
        name: str,
        annotate: "Callable[[list[Any], tuple[Any, ...], Any], dict[str, Any] | None] | None" = None,
    ) -> "Callable[..., Any]":
        """``fn`` recorded as one span per call, child of the caller's open span."""
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [layer, name, clock(), 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span[ATTRS] = annotate(span, args, result)
                return result
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def patch(self, cls: type, method: str, layer: str, annotate: Any = None) -> None:
        """Replace ``cls.method`` (plain, inherited or classmethod) by its traced wrapper."""
        raw = cls.__dict__.get(method) or getattr(cls, method)
        name = f"{cls.__name__}.{method}"
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self.wrap(raw.__func__, layer, name, annotate)))
        else:
            setattr(cls, method, self.wrap(raw, layer, name, annotate))

    def dump(self, path: "str | Path") -> None:
        """Write every span, parents as indexes into the list (-1 for roots)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            [
                span[LAYER],
                span[NAME],
                span[START],
                span[END],
                -1 if span[PARENT] is None else index[id(span[PARENT])],
                span[ATTRS],
            ]
            for span in self.spans
        ]
        Path(path).write_text(json.dumps({"clock": "perf_counter", "spans": rows}))


def _store_rows(span: "list[Any]", args: "tuple[Any, ...]", result: Any) -> "dict[str, Any] | None":
    """Rows scored by an outermost store call: store length x query rows."""
    parent = span[PARENT]
    if parent is not None and parent[LAYER] == "vectorstore":
        return None  # a delta/sharded store delegating to its base: counted once
    store, query = args[0], args[1]
    batched = span[NAME].endswith("score_many") and getattr(query, "ndim", 1) == 2
    return {"rows": len(store) * (query.shape[0] if batched else 1)}


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries of the serving stack (call once, before serving)."""
    from repro.core.aligner import SeeSawQueryAligner
    from repro.core.indexing import SeeSawIndex
    from repro.core.seesaw_method import SeeSawSearchMethod
    from repro.core.session import SearchSession
    from repro.live.registry import DatasetRegistry
    from repro.server.app import SeeSawApp
    from repro.server.http import SeeSawRequestHandler
    from repro.server.manager import SessionManager
    from repro.server.service import SeeSawService
    from repro.store.cache import IndexCache
    from repro.vectorstore.base import VectorStore

    for method in ("do_GET", "do_POST", "do_DELETE"):
        recorder.patch(SeeSawRequestHandler, method, "http")
    # One handler instance serves one TCP connection: setup() counts them.
    recorder.patch(SeeSawRequestHandler, "setup", "http.connection")
    recorder.patch(SeeSawApp, "handle_request", "app")
    for method in SESSION_CALLS + LIVE_CALLS:
        recorder.patch(SessionManager, method, "manager")
    for method in SESSION_CALLS:
        recorder.patch(SeeSawService, method, "service")
    for method in LIVE_CALLS:
        recorder.patch(DatasetRegistry, method, "live")
    for method in ("next_batch", "give_feedback"):
        recorder.patch(SearchSession, method, "session")
    recorder.patch(SeeSawSearchMethod, "next_images", "engine")
    recorder.patch(SeeSawSearchMethod, "observe", "aligner")
    recorder.patch(
        SeeSawQueryAligner,
        "align",
        "aligner",
        lambda span, args, result: {"iterations": result.iterations},
    )
    # Every store class the serving stack has loaded by now, a future tier's
    # included: each one's own (non-abstract) scoring methods.
    stores = [VectorStore]
    for cls in stores:
        stores.extend(sub for sub in cls.__subclasses__() if sub not in stores)
        for method in STORE_CALLS:
            raw = cls.__dict__.get(method)
            if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                recorder.patch(cls, method, "vectorstore", _store_rows)
    recorder.patch(
        SeeSawIndex,
        "build",
        "indexing",
        lambda span, args, result: {
            "embed_s": result.build_report.embedding_seconds,
            "graph_s": result.build_report.graph_seconds,
        },
    )
    recorder.patch(IndexCache, "load_or_build", "store")


def summarize(path: "str | Path", segment_start: float, segment_end: float) -> "dict[str, Any]":
    """Per-layer totals of the spans that started inside the measured segment.

    A span's self time is its duration minus its direct children's; a layer's
    is the sum over its spans, so a store delegating to a nested store stays
    one layer.  ``setup`` holds what the child did before it served.
    """
    spans = json.loads(Path(path).read_text())["spans"]
    children_seconds = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children_seconds[span[PARENT]] += span[END] - span[START]
    self_seconds: "dict[str, float]" = defaultdict(float)
    root_seconds = 0.0
    requests = connections = rows_scored = 0
    iterations: "list[int]" = []
    setup: "dict[str, float]" = {"embed_s": 0.0, "graph_s": 0.0, "cache_load_s": 0.0}
    for position, span in enumerate(spans):
        layer, attrs = span[LAYER], span[ATTRS] or {}
        duration = span[END] - span[START]
        if span[START] < segment_start:
            if layer == "indexing" and not setup["embed_s"]:
                setup["embed_s"], setup["graph_s"] = attrs["embed_s"], attrs["graph_s"]
            elif layer == "store" and not setup["cache_load_s"]:
                setup["cache_load_s"] = duration
            continue
        if span[START] > segment_end:
            continue
        if layer == "http.connection":
            connections += 1
            continue
        self_seconds[layer] += duration - children_seconds[position]
        if span[PARENT] < 0 and layer == "http":
            requests += 1
            root_seconds += duration
        rows_scored += attrs.get("rows", 0)
        if "iterations" in attrs:
            iterations.append(attrs["iterations"])
    return {
        "self_seconds": dict(self_seconds),
        "root_seconds": root_seconds,
        "requests": requests,
        "connections": connections,
        "rows_scored": rows_scored,
        "lbfgs_iterations": iterations,
        "setup": setup,
    }
