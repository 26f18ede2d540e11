"""In-memory spans around the program's layer entry points.

:class:`Tracer` wraps the public entry point of each layer — the
``Session`` methods, ``OptimizerEngine.optimize_layers``,
``LayerOptimizer.optimize``, hierarchy allocation, the search-space
builders, columnar batch scoring, scalar evaluation, the config store,
both simulators and the serve worker — by replacing the attribute the
caller looks up, and restores every attribute on :meth:`Tracer.uninstall`.
No file of the program changes.  Functions that ``repro.optimizer.search``
imports by name (``allocate_hierarchy``, ``evaluate``, ...) are wrapped in
the namespaces that call them, since replacing them at their definition
would not reach those bound names.

A span is ``(name, start_s, end_s, parent, op, attrs)``; ``parent`` is
the index of the enclosing span on the same thread (``-1`` for none) and
``op`` the identifier of the benchmark op that caused it.  Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.core.batch as core_batch
import repro.optimizer.engine as opt_engine
import repro.optimizer.search as opt_search
import repro.sim.pipeline_sim as sim_pipeline
import repro.sim.trace as sim_trace
from repro.api import Session
from repro.core.batch import CandidateBatch
from repro.optimizer.engine import OptimizerEngine
from repro.optimizer.search import LayerOptimizer
from repro.serve.engine import ServeEngine

SESSION_METHODS = (
    "optimize_layer",
    "optimize_network",
    "engine",
    "build_network",
    "trace",
    "simulate",
)
_ENGINE_COUNTERS = ("memo_hits", "searched", "coalesced")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str | None
    attrs: dict[str, Any]


def _attrs_for(name: str, args: tuple, result: Any) -> dict[str, Any]:
    """Counts recorded with a span, read from its call and result."""
    if name == "core.batch":
        return {"rows": len(args[0])}
    if name == "optimizer.search":
        return {"evaluated": result.evaluated, "pruned": result.pruned}
    if name == "optimizer.config_store.get":
        return {"hit": result is not None}
    if name == "sim.pipeline_sim":
        return {"tiles": result.tiles}
    return {}


class Tracer:
    """Records spans while installed; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []
        #: Serve request id -> index of its ``serve.request`` span.
        self.request_spans: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Attribute spans opened on this thread to benchmark op ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[Span]:
        stack = self._stack()
        record = Span(
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=(stack[-1] if stack else -1) if parent is None else parent,
            op=getattr(self._local, "op", None),
            attrs={},
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def begin_request(self, request_id: str, start: float) -> None:
        """Open a ``serve.request`` span with no enclosing span: requests
        interleave on the event loop thread.  The worker span of the same
        request takes it as parent."""
        with self._lock:
            self.spans.append(
                Span("serve.request", start, float("nan"), -1, request_id, {})
            )
            self.request_spans[request_id] = len(self.spans) - 1

    def end_request(self, request_id: str, end: float) -> None:
        self.spans[self.request_spans[request_id]].end = end

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, name: str) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                record.attrs.update(_attrs_for(name, args, result))
                return result

        setattr(owner, attr, wrapper)
        if had_own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def _patch_engine(self) -> None:
        original = OptimizerEngine.optimize_layers
        tracer = self

        @functools.wraps(original)
        def optimize_layers(engine, layers):
            before = [getattr(engine.stats, c) for c in _ENGINE_COUNTERS]
            with tracer.span("optimizer.engine") as record:
                result = original(engine, layers)
                for counter, start in zip(_ENGINE_COUNTERS, before):
                    record.attrs[counter] = (
                        getattr(engine.stats, counter) - start
                    )
                return result

        OptimizerEngine.optimize_layers = optimize_layers
        self._restore.append(
            lambda: setattr(OptimizerEngine, "optimize_layers", original)
        )

    def _patch_serve(self) -> None:
        """The serve worker body runs one admitted request on a pool
        thread; its span joins the request's op and parent."""
        original = ServeEngine._execute
        tracer = self

        @functools.wraps(original)
        def execute(engine, ticket, emit):
            with tracer.op(ticket.request_id), tracer.span(
                "serve.execute",
                parent=tracer.request_spans.get(ticket.request_id, -1),
            ):
                return original(engine, ticket, emit)

        ServeEngine._execute = execute
        self._restore.append(
            lambda: setattr(ServeEngine, "_execute", original)
        )

    def install(self, store_types: tuple[type, ...] = ()) -> None:
        for method in SESSION_METHODS:
            self._patch(Session, method, "api")
        self._patch_engine()
        self._patch(LayerOptimizer, "optimize", "optimizer.search")
        self._patch(opt_search, "allocate_hierarchy", "optimizer.allocation")
        self._patch(opt_search, "candidate_blocks", "optimizer.space")
        self._patch(opt_search, "last_level_tile_candidates", "optimizer.space")
        self._patch(CandidateBatch, "best", "core.batch")
        self._patch(CandidateBatch, "scores", "core.batch")
        for namespace in (opt_search, core_batch, opt_engine):
            self._patch(namespace, "evaluate", "core.evaluate")
        for store_type in store_types:
            self._patch(store_type, "get", "optimizer.config_store.get")
            self._patch(store_type, "put", "optimizer.config_store.put")
        self._patch(sim_trace, "trace_dataflow", "sim.trace")
        self._patch(sim_pipeline, "simulate_pipeline", "sim.pipeline_sim")
        self._patch_serve()

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextlib.contextmanager
    def installed(self, store_types: tuple[type, ...] = ()) -> Iterator[None]:
        self.install(store_types)
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (times in seconds on
        the host's ``perf_counter`` clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.name, s.start, s.end, s.parent, s.op, s.attrs]
            for s in self.spans
        ]
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "attrs"],
             "spans": rows},
            separators=(",", ":"),
        ))


# ----------------------------------------------------------------------
# Per-layer figures from a finished trace
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0  #: outermost spans of the name, summed
    self_s: float = 0.0  #: span time not covered by child spans
    attrs: dict[str, float] = dataclasses.field(default_factory=dict)


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, busy time, self time and summed counts per span name."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    totals: dict[str, LayerTotals] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, LayerTotals())
        duration = span.end - span.start
        entry.calls += 1
        entry.self_s += duration - child_s[index]
        if not _nested_in_same(spans, index):
            entry.busy_s += duration
        for key, value in span.attrs.items():
            entry.attrs[key] = entry.attrs.get(key, 0) + value
    return totals


def _nested_in_same(spans: list[Span], index: int) -> bool:
    name = spans[index].name
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
