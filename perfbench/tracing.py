"""Self-time tracing of the simulator's serving layers, from outside the code.

:meth:`Tracer.install` replaces each layer's public entry points (the
table in :data:`LAYERS`) with thin wrappers that open a ``perf_counter`` span on
entry and close it on exit.  Spans nest: a span's parent is whichever
layer span was open when it started, and a layer's *self time* is its
span time minus the time its child spans cover.  A call that re-enters
the layer already on top of the stack (``PrefixBlockPool.allocate``
calling ``BlockPool.allocate``, ``serve_stats`` called by ``run``) stays
inside the open span, so every layer boundary is counted once.

Closed spans are folded, as they close, into an in-memory call tree keyed
by layer path (``cluster/engine/schedulers/memory``): calls, span time
and self time per node.  :meth:`Tracer.tree` returns it for the traced
run to write out when it ends.

Only layer boundaries are wrapped, never inner helpers: ``free_bytes``
alone runs hundreds of thousands of times per chat run, and timing it
would swamp what it measures.  Wrappers are installed on the class that
*defines* each method, so inherited lookups resolve to the same wrapper
and method identities the engine compares (``decode_run`` against
``Scheduler.decode_run``) keep their relations.
"""

from __future__ import annotations

import time

from repro.perf.system import ServingSystem
from repro.serving import experiments, schedulers
from repro.serving.cluster import ClusterEngine, ClusterTrace
from repro.serving.costs import IterationCostModel
from repro.serving.engine import ServingEngine
from repro.serving.memory import (
    BlockPool,
    PrefixBlockPool,
    PrefixCache,
    SharedPrefixTier,
)
from repro.serving.metrics import DepthSketch, EngineStats, RequestStats
from repro.serving.routing import DisaggregatedRouter, Router
from repro.serving.slots import SlotView
from repro.workloads.requests import Trace

_SCHEDULER_HOOKS = (
    "admit",
    "prepare_iteration",
    "decode_run",
    "on_admit",
    "release",
    "can_restore",
    "on_restore",
)

_SCHEDULER_CLASSES = tuple(
    cls
    for cls in vars(schedulers).values()
    if isinstance(cls, type) and issubclass(cls, schedulers.Scheduler)
)

#: layer -> (owner, attribute) entry points, in report order
LAYERS: dict[str, tuple[tuple[object, str], ...]] = {
    "arrivals": ((experiments, "build_arrival_trace"),),
    "routing": ((Router, "assign"), (DisaggregatedRouter, "assign_pairs")),
    "cluster": (
        (ClusterEngine, "run"),
        (ClusterEngine, "serve"),
        (Trace, "partition"),
    ),
    "engine": (
        (ServingEngine, "run"),
        (ServingEngine, "serve_stats"),
        (ServingEngine, "serve"),
    ),
    "slots": ((SlotView, "from_requests"),),
    "schedulers": tuple(
        (cls, hook)
        for cls in _SCHEDULER_CLASSES
        for hook in _SCHEDULER_HOOKS
        if hook in vars(cls)
    ),
    "memory": tuple(
        (cls, name)
        for cls in (BlockPool, PrefixBlockPool)
        for name in ("allocate", "allocate_reusing", "extend", "release", "publish")
        if name in vars(cls)
    )
    + ((PrefixCache, "match"),),
    "tier": ((SharedPrefixTier, "resolve"), (SharedPrefixTier, "publish")),
    "costs": tuple(
        (IterationCostModel, name)
        for name in (
            "decode_seconds",
            "prefill_seconds",
            "chunk_prefill_seconds",
            "transfer_seconds",
        )
    ),
    "perf": (
        (ServingSystem, "step_latency"),
        (ServingSystem, "prefill_latency"),
    ),
    "metrics": (
        (RequestStats, "observe"),
        (DepthSketch, "observe"),
        (EngineStats, "merge"),
        (EngineStats, "report"),
        (ClusterTrace, "report"),
    ),
}


class Node:
    """One layer path of the folded span tree."""

    __slots__ = ("layer", "children", "calls", "span_s", "self_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.span_s = 0.0
        self.self_s = 0.0

    def to_payload(self) -> dict:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "span_s": self.span_s,
            "self_s": self.self_s,
            "children": [c.to_payload() for c in self.children.values()],
        }


class Tracer:
    """A span stack plus the folded call tree it feeds."""

    def __init__(self):
        self.root = Node("root")
        #: open spans: [node, seconds covered by its closed children]
        self._stack: list[list] = []
        #: extend() calls that found the pool exhausted
        self.extend_failures = 0
        #: extend() calls entered from outside the memory layer
        self.extend_calls = 0
        #: cold perf calls (made from the cost model) per system kind:
        #: kind -> [calls, span seconds]
        self.cold: dict[str, list] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn):
        """``fn`` timed as a ``layer`` span (pass-through on re-entry)."""
        stack = self._stack
        root = self.root
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else root
            if parent.layer == layer:
                return fn(*args, **kwargs)
            node = parent.children.get(layer)
            if node is None:
                node = parent.children[layer] = Node(layer)
            frame = [node, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                node.calls += 1
                node.span_s += span
                node.self_s += span - frame[1]
                if stack:
                    stack[-1][1] += span

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _extend_probe(self, fn):
        """Count outside extend() calls and how many found no room."""
        stack = self._stack

        def extend(pool, *args, **kwargs):
            outside = not stack or stack[-1][0].layer != "memory"
            grew = fn(pool, *args, **kwargs)
            if outside:
                self.extend_calls += 1
                if not grew:
                    self.extend_failures += 1
            return grew

        return extend

    def _cold_probe(self, fn):
        """Time perf calls made by the cost model, per system kind."""
        stack = self._stack
        clock = time.perf_counter

        def priced(system, *args, **kwargs):
            if not stack or stack[-1][0].layer != "costs":
                return fn(system, *args, **kwargs)
            t0 = clock()
            try:
                return fn(system, *args, **kwargs)
            finally:
                entry = self.cold.setdefault(system.kind.value, [0, 0.0])
                entry[0] += 1
                entry[1] += clock() - t0

        return priced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` (before any build)."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for layer, entries in LAYERS.items():
            for owner, name in entries:
                raw = vars(owner)[name]
                self._originals.append((owner, name, raw))
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                # Probes sit outside the span so they see the caller's
                # layer on top of the stack, not their own.
                wrapped = self.wrap(layer, fn)
                if layer == "memory" and name == "extend":
                    wrapped = self._extend_probe(wrapped)
                if layer == "perf":
                    wrapped = self._cold_probe(wrapped)
                setattr(
                    owner,
                    name,
                    classmethod(wrapped) if is_classmethod else wrapped,
                )

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._originals):
            setattr(owner, name, raw)
        self._originals.clear()

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and count (the wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        self.root.children.clear()
        self.extend_failures = 0
        self.extend_calls = 0
        self.cold.clear()

    def layer_totals(self) -> dict[str, dict]:
        """Calls and self seconds per layer, summed over the tree."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}

        def visit(node: Node) -> None:
            for child in node.children.values():
                totals[child.layer]["calls"] += child.calls
                totals[child.layer]["self_s"] += child.self_s
                visit(child)

        visit(self.root)
        return totals

    def top_level_s(self) -> float:
        """Span seconds of every outermost span (what the layers cover)."""
        return sum(c.span_s for c in self.root.children.values())

    def tree(self) -> dict:
        return self.root.to_payload()
