"""In-memory span tracer that instruments a program from the outside.

Each public function of a traced module is replaced by a wrapper on the
module object itself, so calls made inside that module (which look the name
up in the module's globals) go through the wrapper as well.  A wrapper
records one span per call: its function, its parent span, start and end.
Spans stay in memory until :meth:`Tracer.write` stores them once at the end.

A span's self time is its duration minus the time covered by its direct
children.  Every traced item is a root span, so per item the self times of
all layers plus the root's own self time (the part of the item no layer
span covers) add up to the item's wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter_ns

ROOT = "bench.item"


class _Stat:
    __slots__ = ("calls", "raised", "inclusive_ns", "self_ns", "active")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.inclusive_ns = 0  # outermost activations only, so recursion is not counted twice
        self.self_ns = 0
        self.active = 0


class Tracer:
    """Wraps functions, records spans and aggregates per-function statistics."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int]] = []  # (id, parent id, name index, start ns, end ns)
        self.names: list[str] = []
        self.layers: dict[str, str] = {}  # qualified name -> layer
        self.stats: dict[str, _Stat] = {}
        self._index: dict[str, int] = {}
        self._stack: list[list[int]] = []  # frames: [span id, child ns]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _register(self, qual: str, layer: str) -> int:
        if qual not in self._index:
            self._index[qual] = len(self.names)
            self.names.append(qual)
            self.layers[qual] = layer
            self.stats[qual] = _Stat()
        return self._index[qual]

    def _open(self) -> list[int]:
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[int], index: int, stat: _Stat, t0: int, t1: int) -> None:
        self._stack.pop()
        duration = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], parent[0] if parent is not None else -1, index, t0, t1))
        stat.calls += 1
        stat.self_ns += duration - frame[1]
        stat.active -= 1
        if stat.active == 0:
            stat.inclusive_ns += duration

    def wrap(self, qual: str, layer: str, fn, on_return=None):
        """A wrapper around ``fn`` that records a span named ``qual``.

        ``on_return(args, kwargs, result)`` runs after the span has closed,
        so its cost is not attributed to ``fn``.
        """
        index = self._register(qual, layer)
        stat = self.stats[qual]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            stat.active += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                tracer._close(frame, index, stat, t0, perf_counter_ns())
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def instrument(self, modules: dict, namespaces=(), extra=(), hooks=None) -> None:
        """Wrap every public function defined in each module of ``modules``.

        ``modules`` maps a layer name to a module.  Every attribute of the
        given modules and ``namespaces`` that is one of the wrapped function
        objects is replaced, so re-exports and ``from x import f`` bindings
        are traced too.  ``extra`` lists ``(layer, module, attribute)`` for
        foreign functions such as ``numpy.linalg.svd``.  ``hooks`` maps a
        qualified name to an ``on_return`` callback.
        """
        hooks = hooks or {}
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                qual = f"{layer}.{name}"
                wrapped[id(obj)] = (obj, self.wrap(qual, layer, obj, hooks.get(qual)))
        for layer, module, name in extra:
            obj = getattr(module, name)
            qual = f"{layer}.{name}"
            wrapped[id(obj)] = (obj, self.wrap(qual, layer, obj, hooks.get(qual)))
        targets = list(modules.values()) + list(namespaces) + [module for _, module, _ in extra]
        seen = set()
        for target in targets:
            if id(target) in seen:
                continue
            seen.add(id(target))
            for name, obj in list(vars(target).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((target, name, obj))
                    setattr(target, name, hit[1])

    def uninstrument(self) -> None:
        """Put every original function back."""
        for target, name, obj in reversed(self._restore):
            setattr(target, name, obj)
        self._restore.clear()

    @contextmanager
    def root(self):
        """Span covering one item; yields nothing and records on exit."""
        index = self._register(ROOT, "bench")
        stat = self.stats[ROOT]
        frame = self._open()
        stat.active += 1
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, index, stat, t0, perf_counter_ns())

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed per layer, the root spans under ``bench``."""
        out: dict[str, int] = {}
        for qual, stat in self.stats.items():
            layer = self.layers[qual]
            out[layer] = out.get(layer, 0) + stat.self_ns
        return out

    def write(self, path) -> None:
        """Store every recorded span as one JSON document."""
        doc = {
            "names": self.names,
            "layers": [self.layers[q] for q in self.names],
            "columns": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
