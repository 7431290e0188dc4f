"""Spans recorded from outside the library: wrap public callables, keep
spans in memory, write them as JSONL, and reduce them to self times.

A span is ``(id, name, start, end, parent, thread, attrs)``.  The parent
is the innermost open span of the same thread, so spans of one thread
nest properly and a span's *self time* is its duration minus the
durations of its direct children.  Summing self times over every span
of a thread therefore gives back the duration of that thread's root
spans exactly, which is what lets a traced run account for all of its
wall time.

Nothing in ``src/`` is edited: :func:`install` replaces attributes on
the loaded modules and classes and :meth:`Tracer.restore` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by every wrapped callable."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Callable | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``;
        ``attrs(result, args, kwargs)`` may add counters to the span.

        A call that raises still records its span (marked ``raised``):
        the library uses exceptions for fallbacks, and a missing span
        would leave its children's time counted twice."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        span = Span(span_id, name, start, start, parent, threading.get_ident())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.attrs = {"raised": True}
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if attrs is not None:
            span.attrs = attrs(result, args, kwargs)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """One explicit span around a call made by the benchmark itself."""
        return self.call(name, fn, args, kwargs)

    def wrapper(self, name: str, fn: Callable,
                attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first, then unbind wrappers that
        modules imported while tracing copied with ``from x import f``."""
        originals = {}
        while self._patches:
            owner, attr, original = self._patches.pop()
            originals[id(vars(owner)[attr])] = (vars(owner)[attr], original)
            setattr(owner, attr, original)
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])


def write_jsonl(spans: Iterable[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(vars(span)) + "\n")


def read_jsonl(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` + ``qualname`` (``Class.method``
    for methods), recorded under span ``name``."""

    module: str
    qualname: str
    name: str
    attrs: Callable | None = None


def install(tracer: Tracer, targets: Iterable[Target]) -> None:
    """Wrap every target in place.

    Modules come from ``sys.modules`` after importing them: a package
    that re-exports a function under the submodule's own name (as
    ``repro.stabilization.classify`` does) would hand back the function
    to ``import a.b.c as m``.  A plain function is also replaced in every
    loaded ``repro.*`` module that bound it with ``from x import f``;
    methods are replaced on their class.
    """
    for target in targets:
        importlib.import_module(target.module)
        module = sys.modules[target.module]
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    tracer.wrapper(target.name, raw.__func__, target.attrs)
                )
            else:
                wrapped = tracer.wrapper(target.name, raw, target.attrs)
            tracer.patch(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrapper(target.name, original, target.attrs)
        for loaded in _repro_modules():
            for key, value in list(vars(loaded).items()):
                if value is original:
                    tracer.patch(loaded, key, wrapped)


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    spans = list(spans)
    result = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in result:
            result[span.parent] -= span.duration
    return result


@dataclass
class LayerStats:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    attrs: dict[str, float] = field(default_factory=dict)


def by_name(spans: Iterable[Span]) -> dict[str, LayerStats]:
    """Aggregate spans per name.  ``calls`` and ``total_s`` count only
    outermost spans of a name (a recursive or nested call of the same
    layer is not a second call); ``self_s`` sums every span; numeric
    attributes are summed."""
    spans = list(spans)
    names = {span.id: span.name for span in spans}
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, LayerStats())
        entry.self_s += selfs[span.id]
        if names.get(span.parent) != span.name:
            entry.calls += 1
            entry.total_s += span.duration
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry.attrs[key] = entry.attrs.get(key, 0) + value
    return stats
