"""Spans around calls into a package's public functions.

A :class:`Tracer` wraps functions so that each call records a span: name,
start, end, the span that was open when it began (its parent), the operation
it belongs to, and optionally a few values an observer extracts from the
arguments and result.  :func:`install` swaps the wrappers into every module
namespace that binds the same function object (``loop.asymptotic_profile``
and ``markov.asymptotic_profile`` are one function bound twice) and into the
classes that define public methods; the returned handle restores them.

Spans stay in memory; self time is derived afterwards with
:func:`self_times`.  The tracer assumes a single thread.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: str | None
    end: float = float("nan")
    failed: bool = False
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: str | None = None  # the operation the spans belong to
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, label=None, observe=None) -> Callable:
        """``fn`` recording a span per call.

        ``label(args, kwargs)`` appends ``[label]`` to the span name;
        ``observe(args, kwargs, result)`` returns a dict stored in the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}[{label(args, kwargs)}]" if label else name
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = Span(span_name, self.clock(), parent, self.op)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced


def _interval_union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.end - span.start - _interval_union(children.get(i, ()), span.start, span.end)
            for i, span in enumerate(spans)]


def ancestor(spans: list[Span], index: int, name: str) -> int | None:
    """Index of the nearest enclosing span called ``name``, if any."""
    parent = spans[index].parent
    while parent is not None and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


class Installed:
    """Handle returned by :func:`install`; ``restore()`` undoes the patching."""

    def __init__(self, patches):
        self._patches = patches

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def install(tracer: Tracer, layers: dict, namespaces, labels=None, observers=None) -> Installed:
    """Wrap the public functions and methods defined in each layer module.

    ``layers`` maps a short layer name to its module; the span of
    ``layer.func`` or ``layer.Class.method`` is named that way.  Every
    attribute of every module in ``namespaces`` that is one of the wrapped
    functions is replaced by the same wrapper.
    """
    labels = labels or {}
    observers = observers or {}
    wrappers: dict[int, Callable] = {}
    patches = []
    for short, module in layers.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if id(obj) not in wrappers:
                    name = f"{short}.{obj.__name__}"
                    wrappers[id(obj)] = tracer.wrap(name, obj, labels.get(name),
                                                    observers.get(name))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    name = f"{short}.{attr}.{meth}"
                    patches.append((obj, meth, fn))
                    setattr(obj, meth, tracer.wrap(name, fn, labels.get(name),
                                                   observers.get(name)))
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            wrapper = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
            if wrapper is not None:
                patches.append((namespace, attr, obj))
                setattr(namespace, attr, wrapper)
    return Installed(patches)
