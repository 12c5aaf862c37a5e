"""Self-time arithmetic and span-parent bookkeeping of the benchmark's tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, ancestor, install, self_times  # noqa: E402


class FakeClock:
    """Advances by one unit per reading, so span bounds are predictable."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, None, None, end=10.0),
        Span("a", 1.0, 0, None, end=3.0),
        Span("b", 2.0, 0, None, end=5.0),   # overlaps a: union 1..5
        Span("c", 8.0, 0, None, end=12.0),  # runs past the parent: clipped to 8..10
        Span("leaf", 2.5, 2, None, end=4.0),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 2, 2.0, 3.0 - 1.5, 4.0, 1.5])


def test_nested_calls_record_parents_and_self_time():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap("middle", middle)
    traced_top = tracer.wrap("top", lambda: traced_middle())
    tracer.op = "op1"
    assert traced_top() == 2

    names = [s.name for s in tracer.spans]
    assert names == ["top", "middle", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert all(s.op == "op1" for s in tracer.spans)
    # clock ticks: top 1..8, middle 2..7, leaf 3..4, leaf 5..6
    assert self_times(tracer.spans) == pytest.approx([2.0, 3.0, 1.0, 1.0])
    assert ancestor(tracer.spans, 3, "top") == 0
    assert ancestor(tracer.spans, 0, "top") is None


def test_exception_closes_span_and_pops_parent():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("no")

    traced_boom = tracer.wrap("boom", boom)
    traced_ok = tracer.wrap("ok", lambda: None)
    with pytest.raises(ValueError):
        traced_boom()
    traced_ok()
    assert tracer.spans[0].failed and tracer.spans[0].end > tracer.spans[0].start
    assert tracer.spans[1].parent is None  # the failed span is no longer open
    assert not tracer.spans[1].failed


def test_labels_and_observers():
    tracer = Tracer(clock=FakeClock())
    fn = tracer.wrap("check", lambda name, x: x * 2, label=lambda a, k: a[0],
                     observe=lambda a, k, r: {"doubled": r})
    assert fn("first", 3) == 6
    assert tracer.spans[0].name == "check[first]"
    assert tracer.spans[0].info == {"doubled": 6}


def test_install_wraps_every_binding_and_restores():
    layer = types.ModuleType("pkg.layer")

    def helper(x):
        return x + 1

    helper.__module__ = "pkg.layer"

    class Table:
        def total(self):
            return 5

    Table.__module__ = "pkg.layer"
    layer.helper = helper
    layer.Table = Table
    layer.alias = helper

    def _hidden():
        return 0

    _hidden.__module__ = "pkg.layer"
    layer._hidden = _hidden
    other = types.ModuleType("pkg.other")
    other.helper = helper  # ``from .layer import helper``
    total = Table.__dict__["total"]

    tracer = Tracer(clock=FakeClock())
    installed = install(tracer, {"layer": layer}, [layer, other])
    assert layer.helper is other.helper is layer.alias is not helper
    assert layer._hidden is _hidden  # private functions are not traced
    assert other.helper(1) == 2 and layer.Table().total() == 5
    assert [s.name for s in tracer.spans] == ["layer.helper", "layer.Table.total"]

    installed.restore()
    assert layer.helper is helper and other.helper is helper
    assert Table.__dict__["total"] is total
    assert Table().total() == 5 and len(tracer.spans) == 2
