"""Self time, span nesting, and restoring every wrapped name."""

from types import SimpleNamespace

import numpy as np
import pytest

import layers
from tracing import Span, Target, Tracer, covered_ns, self_times

from penalearn import oracle, problems, training


def _span(name, start, end, parent):
    return Span(name, start, end, parent, 0, None, False)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("b", 20, 50, 0),     # overlaps a: the union counts once
        _span("c", 90, 120, 0),    # clipped to the parent's end
        _span("a.x", 12, 28, 1),   # a grandchild does not count for root
    ]
    assert self_times(spans) == [100 - 50, 20 - 16, 30, 30, 16]


def test_covered_ns_merges_and_clips():
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(5, 8), (0, 3), (2, 6)], 1, 7) == 6


def test_spans_record_parent_operation_and_errors():
    ns = SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return ns.inner(x) + ns.inner(x)

    ns.inner, ns.outer = inner, outer
    tracer = Tracer([Target(ns, "outer", "outer"), Target(ns, "inner", "inner",
                                                         lambda a, k: a[0])])
    with tracer:
        assert ns.outer(2) == 4
        with pytest.raises(ValueError):
            ns.inner(-1)
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1]
    assert [s.op for s in tracer.spans] == [0, 0, 0, 3]
    assert [s.meta for s in tracer.spans] == [None, 2, 2, -1]
    assert [s.error for s in tracer.spans] == [False, False, False, True]
    assert ns.inner is inner and ns.outer is outer


def _originals():
    return [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in layers.targets()]


def test_every_wrapped_name_is_the_original_after_a_traced_run():
    before = _originals()
    tracer = Tracer(layers.targets())
    with tracer:
        spec = problems.make_problem("rosenbrock-1c")
        training.train(spec, training.TrainConfig(sample_count=20, batch_size=10, epochs=2))
        oracle.solve(spec, np.array([1.0, 0.5]),
                     oracle.OracleConfig(grid_points_per_dim=11, starts=2, descent_steps=5))
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{attr} still wrapped"
    metrics = layers.layer_metrics(tracer.spans, solve_failed=0)
    assert metrics["training.steps"] == 4
    assert metrics["nn.backward.calls"] == 4
    assert metrics["oracle.solve.calls"] == 1
    assert metrics["oracle.grid.points"] == 121


def test_originals_are_restored_when_the_traced_code_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer(layers.targets()):
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original
