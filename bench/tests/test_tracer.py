"""Span arithmetic and wrapper transparency of the benchmark's tracer."""

import numpy as np
import pytest

from landauspec import cli, eigentracker, operators, sphbasis
from tracer import Tracer, self_times, summarize


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],   # overlaps b: covered part of a is [1, 6]
        ["d", 2.0, 3.0, 1],
        ["e", 9.0, 12.0, 0],  # runs past a's end: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_nested_wrappers_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("layer.inner", lambda x: x + 1)
    outer = tracer.wrap("layer.outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    # outer [0, 5] holds inner [1, 2] and inner [3, 4].
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    fns, layers = summarize(tracer.spans)
    assert fns["layer.outer"] == {"calls": 1, "self_s": 3.0}
    assert fns["layer.inner"] == {"calls": 2, "self_s": 2.0}
    assert layers == {"layer": 5.0}


def test_wrapper_propagates_exceptions_and_closes_the_span():
    tracer = Tracer()

    def boom():
        raise ZeroDivisionError("boom")

    wrapped = tracer.wrap("layer.boom", boom)
    with pytest.raises(ZeroDivisionError, match="boom"):
        wrapped()
    assert tracer.spans[0][2] is not None
    assert wrapped.__name__ == "boom"
    after = tracer.wrap("layer.after", lambda: None)
    after()
    assert tracer.spans[1][3] is None


def test_counter_is_added_after_a_successful_call():
    tracer = Tracer()
    wrapped = tracer.wrap("layer.f", lambda n: n * 2,
                          counter=("layer.f.total", lambda a, r: r))
    wrapped(3)
    wrapped(4)
    assert tracer.counters["layer.f.total"] == 14


def test_install_patches_every_binding_and_uninstall_restores_them():
    original = operators.assemble_L
    build = sphbasis.QuadratureGrid.__dict__["build"]
    solve = np.linalg.solve
    tracer = Tracer()
    tracer.install()
    try:
        assert operators.assemble_L is not original
        assert eigentracker.assemble_L is operators.assemble_L
        assert cli.assemble_L is operators.assemble_L
        grid = sphbasis.QuadratureGrid.build(8)
        assert isinstance(grid, sphbasis.QuadratureGrid)
        x = np.linalg.solve(np.eye(2), np.ones(2))
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["sphbasis.grid_build", "linalg.solve"]
    assert np.array_equal(x, np.ones(2))
    assert operators.assemble_L is original
    assert eigentracker.assemble_L is original
    assert sphbasis.QuadratureGrid.__dict__["build"] is build
    assert np.linalg.solve is solve


def test_traced_library_call_returns_the_untraced_result():
    plain = operators.assemble_L(1, 16, 0.05).entries
    with Tracer() as tracer:
        tracer.install()
        traced = operators.assemble_L(1, 16, 0.05).entries
    assert np.array_equal(plain, traced)
    fns, _ = summarize(tracer.spans)
    assert fns["operators.assemble_L"]["calls"] == 1
    assert fns["operators.assemble_K"]["calls"] == 1
