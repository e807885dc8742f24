"""Exact per-pass call counts of each workload, and the checks that count
an operation as failed."""

import json
import os

import pytest

from landauspec.statespace import StateIndexMap

import run
from tracer import Tracer, summarize
from workloads import TRACE_COUNTERS, WORKLOADS, check_track, fresh_dir


def traced_pass(name, seed, work):
    wl = WORKLOADS[name]
    ctx = wl.context(seed, str(work))
    tracer = Tracer()
    tracer.install(counters=TRACE_COUNTERS)
    try:
        ops = wl.in_process(ctx)
    finally:
        tracer.uninstall()
    assert ops and all(not op.problems for op in ops), ops
    fns, _ = summarize(tracer.spans)
    calls = {fn: entry["calls"] for fn, entry in fns.items()}
    return calls, dict(tracer.counters)


def test_track_paper_counts(tmp_path):
    calls, counters = traced_pass("track-paper", 0, tmp_path)
    assert calls["linalg.solve"] == 640
    assert calls["linalg.cond"] == 640
    assert calls["eigentracker.contour_projection"] == 10
    assert calls["operators.assemble_L"] == 20
    assert calls["linalg.eigvals"] == 20
    assert calls["eigentracker.track"] == 2
    assert calls["eigentracker.fit_quadratic"] == 2
    assert calls["cli.write_json"] == 3
    # track and contour_projection each eigensolve 5 grid points per mode
    assert counters["linalg.eigvals.n3"] == sum(
        10 * float(StateIndexMap(m, 24).dim) ** 3 for m in (1, 2))


def test_verify_battery_counts(tmp_path):
    calls, _ = traced_pass("verify-battery", 0, tmp_path)
    assert calls["eigentracker.contour_projection"] == 5
    assert calls["linalg.solve"] == 5 * 64
    assert calls["stokes_spectrum.McalMatrix.determinant"] == 51
    assert calls["eigentracker.zero_mode_check"] == 1
    assert calls["eigentracker.translation_eigenvector"] == 1


def test_kmax_scaling_counts_repeat_and_skip_the_projector(tmp_path):
    first = traced_pass("kmax-scaling", 3, tmp_path)
    calls, counters = first
    assert calls.get("eigentracker.contour_projection", 0) == 0
    assert calls.get("linalg.solve", 0) == 0
    for fn in ("operators.assemble_L", "operators.save_operator",
               "operators.load_operator", "perturbation.split_blocks",
               "perturbation.solve_graph"):
        assert calls[fn] == 6, fn
    assert calls["linalg.eigvals"] == 12
    dims = [StateIndexMap(m, k).dim for k in (24, 48, 96) for m in (1, 2)]
    assert counters["operators.save_operator.bytes"] > 16 * sum(d * d for d in dims)
    assert traced_pass("kmax-scaling", 3, tmp_path) == first


def test_kmax_scaling_draws_epsilon_from_the_seed(tmp_path):
    wl = WORKLOADS["kmax-scaling"]
    eps = [wl.context(seed, str(tmp_path)).epsilon for seed in range(20)]
    assert all(0.03 <= e <= 0.07 for e in eps)
    assert eps == [wl.context(seed, str(tmp_path)).epsilon for seed in range(20)]
    assert len(set(eps)) > 1
    assert WORKLOADS["track-paper"].context(5, str(tmp_path)).epsilon is None


def test_track_check_flags_wrong_ranks_and_changed_bytes(tmp_path):
    ctx = WORKLOADS["track-paper"].context(0, str(tmp_path))
    fresh_dir(ctx.out)

    def write(ranks_m1):
        for name, ranks in (("track_m1.json", ranks_m1), ("track_m2.json", [1] * 5)):
            (tmp_path / "out" / name).write_text(json.dumps({"ranks": ranks}))

    write([2] * 5)
    assert check_track(ctx, 0, "")[0].problems == []
    write([2, 2, 3, 2, 2])
    problems = check_track(ctx, 0, "")[0].problems
    assert any("contour ranks" in p for p in problems)
    assert any("differs from the first pass" in p for p in problems)
    assert check_track(ctx, 2, "")[0].problems[0] == "exit code 2"


def test_parse_importtime_reads_cumulative_and_own_times():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |      50000 | numpy",
        "import time:       200 |     300000 |   scipy.linalg",
        "import time:       300 |     200000 |   scipy.optimize",
        "import time:      1000 |       1000 |     landauspec.landau",
        "import time:      2000 |     600000 | landauspec.cli",
        "import time:       500 |        500 | landauspec",
    ])
    out = run.parse_importtime(stderr)
    assert out == pytest.approx({
        "setup.import_numpy_s": 0.05, "setup.import_scipy_linalg_s": 0.3,
        "setup.import_scipy_optimize_s": 0.2, "setup.import_landauspec_s": 0.0035})


def test_every_per_layer_metric_names_a_traced_quantity():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with Tracer() as tracer:
        tracer.install(counters=TRACE_COUNTERS)
    for metric in spec["per_layer"]:
        if not metric["name"].startswith(("setup.", "trace.")):
            run.layer_value(metric["name"], {}, {}, tracer)
