"""The steps by which the benchmark in `bench/` reads the library from
outside, run against the library as it is.

`run.parse_importtime` turns the real `-X importtime` output of
`import landauspec.cli` into the `setup.*` metrics, and `run.layer_value`
resolves every other per-layer name of BENCHMARK.json against an installed
tracer.  Either one raising makes a traced benchmark run exit 1.  Importing
`run` fixes the BLAS thread count and the import path of the process, so
both steps run in a child interpreter.

The correctness checks of `workloads` read the reports' `ranks` and
`cluster` keys and call `eigentracker.CLUSTER_RADIUS`, `cluster_size` and
`perturbation.split_blocks(..., strict=False)`; an operation whose check
finds a problem counts as failed, so each check must pass on the real
outputs.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, os, sys
sys.path.insert(0, os.path.join(os.getcwd(), "bench"))
import run
from tracer import Tracer
from workloads import TRACE_COUNTERS

code, _, stderr, _ = run.run_child(run.IMPORT_CLI, importtime=True)
if code != 0:
    sys.exit(f"import landauspec.cli exited {code}: {stderr[-2000:]}")
setup = run.parse_importtime(stderr)
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    names = [metric["name"] for metric in json.load(fh)["per_layer"]]
with Tracer() as tracer:
    tracer.install(counters=TRACE_COUNTERS)
layers = {name: run.layer_value(name, {}, {}, tracer) for name in names
          if not name.startswith(("setup.", "trace."))}
print(json.dumps({"setup": setup, "layers": layers}))
"""


def test_traced_benchmark_reads_the_library():
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    setup_names = {name for name in names if name.startswith("setup.")}
    assert set(result["setup"]) == setup_names
    assert all(seconds > 0.0 for seconds in result["setup"].values())
    assert set(result["layers"]) == {
        name for name in names if not name.startswith(("setup.", "trace."))}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_track_paper_check_accepts_the_real_reports(workloads, tmp_path):
    ctx = workloads.Context(work=str(tmp_path))
    ops = workloads.check_track(ctx, *workloads.run_cli(
        workloads.track_argv(ctx)))
    assert [op.problems for op in ops] == [[]]


def test_kmax_scaling_checks_accept_the_real_outputs(workloads, tmp_path):
    # the command of the kmax-scaling workload at its smallest truncation,
    # and its steps at its two smallest
    ctx = workloads.Context(work=str(tmp_path), epsilon=0.05)
    modes = workloads.KMAX_MODES
    ops = workloads.check_kmax_cli(ctx, *workloads.run_cli([
        "spectrum", "--m", ",".join(map(str, modes)), "--epsilon",
        repr(ctx.epsilon), "--kmax", "24", "--out", ctx.out]))
    assert [op.problems for op in ops] == [[]]
    steps = [(m, k_max) for k_max in (24, 48) for m in modes]
    assert [workloads.kmax_step(ctx, *step) for step in steps] == [[]] * len(
        steps)
