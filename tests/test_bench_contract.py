"""The two steps by which `bench/run.py --trace 1` reads the library from
outside, run against the library as it is.

`run.parse_importtime` turns the real `-X importtime` output of
`import landauspec.cli` into the `setup.*` metrics, and `run.layer_value`
resolves every other per-layer name of BENCHMARK.json against an installed
tracer.  Either one raising makes a traced benchmark run exit 1.  Importing
`run` fixes the BLAS thread count and the import path of the process, so
both steps run in a child interpreter.
"""

import json
import os
import subprocess
import sys

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
