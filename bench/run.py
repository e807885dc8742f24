"""Benchmark of landauspec: end-to-end timings and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload track-paper --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing: set-up time (fresh interpreters importing ``landauspec.cli``), the
warm in-process pass, the matching fresh-process command and peak RSS.
``--trace 1`` reports the per-layer metrics instead: calls and self time of
every wrapped function, the ``-X importtime`` breakdown of set-up, and the
tracing overhead.  Each run is a closed loop in one process with the BLAS
thread count fixed to BLAS_THREADS; every operation is checked, and the
last line of stdout is the JSON result.  Details of each run (samples,
machine facts, spans) go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# One BLAS thread: at most nproc, the same on every machine, and steadier
# than two on a shared two-core host.  It is fixed before numpy loads, here
# and in every child process.
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_ENV})
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
if not os.path.isfile(os.path.join(SRC, "landauspec", "cli.py")):
    sys.exit(f"error: no landauspec sources under {SRC}")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402
from workloads import TRACE_COUNTERS, WORKLOADS, Op, fresh_dir  # noqa: E402

SETUP_PER_ROUND = 2
MIN_SAMPLES = 3
# Rounds stop this long after they start, even short of MIN_SAMPLES or
# of --seconds, so that a run ends within three minutes.
HARD_STOP_S = 120
CHILD_TIMEOUT_S = 60
IMPORT_CLI = "import landauspec.cli"
RUN_CLI = "import sys; from landauspec.cli import main; sys.exit(main())"
IMPORTTIME_KEYS = {"setup.import_numpy_s": "numpy",
                   "setup.import_scipy_linalg_s": "scipy.linalg",
                   "setup.import_scipy_optimize_s": "scipy.optimize"}


class Tally:
    """Attempted and failed operations of a run, with the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops):
        for op in ops:
            self.attempted += 1
            if op.problems:
                self.failed += 1
                self.problems.append(f"{op.name}: {'; '.join(op.problems)}")
                print(f"FAILED {self.problems[-1]}", file=sys.stderr)


def run_child(code, *args, importtime=False):
    """Run ``python3 -c code args`` from the repository root; returns
    (exit code, stdout, stderr, wall seconds including interpreter start)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", code, *args]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return None, "", f"timed out after {exc.timeout} s", time.perf_counter() - start
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def parse_importtime(stderr):
    """Seconds per key of IMPORTTIME_KEYS (cumulative) and the summed self
    time of the landauspec modules, from ``-X importtime`` output."""
    cumulative = {}
    own = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, module = line[len("import time:"):].split("|")
        module = module.strip()
        cumulative.setdefault(module, int(cum_us) * 1e-6)
        if module.split(".")[0] == "landauspec":
            own += int(self_us) * 1e-6
    out = {key: cumulative[module] for key, module in IMPORTTIME_KEYS.items()}
    out["setup.import_landauspec_s"] = own
    return out


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_facts():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def timed(fn, *args):
    """(checked operations, seconds) of one pass; an exception counts as one
    failed operation instead of ending the run."""
    start = time.perf_counter()
    try:
        ops = fn(*args)
    except Exception as exc:  # the run goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        ops = [Op("pass", [f"{type(exc).__name__}: {exc}"])]
    return ops, time.perf_counter() - start


def cli_pass(wl, ctx, tally):
    fresh_dir(ctx.out)
    code, stdout, stderr, seconds = run_child(RUN_CLI, *wl.cli_argv(ctx))
    if code != 0:
        print(stderr[-2000:], file=sys.stderr)
    tally.add(wl.check_cli(ctx, code, stdout))
    return seconds


def import_cli(tally, importtime=False):
    """One fresh interpreter importing landauspec.cli, checked; returns
    (wall seconds, stderr), with stderr None if the import failed."""
    code, _, stderr, wall = run_child(IMPORT_CLI, importtime=importtime)
    ok = code == 0
    tally.add([Op("import landauspec.cli", [] if ok else [f"exit code {code}: {stderr[-300:]}"])])
    return wall, stderr if ok else None


def rounds(seconds, samples):
    """Yield once per round until ``seconds`` have passed and ``samples`` (a
    list the caller fills) holds MIN_SAMPLES, or until HARD_STOP_S."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(samples) >= MIN_SAMPLES):
            return
        yield


def measure_end_to_end(wl, ctx, seconds, tally):
    # The machine's speed drifts over a few seconds, so set-up imports,
    # in-process passes and fresh-process commands are interleaved across
    # the whole run rather than measured one block after another.
    import_cli(tally)  # compiles bytecode
    tally.add(timed(wl.in_process, ctx)[0])  # warm-up
    setup, walls, cli_walls = [], [], []
    for _ in rounds(seconds, walls):
        setup += [import_cli(tally)[0] for _ in range(SETUP_PER_ROUND)]
        ops, wall = timed(wl.in_process, ctx)
        tally.add(ops)
        walls.append(wall)
        cli_walls.append(cli_pass(wl, ctx, tally))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": setup, "wall_s": walls, "cli_wall_s": cli_walls}
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = peak
    return values, samples, {}


def layer_value(name, fns, layers, tracer):
    """Value of one per-layer metric from one traced pass: a counter, the
    calls or self time of a traced function, or the self time of a layer."""
    base, _, kind = name.rpartition(".")
    if name in {counter for counter, _ in TRACE_COUNTERS.values()}:
        return tracer.counters.get(name, 0.0)
    if base in tracer.names and kind in ("calls", "self_s"):
        return fns.get(base, {"calls": 0, "self_s": 0.0})[kind]
    if kind == "self_s" and base in {n.partition(".")[0] for n in tracer.names}:
        return layers.get(base, 0.0)
    raise KeyError(f"per-layer metric {name!r} names no traced function")


def measure_layers(wl, ctx, seconds, metric_names, tally, spans_path):
    import_cli(tally)  # compiles bytecode
    tally.add(timed(wl.in_process, ctx)[0])  # warm-up
    breakdowns, untraced, traced, passes = [], [], [], []
    for _ in rounds(seconds, traced):
        stderr = import_cli(tally, importtime=True)[1]
        if stderr is not None:
            breakdowns.append(parse_importtime(stderr))
        ops, wall = timed(wl.in_process, ctx)
        tally.add(ops)
        untraced.append(wall)
        with Tracer() as tracer:
            tracer.install(counters=TRACE_COUNTERS)
            ops, wall = timed(wl.in_process, ctx)
        tally.add(ops)
        traced.append(wall)
        passes.append(tracer)

    summaries = [summarize(tracer.spans) for tracer in passes]
    counts = [({name: entry["calls"] for name, entry in fns.items()}, dict(tracer.counters))
              for (fns, _), tracer in zip(summaries, passes)]
    tally.add([Op("traced counts repeat across passes",
                  [] if all(c == counts[0] for c in counts)
                  else ["calls or counters differ between traced passes"])])

    values = {}
    for name in metric_names:
        if not name.startswith(("setup.", "trace.")):
            per_pass = [layer_value(name, fns, layers, tracer)
                        for (fns, layers), tracer in zip(summaries, passes)]
            # counts repeat exactly (checked above); times take the median
            values[name] = statistics.median(per_pass) if name.endswith("_s") else per_pass[0]
    for key in [*IMPORTTIME_KEYS, "setup.import_landauspec_s"]:
        values[key] = statistics.median(b[key] for b in breakdowns) if breakdowns else 0.0
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["trace.spans"] = len(passes[0].spans)
    functions = {
        name: {"calls": calls, "self_s": statistics.median(
            fns.get(name, {"self_s": 0.0})["self_s"] for fns, _ in summaries)}
        for name, calls in sorted(counts[0][0].items())}

    with gzip.open(spans_path, "wt") as fh:
        for span in passes[0].spans:
            fh.write(json.dumps(span) + "\n")
    samples = {"wall_untraced_s": untraced, "wall_traced_s": traced}
    return values, samples, functions


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    ctx = wl.context(args.seed, work)
    tally = Tally()
    try:
        if args.trace:
            values, samples, functions = measure_layers(
                wl, ctx, args.seconds, [m["name"] for m in metrics], tally,
                os.path.join(WORK, "results", f"{tag}.spans.jsonl.gz"))
        else:
            values, samples, functions = measure_end_to_end(wl, ctx, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts()
    threads = facts["blas_threads_in_use"]
    tally.add([Op("BLAS thread count", [] if threads in (None, BLAS_THREADS) else
                  [f"BLAS runs {threads} threads, not {BLAS_THREADS}"])])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seed_used": wl.uses_seed, "epsilon": ctx.epsilon,
        "seconds": args.seconds, "trace": args.trace, "machine": facts,
        "samples": samples, "values": values, "functions": functions,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems[:20],
    }
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload}: seed {args.seed} "
          f"({'used' if wl.uses_seed else 'ignored'}), eps {ctx.epsilon}")
    for name, vals in samples.items():
        print(f"{name} samples ({len(vals)}): "
              + " ".join(f"{v:.4f}" for v in vals))
    for name, entry in functions.items():
        print(f"function {name}: {entry['calls']} calls, self {entry['self_s']:.6g} s")
    for m in metrics:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} "
          f"({tally.failed}/{tally.attempted} operations failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
