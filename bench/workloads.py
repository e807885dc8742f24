"""The benchmark's workloads and the correctness check of every operation.

Each workload has an in-process pass, driven through the public API or
``landauspec.cli.main``, and a matching command for a fresh ``landauspec``
process.  Every pass is checked: an operation whose check finds a problem
counts as failed.

Workloads were chosen so that each planned optimisation has one workload
that exercises it and one that bypasses it:

- ``track-paper`` is the paper's headline sweep; its time is dominated by
  the contour projector and it assembles the same (m, k_max) repeatedly.
- ``verify-battery`` is many small problems across the whole library, so a
  change tuned for large dimensions that slows small ones shows here.
- ``kmax-scaling`` is dense assembly, operator I/O, eigensolve and graph
  reduction at growing truncation with no contour projection and no
  repeated (m, k_max): projector and cache changes should not move it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from landauspec import cli, eigentracker, operators, perturbation

# Contour ranks that `track --m 1,2` reports on the default grid.
PAPER_RANKS = {"track_m1.json": [2] * 5, "track_m2.json": [1] * 5}
VERIFY_CHECKS = 12
KMAX_LEVELS = (24, 48, 96)
KMAX_MODES = (1, 2)
KMAX_EPS_RANGE = (0.03, 0.07)
# The reduced matrix and the dense group agree to ~5e-14 at eps = 0.05.
REDUCED_TOL = 1e-10


@dataclass
class Op:
    """One checked operation; it failed when ``problems`` is not empty."""

    name: str
    problems: list


@dataclass
class Context:
    """Inputs and scratch space of one benchmark run."""

    work: str
    epsilon: float | None = None
    references: dict = field(default_factory=dict)

    @property
    def out(self):
        return os.path.join(self.work, "out")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def snapshot(directory):
    """Every file of ``directory`` by name, as bytes."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


def same_as_first(ctx, key):
    """Compare the output directory with the one the first pass of this
    kind left; the first pass becomes the reference."""
    files = snapshot(ctx.out)
    first = ctx.references.setdefault(key, files)
    if files.keys() != first.keys():
        return [f"report files {sorted(files)} differ from {sorted(first)}"]
    return [f"{name} differs from the first pass"
            for name in files if files[name] != first[name]]


def run_cli(argv):
    """``landauspec.cli.main`` in this process; returns (exit code, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


# ---- track-paper -------------------------------------------------------------


def track_argv(ctx):
    return ["track", "--m", "1,2", "--assert-paper", "--out", ctx.out]


def check_track(ctx, code, stdout):
    problems = [] if code == 0 else [f"exit code {code}"]
    for name, want in PAPER_RANKS.items():
        try:
            with open(os.path.join(ctx.out, name)) as fh:
                ranks = json.load(fh)["ranks"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: {exc!r}")
            continue
        if ranks != want:
            problems.append(f"{name}: contour ranks {ranks}, expected {want}")
    problems += same_as_first(ctx, "reports")
    return [Op("track --m 1,2 --assert-paper", problems)]


# ---- verify-battery ----------------------------------------------------------


def verify_argv(ctx):
    return ["verify", "--out", ctx.out]


def check_verify(ctx, code, stdout):
    problems = [] if code == 0 else [f"exit code {code}"]
    lines = stdout.splitlines()
    passed = sum(": PASS (" in line for line in lines)
    summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    if passed != VERIFY_CHECKS or not lines or lines[-1] != summary:
        problems.append(f"{passed} checks passed, expected {VERIFY_CHECKS}")
    problems += same_as_first(ctx, "reports")
    return [Op("verify", problems)]


# ---- kmax-scaling ------------------------------------------------------------


def kmax_step(ctx, m, k_max):
    """Assemble, round-trip through the operator files, eigensolve, and
    reduce onto the group at 1; returns the problems found."""
    lmat = operators.assemble_L(m, k_max, ctx.epsilon)
    stem = os.path.join(ctx.work, f"operator_m{m}_k{k_max}")
    operators.save_operator(lmat, stem + ".bin", stem + ".json")
    loaded = operators.load_operator(stem + ".bin", stem + ".json")
    problems = []
    if ((loaded.m, loaded.k_max, loaded.epsilon) != (m, k_max, ctx.epsilon)
            or loaded.entries.dtype != lmat.entries.dtype
            or loaded.entries.shape != lmat.entries.shape
            or loaded.entries.tobytes() != lmat.entries.tobytes()):
        problems.append("operator load round trip is not bit-exact")

    lam = np.linalg.eigvals(loaded.entries)
    group = lam[np.abs(lam - 1.0) < eigentracker.CLUSTER_RADIUS]
    want = eigentracker.cluster_size(m)
    if group.size != want:
        problems.append(f"group near 1 has {group.size} members, expected {want}")

    blocks = perturbation.split_blocks(loaded, m, strict=False)
    graph = perturbation.solve_graph(blocks)
    reduced = np.linalg.eigvals(perturbation.reduced_matrix(blocks, graph))
    if reduced.size == group.size:
        gap = min(float(np.max(np.abs(np.array(perm) - group)))
                  for perm in itertools.permutations(reduced))
        if gap > REDUCED_TOL:
            problems.append(f"reduced eigenvalues are {gap:.1e} from the "
                            f"dense group (tolerance {REDUCED_TOL:.0e})")
    else:
        problems.append(f"reduced matrix has {reduced.size} eigenvalues, "
                        f"dense group {group.size}")
    return problems


def kmax_pass(ctx):
    return [Op(f"kmax-scaling m={m} k_max={k_max}", kmax_step(ctx, m, k_max))
            for k_max in KMAX_LEVELS for m in KMAX_MODES]


def kmax_argv(ctx):
    return ["spectrum", "--m", ",".join(map(str, KMAX_MODES)),
            "--epsilon", repr(ctx.epsilon), "--kmax", str(max(KMAX_LEVELS)),
            "--out", ctx.out]


def check_kmax_cli(ctx, code, stdout):
    problems = [] if code == 0 else [f"exit code {code}"]
    for m in KMAX_MODES:
        name = f"spectrum_m{m}_eps{ctx.epsilon:g}.json"
        try:
            with open(os.path.join(ctx.out, name)) as fh:
                cluster = json.load(fh)["cluster"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: {exc!r}")
            continue
        if len(cluster) != eigentracker.cluster_size(m):
            problems.append(f"{name}: cluster of {len(cluster)}")
    problems += same_as_first(ctx, "cli reports")
    return [Op("spectrum --kmax 96", problems)]


# ---- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``in_process(ctx)`` runs one pass and returns its checked operations;
    ``cli_argv(ctx)`` is the matching fresh-process command, whose exit code
    and stdout ``check_cli`` turns into checked operations."""

    name: str
    uses_seed: bool
    in_process: Callable
    cli_argv: Callable
    check_cli: Callable

    def context(self, seed, work):
        ctx = Context(work=work)
        if self.uses_seed:
            ctx.epsilon = round(random.Random(seed).uniform(*KMAX_EPS_RANGE), 4)
        return ctx


def _cli_pass(argv, check):
    def in_process(ctx):
        fresh_dir(ctx.out)
        code, stdout = run_cli(argv(ctx))
        return check(ctx, code, stdout)
    return in_process


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("track-paper", False, _cli_pass(track_argv, check_track),
                 track_argv, check_track),
        Workload("verify-battery", False, _cli_pass(verify_argv, check_verify),
                 verify_argv, check_verify),
        Workload("kmax-scaling", True, kmax_pass, kmax_argv, check_kmax_cli),
    )
}


# ---- per-layer extras recorded by the tracer ---------------------------------


def _file_bytes(*paths):
    return float(sum(os.path.getsize(p) for p in paths))


# Span name -> (counter name, value(args, result)), for `Tracer.install`.
TRACE_COUNTERS = {
    "linalg.eigvals": ("linalg.eigvals.n3",
                       lambda a, r: float(np.shape(a[0])[-1]) ** 3),
    "operators.save_operator": ("operators.save_operator.bytes",
                                lambda a, r: _file_bytes(a[1], a[2])),
    "operators.load_operator": ("operators.load_operator.bytes",
                                lambda a, r: _file_bytes(a[0], a[1])),
    "cli.write_json": ("cli.write_json.bytes", lambda a, r: _file_bytes(a[0])),
    "perturbation.solve_graph": ("perturbation.solve_graph.iterations",
                                 lambda a, r: float(r.iterations)),
}
