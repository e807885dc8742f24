"""Batch command-line interface.

Four subcommands: ``spectrum`` (dense eigenvalues of one assembled
operator), ``track`` (parameter sweep, quadratic fit, curve files and a
plot script), ``verify`` (the invariant battery as a pass/fail table), and
``export`` (operator binary plus state JSON files).

Each setting is one row of ``SETTINGS``: config key, type, one flag and
a default for every command that reads it.  A subcommand takes only the
flags of the settings it reads, plus ``--config``; a config-file key of a
setting it does not read is checked, then ignored.  Precedence is flag
over config file over default.  Handlers compute and
``main`` writes: each ``cmd_<name>(config)`` returns its exit code and
its reports and touches no file; ``main`` checks the output path, runs
the handler, then makes the directory and writes the reports and, last,
``config.json``, the settings the run read.  So a run that stops on an
error leaves no output directory.  Identical configurations produce
byte-identical files at a fixed BLAS thread count: lists in a fixed
order, every float with 17 significant digits.  Another thread count can
move the last digits of a large eigensolve (``spectrum --m 2 --epsilon
0.8 --kmax 60``).
A value that does not convert is reported with its flag.
The quadrature is not a setting: every assembly uses the Gauss rule
that k_max determines.  k_max defaults to 24 for ``spectrum`` and
``export``, and to None for ``track`` and ``verify``: each operator is
then assembled at ``sphbasis.default_k_max(eps, m)`` (``track``'s report
lists the k_max of every grid point), and ``config.json`` echoes null.

Exit codes: 0 success, 1 usage or domain error, 2 invariant failure
(failed verification, assertion miss, unstable sweep).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import eigentracker, stokes_spectrum
from .eigentracker import (
    DEFAULT_EPS_GRID,
    ContourSpec,
    cluster_size,
    contour_projection,
    fit_quadratic,
    fit_window,
    landau_state,
    swirl_block_eigenvalue,
    swirl_ode_residual,
    sweep_grid,
    track,
    translation_eigenvector,
    zero_mode_check,
)
from .operators import assemble_L, assemble_L0, save_operator
from .statespace import is_json_number, save_state_json

C_TARGETS = {0: 0.0, 1: 1.0 / 15.0, 2: 4.0 / 15.0}
# the truncation of spectrum and export; track and verify take one per
# operator from eps unless they are given one
DEFAULT_K_MAX = 24
# the largest truncation a run accepts: the branch frames are validated
# through degree 1000 (perturbation's docstring), and the dense route needs
# about 0.95 GB there
MAX_K_MAX = 1000


# ---- canonical serialization ------------------------------------------------


def format_float(x):
    """17-significant-digit token used for every float in CLI output."""
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} in a report")
    return format(x, ".17g")


def _emit_json(obj, indent=0):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{pad} {json.dumps(k)}: {_emit_json(v, indent + 1)}'
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{pad} {_emit_json(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_atomic(path, text):
    """No partial files: write to a sibling temp file, then rename over."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path, doc):
    write_atomic(path, _emit_json(doc) + "\n")


def _pairs(values):
    return [[float(v.real), float(v.imag)] for v in values]


# ---- configuration -----------------------------------------------------------


def _as(conv, what):
    """A converter of flag text: conv(text), or a ValueError naming the
    flag, ``what`` the text must be and the raw text."""
    def convert(text, source):
        try:
            return conv(text)
        except ValueError:
            raise ValueError(f"{source} must be {what}, got {text!r}") from None
    return convert


def parse_eps_range(text, source="epsilon range"):
    """Either a single float, a comma list, or an inclusive a:b:step range.

    ``source`` names the flag the text came from in errors.
    """
    text = text.strip()
    is_range = ":" in text
    parts = text.split(":") if is_range else [p for p in text.split(",") if p]
    if is_range and len(parts) != 3:
        raise ValueError(f"{source} must have the form a:b:step, got {text!r}")
    values = _as(lambda _: [float(p) for p in parts],
                 "a number, a comma list or an a:b:step range")(text, source)
    if not all(abs(v) <= sys.float_info.max for v in values):
        raise ValueError(f"{source} must be finite, got {text!r}")
    if not is_range:
        return values
    a, b, step = values
    if step <= 0 or b < a:
        raise ValueError(f"{source} gives an empty range {text!r}")
    if not (b - a) / step < 1e6:  # also an overflow to inf
        raise ValueError(f"{source} range {text!r} has over a million points")
    # rounded down, so a step that does not divide b - a stops short of b;
    # the tolerance keeps b when (b - a) / step lands just below an integer
    n = int((b - a) / step + 1e-9) + 1
    return [round(a + i * step, 12) for i in range(n)]


def _list_of(accepts):
    return lambda v: isinstance(v, (list, tuple)) and all(map(accepts, v))


class Setting(NamedTuple):
    """One row of the settings table, with its one flag."""

    field: str  # RunConfig attribute and config-file key
    accepts: Callable  # the type check of a value
    what: str  # what that check asks for, in words
    defaults: dict  # command -> default, for every command that reads it
    options: tuple  # the option strings of the flag
    help: str
    # (text, source) -> value, errors naming the source; None makes the
    # flag a switch that takes no value and means true
    convert: Callable = None


COMMANDS = {
    "spectrum": "dense eigenvalues of one assembled operator",
    "track": "sweep the near-1 group over epsilon and fit its drift",
    "verify": "run the invariant battery and print a pass/fail table",
    "export": "write operator binaries and state JSON files",
}

SETTINGS = (
    Setting("modes", _list_of(lambda v: is_json_number(v, int)),
            "a list of integers",
            {"spectrum": [0], "track": [1], "export": [0]},
            ("--m",), "mode or comma list of modes",
            _as(lambda t: [int(p) for p in t.split(",")],
                "a comma list of integers")),
    Setting("epsilons", _list_of(lambda v: is_json_number(v, float)),
            "a list of numbers, all finite",
            {"spectrum": [0.0], "track": list(DEFAULT_EPS_GRID),
             "export": [0.0]},
            ("--eps", "--epsilon"), "epsilon, comma list or range a:b:step",
            parse_eps_range),
    Setting("k_max", lambda v: is_json_number(v, int), "an integer",
            {**dict.fromkeys(COMMANDS, DEFAULT_K_MAX),
             "track": None, "verify": None},
            ("--kmax",), "spectral truncation degree",
            _as(int, "an integer")),
    Setting("out", lambda v: isinstance(v, str), "a string",
            dict.fromkeys(COMMANDS, "."),
            ("--out",), "output directory", lambda text, _: text),
    Setting("formats", _list_of(lambda v: isinstance(v, str)),
            "a list of strings",
            dict.fromkeys(("spectrum", "track"), ["json", "csv"]),
            ("--format",), "comma list from {json,csv}",
            lambda text, _: text.split(",")),
    Setting("assert_paper", lambda v: isinstance(v, bool), "true or false",
            {"track": False},
            ("--assert-paper",),
            "exit 2 unless fitted coefficients hit targets"),
)


def read_by(command):
    """The settings ``command`` reads, in table order."""
    return [s for s in SETTINGS if command in s.defaults]


class RunConfig:
    """The checked settings of one run, one attribute per setting its
    command reads.  A value given for a setting the command does not read
    is checked like any other, then dropped."""

    def __init__(self, command, **values):
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        unknown = set(values) - {s.field for s in SETTINGS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        self.command = command
        for s in SETTINGS:
            reads = command in s.defaults
            if not reads and s.field not in values:
                continue
            value = values.get(s.field, s.defaults.get(command))
            # a default of None stands for "chosen per run", and may be given
            unset = reads and value is None and s.defaults[command] is None
            if not unset and not s.accepts(value):
                raise ValueError(f"config key {s.field!r} must be {s.what}, "
                                 f"got {value!r}")
            if isinstance(value, (list, tuple, str)) and not value:
                raise ValueError(f"config key {s.field!r} must not be empty")
            if reads:
                setattr(self, s.field, value)
        if hasattr(self, "epsilons"):  # a JSON 0 is read as an int
            self.epsilons = [float(e) for e in self.epsilons]
        if self.k_max is not None and self.k_max < 2:
            raise ValueError(f"k_max = {self.k_max} is too small")
        if self.k_max is not None and self.k_max > MAX_K_MAX:
            raise ValueError(f"k_max must be at most {MAX_K_MAX}, got "
                             f"{self.k_max}")
        for m in getattr(self, "modes", ()):
            if self.k_max is not None and abs(m) > self.k_max:
                raise ValueError(
                    f"k_max = {self.k_max} too small for mode m = {m}")
        bad = set(getattr(self, "formats", ())) - {"json", "csv"}
        if bad:
            raise ValueError(f"unknown output formats: {sorted(bad)}")

    def to_dict(self):
        return {"command": self.command,
                **{s.field: getattr(self, s.field)
                   for s in read_by(self.command)}}


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 in this tool, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    # no prefix matching: each setting is spelled only as its row says
    parser = _Parser(prog="landauspec", allow_abbrev=False,
                     description="Spectral studies of the linearized flow "
                                 "around Landau solutions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        cmd = sub.add_parser(command, help=text, allow_abbrev=False)
        for s in read_by(command):
            kind = {"action": "store_const", "const": True}
            cmd.add_argument(*s.options, dest=s.field, help=s.help,
                             **(kind if s.convert is None else {}))
        cmd.add_argument("--config", help="JSON config file")
    return parser


def resolve_config(args):
    """Merge the config file, then the flags; flags win and RunConfig fills
    the defaults."""
    merged = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config} must hold a JSON "
                             f"object, not {type(doc).__name__}")
        doc.pop("command", None)
        merged.update(doc)
    for s in read_by(args.command):
        value = getattr(args, s.field)
        if value is not None:
            merged[s.field] = (value if s.convert is None else
                               s.convert(value, "/".join(s.options)))
    return RunConfig(args.command, **merged)


# ---- subcommands -------------------------------------------------------------


def _report_tags(config):
    """(m, eps, tag) for each pair a spectrum or export run writes, in run
    order; the tag names the pair's files.  Two pairs with one tag would
    overwrite each other's files, so that is an error before any assembly."""
    pairs = {}
    for m in config.modes:
        for eps in config.epsilons:
            tag = f"m{m}_eps{eps:g}"
            if tag in pairs:
                raise ValueError(
                    f"(m, eps) = {pairs[tag]!r} and {(m, eps)!r} share the "
                    f"report tag {tag!r}")
            pairs[tag] = (m, eps)
    return [(m, eps, tag) for tag, (m, eps) in pairs.items()]


def _integer_defect(lam):
    """Claim 1's probe: the largest distance from an integer, and if <= 1e-8."""
    defect = float(np.abs(lam - np.round(lam)).max())
    return defect, defect <= 1e-8


def _hits_target(c, m):
    """Claim 3's rule: a fitted c within 5% of the paper's c for mode m."""
    return abs(c - C_TARGETS[abs(m)]) <= 0.05 * C_TARGETS[abs(m)]


def cmd_spectrum(config):
    code = 0
    reports = []
    for m, eps, tag in _report_tags(config):
        lmat = assemble_L(m, config.k_max, eps)
        lam = np.sort_complex(np.linalg.eigvals(lmat.entries))
        # the group is what track's circle holds; a mode with no degree
        # <= 2 has no group at 1
        circle = eigentracker.TRACK_CONTOUR
        cluster = lam[circle.encloses(lam)]
        want = cluster_size(m) if abs(m) <= 2 else 0
        if cluster.size != want:
            print(f"invariant failure: {cluster.size} eigenvalues in "
                  f"|lambda - {circle.center:g}| < {circle.radius:g} at "
                  f"m = {m}, eps = {eps}, expected {want}", file=sys.stderr)
            code = 2
        integer_defect = None
        if eps == 0.0:
            integer_defect, integer = _integer_defect(lam)
            if not integer:
                print(f"invariant failure: unperturbed spectrum at "
                      f"m = {m} is not integer (defect {integer_defect})",
                      file=sys.stderr)
                code = 2
        if "json" in config.formats:
            reports.append((write_json, f"spectrum_{tag}.json", {
                "mode": m,
                "epsilon": eps,
                "k_max": config.k_max,
                "eigenvalues": _pairs(lam),
                "cluster": _pairs(cluster),
                "integer_defect": integer_defect,
            }))
        if "csv" in config.formats:
            lines = ["index,re,im"]
            lines += [f"{i},{format_float(v.real)},{format_float(v.imag)}"
                      for i, v in enumerate(lam)]
            reports.append((write_atomic, f"spectrum_{tag}.csv",
                            "\n".join(lines) + "\n"))
    return code, reports


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Standalone plot of eigenvalue curves from the CSV next to this file.\"\"\"
import csv
import sys
from collections import defaultdict

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "curves_m{m}.csv"
branches = defaultdict(list)
with open(path) as fh:
    for row in csv.DictReader(fh):
        branches[int(row["branch_id"])].append(
            (float(row["epsilon"]), float(row["re"]), float(row["im"])))
fig, (ax_re, ax_im) = plt.subplots(1, 2, figsize=(9, 4))
for bid, rows in sorted(branches.items()):
    rows.sort()
    eps = [r[0] for r in rows]
    ax_re.plot(eps, [r[1] for r in rows], marker="o", label=f"branch {{bid}}")
    ax_im.plot(eps, [r[2] for r in rows], marker="o", label=f"branch {{bid}}")
ax_re.set_xlabel("epsilon"); ax_re.set_ylabel("Re lambda"); ax_re.legend()
ax_im.set_xlabel("epsilon"); ax_im.set_ylabel("Im lambda"); ax_im.legend()
fig.tight_layout()
fig.savefig(path.replace(".csv", ".png"), dpi=160)
print("wrote", path.replace(".csv", ".png"))
"""


def cmd_track(config):
    for i, m in enumerate(config.modes):  # files are named by m alone
        if m in config.modes[:i]:
            raise ValueError(
                f"mode m = {m} is repeated in modes {config.modes}")
        cluster_size(m)  # a mode without a group at 1 fails before any sweep
    # a grid that the sweep or the fit rejects fails before any sweep too
    fit_window(sweep_grid(config.epsilons))
    code = 0
    reports = []
    for m in config.modes:
        curve = track(m, config.epsilons, k_max=config.k_max)
        fit = fit_quadratic(curve)

        target = C_TARGETS[abs(m)]
        if config.assert_paper:
            if m == 0:
                ok = np.abs(curve.eigenvalues - 1.0).max() <= 1e-9
            else:
                ok = _hits_target(fit.c, m)
            if not ok:
                print(f"assertion failed: m = {m} fitted c = {fit.c!r} "
                      f"vs target {target!r}", file=sys.stderr)
                code = 2

        if "json" in config.formats:
            reports.append((write_json, f"track_m{m}.json", {
                "mode": m,
                "epsilons": [float(e) for e in curve.epsilons],
                "eigenvalues": [_pairs(row) for row in curve.eigenvalues],
                "fit": {
                    "c": fit.c,
                    "c_target": target,
                    "c_branches": list(fit.c_branches),
                    "beta_max_over_eps3": fit.beta_residual,
                },
                "residuals": list(fit.residuals),
                "ranks": [curve.n_branches] * len(curve.epsilons),
                "k_max": list(curve.k_max),
            }))
        if "csv" in config.formats:
            lines = ["epsilon,branch_id,re,im"]
            for i, eps in enumerate(curve.epsilons):
                for j in range(curve.n_branches):
                    v = curve.eigenvalues[i, j]
                    lines.append(f"{format_float(eps)},{j},"
                                 f"{format_float(v.real)},"
                                 f"{format_float(v.imag)}")
            reports.append((write_atomic, f"curves_m{m}.csv",
                            "\n".join(lines) + "\n"))
            reports.append((write_atomic, f"plot_curves_m{m}.py",
                            PLOT_SCRIPT.format(m=m)))
    return code, reports


def _verify_checks(config):
    """The invariant battery; yields (name, passed, detail).

    ``config.k_max``, None unless given, is the truncation of the zero-mode
    and fit rows; None takes each operator's from eps.  The other rows fix
    their own.  Scaled by (4k - 2)(4k + 6), the determinant of mcal(k) is
    a polynomial of degree <= 10 in k (rows 1 and 3 times those factors
    have degree <= 3, rows 2 and 4 degree <= 2), so agreeing with
    -(2k+1)^2 at the 11 degrees 0..10 proves it for every k."""
    dets_ok = all(stokes_spectrum.mcal(k).determinant()
                  == -(2 * k + 1) ** 2 for k in range(11))
    yield ("mcal_det[all k]", dets_ok,
           "-(2k+1)^2; degree-10 identity at k=0..10")

    spectra = [np.linalg.eigvals(assemble_L0(m, 20).entries)
               for m in (0, 1, 2)]
    worst, integer = _integer_defect(np.concatenate(spectra))
    mults = [int(np.sum(eigentracker.TRACK_CONTOUR.encloses(lam)))
             for lam in spectra]
    mults_ok = mults == [cluster_size(m) for m in (0, 1, 2)]
    yield ("l0_integrality[m=0..2,k=20]", integer and mults_ok,
           f"defect {worst:.1e}, unit multiplicities "
           + "/".join(map(str, mults)))

    samples = np.linspace(-0.999, 0.999, 1000)
    res = swirl_ode_residual(0.5, samples)
    yield "swirl_ode[eps=0.5]", res <= 1e-12, f"<=1e-12 (got {res:.1e})"

    lam_sw = swirl_block_eigenvalue(0.5, 40)
    yield ("swirl_eigenvalue[eps=0.5]", abs(lam_sw - 1.0) <= 1e-9,
           f"|lam-1| = {abs(lam_sw - 1.0):.1e}")

    total1 = total0 = 0
    idem_ok = True
    for m in (0, 1, 2):
        lmat = assemble_L(m, 16, 0.05)
        proj = contour_projection(lmat, eigentracker.TRACK_CONTOUR)
        total1 += proj.rank * (2 if m else 1)
        idem_ok &= proj.idempotency_defect <= 1e-8
        if m < 2:  # m = 2 has no eigenvalue near 0
            proj = contour_projection(lmat, ContourSpec(0.0, 0.5))
            total0 += proj.rank * (2 if m else 1)
    yield "P1_rank[eps=0.05]", total1 == 8 and idem_ok, f"{total1}"
    yield "P0_rank[eps=0.05]", total0 == 3, f"{total0}"

    _, resid = translation_eigenvector(0.1, 30)
    yield ("translation_residual[eps=0.1]", resid <= 1e-8,
           f"{resid:.1e} <= 1e-8")

    resid = zero_mode_check(0.1, config.k_max)
    yield "zero_mode[eps=0.1]", resid <= 1e-5, f"{resid:.1e}"

    moved = 0.0
    for m in (0, 1, 2):
        plus = np.sort_complex(track(m, [0.1], k_max=16).eigenvalues[0])
        minus = np.sort_complex(track(m, [-0.1], k_max=16).eigenvalues[0])
        moved = max(moved, float(np.abs(plus - minus).max()))
    yield "sign_symmetry[eps=0.1]", moved <= 1e-8, f"{moved:.1e}"

    beta_ok = True
    details = []
    for m in (1, 2):
        fit = fit_quadratic(track(m, DEFAULT_EPS_GRID, k_max=config.k_max))
        beta_ok &= bool(
            np.all(np.abs(np.array(fit.beta_raw))
                   <= 10.0 * max(DEFAULT_EPS_GRID) ** 3))
        ok = _hits_target(fit.c, m)
        details.append(f"c[m={m}] = {fit.c:.5f}")
        yield f"fit_c[m={m}]", ok, details[-1]
    yield "beta_probe[grid]", beta_ok, "max |Im lambda| <= 10 eps^3"


def cmd_verify(config):
    rows = []
    failed = 0
    for name, passed, detail in _verify_checks(config):
        rows.append({"check": name, "passed": bool(passed), "detail": detail})
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
        failed += 0 if passed else 1
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    report = (write_json, "verify.json", {"checks": rows})
    return (2 if failed else 0), [report]


def _write_operator(path, lmat):
    save_operator(lmat, path + ".bin", path + ".json")


def _write_state(path, state):
    save_state_json(state, path)


def cmd_export(config):
    reports = [(_write_operator, f"operator_{tag}",
                assemble_L(m, config.k_max, eps))
               for m, eps, tag in _report_tags(config)]
    eps0 = config.epsilons[0]
    if eps0 > 0.0:
        reports.append((_write_state, "background_state.json",
                        landau_state(eps0, config.k_max)))
        if eps0 <= 0.5:
            state, _ = translation_eigenvector(eps0, config.k_max)
            reports.append((_write_state, "translation_state.json", state))
    return 0, reports


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler = {"spectrum": cmd_spectrum, "track": cmd_track,
               "verify": cmd_verify, "export": cmd_export}[args.command]
    try:
        config = resolve_config(args)
        # an output path that cannot become a directory fails before any solve
        existing = config.out
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise ValueError(f"output path {existing!r} is not a directory")
        code, reports = handler(config)
        # the echo goes last, so a directory without it is a run cut short
        reports.append((write_json, "config.json", config.to_dict()))
        os.makedirs(config.out, exist_ok=True)
        for write, name, contents in reports:
            write(os.path.join(config.out, name), contents)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
