"""Batch command-line interface.

Four subcommands: ``spectrum`` (dense eigenvalues of one assembly),
``track`` (parameter sweep, quadratic fit, curve files and a plot
script), ``verify`` (the invariant battery as a pass/fail table), and
``export`` (operator binary plus state JSON files).

Configuration precedence is CLI flag over environment variable
(prefix ``LANDAUSPEC_``) over config file over built-in default.  The
resolved configuration is echoed as ``config.json`` next to every
report, and identical configurations produce byte-identical output
files: lists are emitted in a fixed order and every float is printed
with 17 significant digits.

Exit codes: 0 success, 1 usage or domain error, 2 invariant failure
(failed verification, assertion miss, unstable sweep).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import eigentracker, stokes_spectrum
from .eigentracker import (
    DEFAULT_EPS_GRID,
    DEFAULT_K_MAX,
    ContourSpec,
    cluster_size,
    contour_projection,
    fit_quadratic,
    landau_state,
    swirl_block_eigenvalue,
    swirl_ode_residual,
    track,
    translation_eigenvector,
    zero_mode_check,
)
from .operators import assemble_L, assemble_L0, save_operator
from .sphbasis import QuadratureGrid
from .statespace import save_state_json

C_TARGETS = {0: 0.0, 1: 1.0 / 15.0, 2: 4.0 / 15.0}
ENV_PREFIX = "LANDAUSPEC_"


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


def _is_int(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x):
    return _is_int(x) or isinstance(x, (float, np.floating))


def _list_of(accepts):
    return lambda v: isinstance(v, (list, tuple)) and all(map(accepts, v))


def _is_str(x):
    return isinstance(x, str)


# RunConfig field -> (accepts value, what the error message asks for)
_FIELD_TYPES = {
    "command": (_is_str, "a string"),
    "modes": (_list_of(_is_int), "a list of integers"),
    "epsilons": (_list_of(_is_number), "a list of numbers"),
    "k_max": (_is_int, "an integer"),
    "quad": (lambda v: v is None or _is_int(v), "an integer or null"),
    "out": (_is_str, "a string"),
    "formats": (_list_of(_is_str), "a list of strings"),
    "assert_paper": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class RunConfig:
    command: str
    modes: list
    epsilons: list
    k_max: int = DEFAULT_K_MAX
    quad: int | None = None
    out: str = "."
    formats: list = None
    assert_paper: bool = False

    def __post_init__(self):
        if self.formats is None:
            self.formats = ["json", "csv"]
        for name, (accepts, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not accepts(value):
                raise ValueError(
                    f"config key {name!r} must be {what}, got {value!r}")
        self.modes = [int(m) for m in self.modes]
        self.epsilons = [float(e) for e in self.epsilons]
        if self.k_max < 2:
            raise ValueError(f"k_max = {self.k_max} is too small")
        bad = set(self.formats) - {"json", "csv"}
        if bad:
            raise ValueError(f"unknown output formats: {sorted(bad)}")

    def to_dict(self):
        return {
            "command": self.command,
            "modes": list(self.modes),
            "epsilons": [float(e) for e in self.epsilons],
            "k_max": int(self.k_max),
            "quad": self.quad if self.quad is None else int(self.quad),
            "out": self.out,
            "formats": list(self.formats),
            "assert_paper": bool(self.assert_paper),
        }

    @classmethod
    def from_dict(cls, doc):
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def parse_eps_range(text):
    """Either a single float, a comma list, or an inclusive a:b:step range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be a:b:step, got {text!r}")
        a, b, step = (float(p) for p in parts)
        if step <= 0 or b < a:
            raise ValueError(f"empty range {text!r}")
        n = int(round((b - a) / step)) + 1
        return [round(a + i * step, 12) for i in range(n)]
    return [float(p) for p in text.split(",") if p]


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 in this tool, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", help="mode or comma list of modes")
    common.add_argument("--eps", help="epsilon range a:b:step or comma list")
    common.add_argument("--epsilon", help="single epsilon value")
    common.add_argument("--kmax", type=int, help="spectral truncation degree")
    common.add_argument("--quad", type=int,
                        help="quadrature node override for direct assemblies")
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", dest="formats",
                        help="comma list from {json,csv}")
    common.add_argument("--assert-paper", dest="assert_paper",
                        action="store_const", const=True, default=None,
                        help="exit 2 unless fitted coefficients hit targets")
    common.add_argument("--config", help="JSON config file")

    parser = _Parser(prog="landauspec",
                     description="Spectral studies of the linearized flow "
                                 "around Landau solutions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("spectrum", "dense eigenvalues of one assembled operator"),
        ("track", "sweep the near-1 group over epsilon and fit its drift"),
        ("verify", "run the invariant battery and print a pass/fail table"),
        ("export", "write operator binaries and state JSON files"),
    ):
        sub.add_parser(name, parents=[common], help=text)
    return parser


_DEFAULTS = {
    "spectrum": {"modes": [0], "epsilons": [0.0]},
    "track": {"modes": [1], "epsilons": list(DEFAULT_EPS_GRID)},
    "verify": {"modes": [0, 1, 2], "epsilons": [0.05]},
    "export": {"modes": [0], "epsilons": [0.0]},
}


def resolve_config(args):
    """Merge defaults, config file, environment, and CLI flags."""
    merged = dict(_DEFAULTS[args.command])
    merged.update({"k_max": DEFAULT_K_MAX, "quad": None, "out": ".",
                   "formats": ["json", "csv"], "assert_paper": False})

    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        with open(config_path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {config_path} must hold a JSON "
                             f"object, not {type(doc).__name__}")
        doc.pop("command", None)
        merged.update(doc)

    env = os.environ
    if ENV_PREFIX + "M" in env:
        merged["modes"] = [int(p) for p in env[ENV_PREFIX + "M"].split(",")]
    if ENV_PREFIX + "EPS" in env:
        merged["epsilons"] = parse_eps_range(env[ENV_PREFIX + "EPS"])
    if ENV_PREFIX + "EPSILON" in env:
        merged["epsilons"] = [float(env[ENV_PREFIX + "EPSILON"])]
    for key, name, conv in (("KMAX", "k_max", int), ("QUAD", "quad", int),
                            ("OUT", "out", str)):
        if ENV_PREFIX + key in env:
            merged[name] = conv(env[ENV_PREFIX + key])
    if ENV_PREFIX + "FORMAT" in env:
        merged["formats"] = env[ENV_PREFIX + "FORMAT"].split(",")
    if ENV_PREFIX + "ASSERT_PAPER" in env:
        merged["assert_paper"] = env[ENV_PREFIX + "ASSERT_PAPER"].lower() in (
            "1", "true", "yes")

    if args.eps is not None and args.epsilon is not None:
        raise ValueError("--eps and --epsilon are mutually exclusive")
    if args.m is not None:
        merged["modes"] = [int(p) for p in args.m.split(",")]
    if args.eps is not None:
        merged["epsilons"] = parse_eps_range(args.eps)
    if args.epsilon is not None:
        merged["epsilons"] = [float(args.epsilon)]
    if args.kmax is not None:
        merged["k_max"] = args.kmax
    if args.quad is not None:
        merged["quad"] = args.quad
    if args.out is not None:
        merged["out"] = args.out
    if args.formats is not None:
        merged["formats"] = args.formats.split(",")
    if args.assert_paper is not None:
        merged["assert_paper"] = args.assert_paper

    return RunConfig.from_dict({"command": args.command, **merged})


def _prepare_out(config):
    out = config.out
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "config.json"), config.to_dict())
    return out


def _assembly_grid(config):
    if config.quad is None:
        return None
    return QuadratureGrid.build(config.quad)


# ---- subcommands -------------------------------------------------------------


def cmd_spectrum(config):
    out = _prepare_out(config)
    code = 0
    for m in config.modes:
        for eps in config.epsilons:
            lmat = assemble_L(m, config.k_max, eps,
                              grid=_assembly_grid(config))
            lam = np.sort_complex(np.linalg.eigvals(lmat.entries))
            cluster = lam[np.abs(lam - 1.0) < eigentracker.CLUSTER_RADIUS]
            integer_defect = None
            if eps == 0.0:
                integer_defect = float(np.abs(lam - np.round(lam)).max())
                if integer_defect > 1e-8:
                    print(f"invariant failure: unperturbed spectrum at "
                          f"m = {m} is not integer (defect {integer_defect})",
                          file=sys.stderr)
                    code = 2
            tag = f"m{m}_eps{eps:g}"
            if "json" in config.formats:
                write_json(os.path.join(out, f"spectrum_{tag}.json"), {
                    "mode": m,
                    "epsilon": eps,
                    "k_max": config.k_max,
                    "eigenvalues": _pairs(lam),
                    "cluster": _pairs(cluster),
                    "integer_defect": integer_defect,
                })
            if "csv" in config.formats:
                lines = ["index,re,im"]
                lines += [f"{i},{format_float(v.real)},{format_float(v.imag)}"
                          for i, v in enumerate(lam)]
                write_atomic(os.path.join(out, f"spectrum_{tag}.csv"),
                             "\n".join(lines) + "\n")
    return code


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
    out = _prepare_out(config)
    code = 0
    for m in config.modes:
        curve = track(m, config.epsilons, k_max=config.k_max)
        fit = fit_quadratic(curve)
        ranks = []
        for eps in config.epsilons:
            lmat = assemble_L(m, config.k_max, float(eps))
            ranks.append(contour_projection(lmat, ContourSpec(1.0, 0.5)).rank)

        target = C_TARGETS[abs(m)]
        if config.assert_paper:
            if m == 0:
                ok = np.abs(curve.eigenvalues - 1.0).max() <= 1e-9
            else:
                ok = abs(fit.c - target) <= 0.05 * target
            if not ok:
                print(f"assertion failed: m = {m} fitted c = {fit.c!r} "
                      f"vs target {target!r}", file=sys.stderr)
                code = 2

        if "json" in config.formats:
            write_json(os.path.join(out, f"track_m{m}.json"), {
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
                "ranks": ranks,
            })
        if "csv" in config.formats:
            lines = ["epsilon,branch_id,re,im"]
            for i, eps in enumerate(curve.epsilons):
                for j in range(curve.n_branches):
                    v = curve.eigenvalues[i, j]
                    lines.append(f"{format_float(eps)},{j},"
                                 f"{format_float(v.real)},"
                                 f"{format_float(v.imag)}")
            write_atomic(os.path.join(out, f"curves_m{m}.csv"),
                         "\n".join(lines) + "\n")
            write_atomic(os.path.join(out, f"plot_curves_m{m}.py"),
                         PLOT_SCRIPT.format(m=m))
    return code


def _verify_checks(config):
    """The invariant battery; yields (name, passed, detail)."""
    dets_ok = all(stokes_spectrum.mcal(k).determinant()
                  == -(2 * k + 1) ** 2 for k in range(51))
    yield "mcal_det[k=0..50]", dets_ok, "-(2k+1)^2"

    worst = 0.0
    mults_ok = True
    for m in (0, 1, 2):
        lam = np.linalg.eigvals(assemble_L0(m, 20).entries)
        worst = max(worst, float(np.abs(lam - np.round(lam)).max()))
        mult = int(np.sum(np.abs(lam - 1.0) < 0.25))
        mults_ok &= mult == cluster_size(m)
    yield ("l0_integrality[m=0..2,k=20]", worst <= 1e-8 and mults_ok,
           f"defect {worst:.1e}, unit multiplicities 2/2/1")

    samples = np.linspace(-0.999, 0.999, 1000)
    res = swirl_ode_residual(0.5, samples)
    yield "swirl_ode[eps=0.5]", res <= 1e-12, f"<=1e-12 (got {res:.1e})"

    lam_sw = swirl_block_eigenvalue(0.5, 40)
    yield ("swirl_eigenvalue[eps=0.5]", abs(lam_sw - 1.0) <= 1e-9,
           f"|lam-1| = {abs(lam_sw - 1.0):.1e}")

    total = 0
    idem_ok = True
    for m in (0, 1, 2):
        proj = contour_projection(assemble_L(m, 16, 0.05),
                                  ContourSpec(1.0, 0.5))
        total += proj.rank * (2 if m else 1)
        idem_ok &= proj.idempotency_defect <= 1e-8
    yield "P1_rank[eps=0.05]", total == 8 and idem_ok, f"{total}"

    total0 = 0
    for m in (0, 1):
        proj = contour_projection(assemble_L(m, 16, 0.05),
                                  ContourSpec(0.0, 0.5))
        total0 += proj.rank * (2 if m else 1)
    yield "P0_rank[eps=0.05]", total0 == 3, f"{total0}"

    _, resid = translation_eigenvector(0.1, 30)
    yield ("translation_residual[eps=0.1]", resid <= 1e-8,
           f"{resid:.1e} <= 1e-8")

    report = zero_mode_check(0.1, (1.0, 1.0, 1.0), config.k_max)
    yield ("zero_mode[eps=0.1]", report.residual <= 1e-5,
           f"{report.residual:.1e}")

    moved = 0.0
    for m in (0, 1, 2):
        plus = np.sort_complex(track(m, [0.1], k_max=16).eigenvalues[0])
        minus = np.sort_complex(track(m, [-0.1], k_max=16).eigenvalues[0])
        moved = max(moved, float(np.abs(plus - minus).max()))
    yield "sign_symmetry[eps=0.1]", moved <= 1e-8, f"{moved:.1e}"

    beta_ok = True
    details = []
    for m, target in ((1, 1.0 / 15.0), (2, 4.0 / 15.0)):
        fit = fit_quadratic(track(m, DEFAULT_EPS_GRID, k_max=config.k_max))
        beta_ok &= bool(
            np.all(np.abs(np.array(fit.beta_raw))
                   <= 10.0 * max(DEFAULT_EPS_GRID) ** 3))
        ok = abs(fit.c - target) <= 0.05 * target
        details.append(f"c[m={m}] = {fit.c:.5f}")
        yield f"fit_c[m={m}]", ok, details[-1]
    yield "beta_probe[grid]", beta_ok, "max |Im lambda| <= 10 eps^3"


def cmd_verify(config):
    out = _prepare_out(config)
    rows = []
    failed = 0
    for name, passed, detail in _verify_checks(config):
        rows.append({"check": name, "passed": bool(passed), "detail": detail})
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
        failed += 0 if passed else 1
    write_json(os.path.join(out, "verify.json"), {"checks": rows})
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 0 if failed == 0 else 2


def cmd_export(config):
    out = _prepare_out(config)
    for m in config.modes:
        for eps in config.epsilons:
            lmat = assemble_L(m, config.k_max, eps,
                              grid=_assembly_grid(config))
            tag = f"m{m}_eps{eps:g}"
            save_operator(lmat, os.path.join(out, f"operator_{tag}.bin"),
                          os.path.join(out, f"operator_{tag}.json"))
    eps0 = config.epsilons[0]
    if eps0 > 0.0:
        save_state_json(landau_state(eps0, config.k_max),
                        os.path.join(out, "background_state.json"))
        if eps0 <= 0.5:
            state, _ = translation_eigenvector(eps0, config.k_max)
            save_state_json(state, os.path.join(out, "translation_state.json"))
    return 0


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
        return handler(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
