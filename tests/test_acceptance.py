"""Acceptance battery: one test and one printed pass/fail line per criterion.

Each test prints ``criterion NN: PASS/FAIL (detail)`` before asserting, so a
plain ``pytest -v tests/test_acceptance.py`` run doubles as the sign-off
report.  Tolerances are pinned here and must not be edited to force a pass.

Criterion 04's remainder-halving window follows from the reflection
x3 -> -x3, which maps the Landau profile at eps to the one at -eps.  On a
mode block it is the sign matrix S = (-1)^(k+m) per slot, with one more sign
on the pseudo-scalar stream slots, and L(-eps) = S L(eps) S.  Every branch
vector is an eigenvector of S, and S is +-I on the lambda = 1 space, so the
reduced matrix is even in eps: its eps^3 term vanishes and the remainder
past the eps^2 model is quartic
(tests/test_perturbation.py::test_reduced_matrix_even_in_eps).
A remainder of order eps^p divided by eps^2 shrinks by 2^(p-2) per halving;
the window is [0.8, 1.25] * 2^(p-2), which is [3.2, 5.0] at p = 4.
"""

import functools
import time
from fractions import Fraction

import numpy as np
import pytest

from landauspec.eigentracker import (
    ContourSpec,
    contour_projection,
    fit_quadratic,
    swirl_ode_residual,
    track,
    translation_eigenvector,
)
from landauspec.landau import LandauProfile, eval_profiles
from landauspec.operators import assemble_K, assemble_L, assemble_L0
from landauspec.perturbation import (
    reduced_matrix,
    solve_graph,
    split_blocks,
    z_coefficient,
)
from landauspec.sphbasis import (
    QuadratureGrid,
    default_node_count,
    legendre_raw,
    legendre_values,
    norm_constant,
)
from landauspec.statespace import zero_state
from landauspec.stokes_spectrum import (
    branch_vector,
    gradient_eigenvalues,
    mcal,
    stream_eigenvalues,
)

F = Fraction


def report(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@functools.lru_cache(maxsize=None)
def quadratic_fit(m):
    return fit_quadratic(track(m, [0.02, 0.04, 0.06, 0.08, 0.10], k_max=24))


def stream_member(m, k_max, k, coeff):
    st = zero_state(m, k_max)
    st.psi.coeffs[k - abs(m)] = coeff
    st.psi_prime.coeffs[k - abs(m)] = -coeff
    return st


def test_criterion_01_mcal_determinants_exact():
    t0 = time.perf_counter()
    ok = all(mcal(k).determinant() == -((2 * k + 1) ** 2)
             for k in range(51))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(1, ok, f"-(2k+1)^2 for k=0..50 in {elapsed:.3f} s")


def test_criterion_02_unperturbed_spectrum_integer():
    t0 = time.perf_counter()
    worst = 0.0
    total = 0
    for m, weight in ((0, 1), (1, 2), (2, 2)):
        lam = np.linalg.eigvals(assemble_L0(m, 20).entries)
        worst = max(worst, float(np.abs(lam - np.round(lam.real)).max()))
        total += weight * int(np.sum(np.abs(lam - 1.0) < 1e-8))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and total == 8 and elapsed < 30.0
    assert report(2, ok, f"integer defect {worst:.1e}, unit eigenspace "
                         f"dimension {total}, {elapsed:.1f} s")


def test_criterion_03_branch_tables_and_residuals():
    table_rows = {
        (1, 1, 2): (F(-1, 2), 1, 1, -2, 0),
        (1, 1, 0): (F(1, 2), 0, 1, -1, 1),
        (1, 1, -1): (1, 1, 1, 1, 0),
        (1, 1, -3): (2, 6, 1, -7, 10),
        (2, 1, 3): (F(-1, 3), 1, 1, -3, 0),
        (2, 1, 1): (0, 0, 1, -3, 2),
        (2, 1, -2): (F(1, 2), 1, 1, 2, 0),
        (2, 0, -4): (F(5, 6), F(10, 3), 1, -3, 7),
        (3, 1, 3): (1, -3),
        (3, 1, -4): (1, 4),
    }
    tables_ok = all(branch_vector(k, m, lam).coeffs == row
                    for (k, m, lam), row in table_rows.items())

    worst = 0.0
    k_max = 20
    for m in (0, 1, 2):
        l0 = assemble_L0(m, k_max).entries
        for k in range(max(m, 1), k_max + 1):
            for lam in stream_eigenvalues(k) + gradient_eigenvalues(k):
                v = branch_vector(k, m, lam).to_state(k_max).to_flat()
                resid = np.linalg.norm(l0 @ v - lam * v)
                worst = max(worst, resid / np.linalg.norm(v))
    ok = tables_ok and worst <= 1e-12
    assert report(3, ok, f"tables exact, eigen-residual {worst:.1e} for k<=20")


def test_criterion_04_reduced_matrix_second_order():
    model = np.array([[0.0, 0.0], [-0.2j, 1.0 / 15.0]])
    devs = {}
    t0 = time.perf_counter()
    for eps in (0.05, 0.025):
        blocks = split_blocks(assemble_L(1, 16, eps), 1, strict=False)
        red = reduced_matrix(blocks)
        devs[eps] = float(np.abs((red - np.eye(2)) / eps**2 - model).max())
    elapsed = time.perf_counter() - t0
    ratio = devs[0.05] / devs[0.025]
    bounded = all(dev <= 0.2 * eps for eps, dev in devs.items())
    # even in eps by the reflection symmetry, so the remainder is quartic
    ok = bounded and 3.2 <= ratio <= 5.0 and elapsed < 60.0
    assert report(4, ok, f"distance {devs[0.05]:.1e} <= 0.2 eps, halving "
                         f"ratio {ratio:.2f} required in [3.2, 5.0] "
                         f"(even in eps under x3 -> -x3)")


def test_criterion_05_quadratic_coefficients():
    t0 = time.perf_counter()
    c2 = quadratic_fit(1).c
    c3 = quadratic_fit(2).c
    elapsed = time.perf_counter() - t0
    ok = (abs(c2 - 1.0 / 15.0) <= 0.05 / 15.0
          and abs(c3 - 4.0 / 15.0) <= 0.05 * 4.0 / 15.0
          and elapsed < 300.0)
    assert report(5, ok, f"c2 = {c2:.6f} (1/15 = {1 / 15:.6f}), "
                         f"c3 = {c3:.6f} (4/15 = {4 / 15:.6f}), "
                         f"{elapsed:.1f} s")


def test_criterion_06_rotation_probe():
    # |Im lambda| <= 10 eps^3 at every grid point is the same statement as
    # max over the grid of |Im lambda| / eps^3 <= 10
    worst = {m: max(quadratic_fit(m).beta_over_eps3) for m in (1, 2)}
    raw = {m: max(quadratic_fit(m).beta_raw) for m in (1, 2)}
    ok = worst[1] <= 10.0 and worst[2] <= 10.0
    assert report(6, ok, f"max |Im lambda| {raw[1]:.2e} (m=1), "
                         f"{raw[2]:.2e} (m=2); over eps^3: "
                         f"{worst[1]:.2e}, {worst[2]:.2e} <= 10")


def test_criterion_07_pure_swirl_exactness():
    samples = np.linspace(-0.999, 0.999, 1000)
    worst_ode = max(swirl_ode_residual(eps, samples)
                    for eps in (0.1, 0.5, 0.9))
    curve = track(0, [0.1, 0.2, 0.3], k_max=24)
    pin = float(np.abs(curve.eigenvalues - 1.0).max())
    ok = worst_ode <= 1e-12 and pin <= 1e-9
    assert report(7, ok, f"ODE residual {worst_ode:.1e} <= 1e-12, "
                         f"m=0 cluster defect {pin:.1e} up to eps = 0.3")


def test_criterion_08_translation_eigenvector():
    _, resid = translation_eigenvector(0.1, 30)

    eps = 0.02
    state, _ = translation_eigenvector(eps, 16)
    series = {
        "psi": {1: 2j * eps, 2: 2j * eps**2},
        "radial": {1: -1.2 * eps**2, 2: -6.0 * eps, 3: -3.2 * eps**2},
        "radial_star": {1: -0.4 * eps**2, 2: 18.0 * eps, 3: 9.6 * eps**2},
    }
    comps = state.components()
    series_dev = max(
        abs(comps[name].coeff(k) / z_coefficient(k, 1) - expected)
        for name, terms in series.items() for k, expected in terms.items())
    ok = resid <= 1e-8 and series_dev <= 10.0 * eps**3
    assert report(8, ok, f"residual {resid:.1e} <= 1e-8 at eps = 0.1, "
                         f"series gap {series_dev:.1e} <= 10 eps^3")


def test_criterion_09_contour_ranks(cached_l):
    defect = 0.0
    rank1 = 0
    for m, weight in ((0, 1), (1, 2), (2, 2)):
        (proj,) = contour_projection(cached_l(m, 16, 0.05), ContourSpec(1.0, 0.5))
        rank1 += weight * proj.rank
        defect = max(defect, proj.idempotency_defect)
    rank0 = 0
    for m, weight in ((0, 1), (1, 2)):
        (proj,) = contour_projection(cached_l(m, 16, 0.05), ContourSpec(0.0, 0.5))
        rank0 += weight * proj.rank
    ok = rank1 == 8 and rank0 == 3 and defect <= 1e-8
    assert report(9, ok, f"rank {rank1} at center 1, {rank0} at center 0, "
                         f"idempotency defect {defect:.1e}")


def test_criterion_10_sign_symmetry(cached_l):
    worst = 0.0
    for m in (0, 1, 2):
        plus = np.linalg.eigvals(cached_l(m, 16, 0.1).entries)
        minus = np.linalg.eigvals(cached_l(m, 16, -0.1).entries)
        gaps = np.abs(plus[:, None] - minus[None, :])
        worst = max(worst, float(gaps.min(axis=1).max()),
                    float(gaps.min(axis=0).max()))
    ok = worst <= 1e-8
    assert report(10, ok, f"eigenvalue sets of both parameter signs agree "
                          f"to {worst:.1e} at eps = 0.1")


def test_criterion_11_perturbation_fixtures():
    t0 = time.perf_counter()
    checks = []

    # swirl image splits against the stream eigenvector pairs
    swirl_devs = []
    for eps in (0.04, 0.02):
        img = assemble_K(0, 20, eps).apply_state(
            stream_member(0, 20, 1, norm_constant(1, 0)))
        a2 = (3.0 * img.psi.coeffs[2] - img.psi_prime.coeffs[2]) / 5.0
        a2 /= norm_constant(2, 0)
        a3 = (4.0 * img.psi.coeffs[3] - img.psi_prime.coeffs[3]) / 7.0
        a3 /= norm_constant(3, 0)
        swirl_devs.append(abs(a2 + 8.0 / 15.0 * eps))
        checks.append(abs(a2 + 8.0 / 15.0 * eps) <= 2.0 * eps**3)
        checks.append(abs(a3 + 4.0 / 21.0 * eps**2) <= 4.0 * eps**4)
    checks.append(swirl_devs[0] / swirl_devs[1] >= 1.8)

    # degree-1 stream image of the m = 1 operator, component by component
    zeta = {1: -norm_constant(1, 1), 2: -norm_constant(2, 1) / 3.0,
            3: -2.0 * norm_constant(3, 1) / 3.0}
    want = {("phi_prime", 1, 1): -2j, ("phi_prime", 2, 2): -10j / 3.0,
            ("psi_prime", 2, 1): 4.0, ("psi_prime", 3, 2): 2.0 / 3.0,
            ("radial_star", 2, 2): -8j}
    comp_devs = []
    for eps in (0.05, 0.025):
        img = assemble_K(1, 16, eps).apply_state(
            stream_member(1, 16, 1, zeta[1]))
        dev = 0.0
        for (name, k, order), target in want.items():
            got = img.components()[name].coeff(k) / zeta[k] / eps**order
            dev = max(dev, abs(got - target))
        comp_devs.append(dev)
        checks.append(dev <= 5.0 * eps**2)
    checks.append(comp_devs[0] / comp_devs[1] >= 1.8)

    # coupling and feedback entries of the split blocks
    entry_devs, feedback_devs = [], []
    for eps in (0.05, 0.025):
        blocks = split_blocks(assemble_L(1, 16, eps), 1, strict=False)
        entry_devs.append(abs(blocks.a[1, 0] / eps**2 - 3.6j))
        feedback = blocks.b @ blocks.inv_lambda @ blocks.c
        feedback_devs.append(abs(feedback[1, 0] / eps**2 + 3.8j))
        checks.append(entry_devs[-1] <= 0.02)
        checks.append(feedback_devs[-1] <= 0.02)
    checks.append(entry_devs[0] / entry_devs[1] >= 1.8)
    checks.append(feedback_devs[0] / feedback_devs[1] >= 1.8)

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 60.0
    assert report(11, ok, f"{sum(checks)}/{len(checks)} fixture checks, "
                          f"halving verified, {elapsed:.1f} s")


def test_criterion_12_basis_hygiene():
    grid = QuadratureGrid.build(96)
    ortho = 0.0
    recur = 0.0
    for m in range(6):
        raw = legendre_raw(40, m, grid.x)
        gram = (raw * grid.w) @ raw.T
        norms = np.array([norm_constant(k, m) for k in range(41)])
        scale = np.outer(np.maximum(norms, 1.0), np.maximum(norms, 1.0))
        ortho = max(ortho, float(
            np.max(np.abs(gram - np.diag(norms**2)) / scale)))

        tab = legendre_values(41, m, QuadratureGrid.build(
            default_node_count(41)))
        s = tab.grid.sin_theta
        for k in range(max(m, 1), 41):
            lhs = s * tab.dtheta[tab.row(k)]
            rhs = np.zeros_like(lhs)
            if k - 1 >= m:
                rhs -= (k + 1) * (k + m) * tab.val[tab.row(k - 1)] * (
                    norm_constant(k - 1, m) / norm_constant(k, m))
            rhs += k * (k - m + 1) * tab.val[tab.row(k + 1)] * (
                norm_constant(k + 1, m) / norm_constant(k, m))
            rhs /= 2 * k + 1
            recur = max(recur, float(
                np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs)))))

    theta = np.linspace(1e-3, np.pi - 1e-3, 1000)
    div = 0.0
    for eps in (0.1, 0.5, 0.9):
        vals = eval_profiles(LandauProfile(eps), theta)
        resid = vals["dV_dtheta"] + vals["V"] / np.tan(theta) + vals["F"]
        div = max(div, float(np.abs(resid).max()))
    ok = ortho <= 1e-11 and recur <= 1e-11 and div <= 1e-12
    assert report(12, ok, f"orthogonality {ortho:.1e}, recurrence "
                          f"{recur:.1e}, divergence identity {div:.1e}")
