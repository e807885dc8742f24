"""Eigenvalue studies of the assembled operator: sweeps over the family
parameter, expansion-coefficient fits, exact eigenvector constructions,
and contour projections.

The sweep machinery (`track`, `fit_quadratic`) works on the eigenvalue
group near 1, whose drift under the background encodes the quadratic
expansion coefficients and whose imaginary parts probe the conjectured
absence of a rotation rate.  The constructive routines
(`translation_eigenvector`, `zero_mode_check`, `landau_state`) build the
symmetry modes directly from the closed-form background profiles, the
zero modes analytically from the closed-form family derivatives, and
report how well the assembled matrix annihilates or preserves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .landau import LandauProfile, eval_profile_derivative, eval_profiles
from .operators import assemble_L
from .sphbasis import (
    QuadratureGrid,
    default_node_count,
    laplacian,
    legendre_values,
    project,
    project_div_curl,
    solve_poisson,
    zero_field,
)
from .statespace import StateVector, state_from_flat, x_norm

DEFAULT_K_MAX = 24
DEFAULT_EPS_GRID = (0.02, 0.04, 0.06, 0.08, 0.10)
CLUSTER_RADIUS = 0.25


def cluster_size(m):
    """Multiplicity of the eigenvalue group at 1 in the unperturbed operator."""
    sizes = {0: 2, 1: 2, 2: 1}
    if abs(m) not in sizes:
        raise ValueError(f"no eigenvalue group at 1 for mode |m| = {abs(m)}")
    return sizes[abs(m)]


@dataclass
class EigenCurve:
    m: int
    k_max: int
    epsilons: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def n_branches(self):
        return self.eigenvalues.shape[1]


def track(m, epsilons, k_max=DEFAULT_K_MAX):
    """Follow the near-1 eigenvalue group along a sorted parameter grid.

    Branches are matched between consecutive grid points by minimum-cost
    assignment; a change in group size or a jump larger than ten times
    the grid step aborts the sweep.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size == 0:
        raise ValueError("empty parameter grid")
    if np.any(np.abs(eps) > 0.3):
        raise ValueError("sweep validated for |eps| <= 0.3 only")
    if np.any(np.diff(eps) < 0):
        raise ValueError("parameter grid must be sorted ascending")
    want = cluster_size(m)
    rows = []
    for e in eps:
        lam = np.linalg.eigvals(assemble_L(m, k_max, float(e)).entries)
        group = lam[np.abs(lam - 1.0) < CLUSTER_RADIUS]
        if group.size != want:
            raise RuntimeError(
                f"eigenvalue group near 1 has {group.size} members at "
                f"eps = {e}, expected {want}"
            )
        rows.append(group)
    curve = np.empty((eps.size, want), dtype=complex)
    order = np.lexsort((rows[0].imag, rows[0].real))
    curve[0] = rows[0][order]
    for i in range(1, eps.size):
        cost = np.abs(curve[i - 1][:, None] - rows[i][None, :])
        ri, ci = scipy.optimize.linear_sum_assignment(cost)
        curve[i, ri] = rows[i][ci]
        step = abs(eps[i] - eps[i - 1])
        moved = np.abs(curve[i] - curve[i - 1]).max()
        if step > 0 and moved > 10.0 * step:
            raise RuntimeError(
                f"a branch moved {moved:.3e} over step {step:.3e}; "
                f"matching is not trustworthy, refine the grid"
            )
    return EigenCurve(m=m, k_max=k_max, epsilons=eps, eigenvalues=curve)


@dataclass
class QuadraticFit:
    """Per-branch fit Re lambda = 1 + c eps^2 + d eps^3 and the raw
    imaginary-part probes."""

    m: int
    c_branches: tuple
    cubic_terms: tuple
    residuals: tuple
    beta_raw: tuple
    beta_over_eps3: tuple

    @property
    def moving_branch(self):
        return int(np.argmax(np.abs(self.c_branches)))

    @property
    def c(self):
        return self.c_branches[self.moving_branch]

    @property
    def beta_residual(self):
        return max(self.beta_over_eps3)


def fit_quadratic(curve):
    """Least-squares quadratic coefficient per branch, with a cubic term
    absorbing the next order of the drift."""
    eps = curve.epsilons
    mask = (eps >= 0.02 - 1e-12) & (eps <= 0.1 + 1e-12)
    if mask.sum() < 4:
        raise ValueError(
            f"need at least 4 samples in [0.02, 0.1], have {int(mask.sum())}"
        )
    e = eps[mask]
    design = np.column_stack([e**2, e**3])
    cs, ds, resids, betas_raw, betas3 = [], [], [], [], []
    for j in range(curve.n_branches):
        lam = curve.eigenvalues[mask, j]
        coef, *_ = np.linalg.lstsq(design, lam.real - 1.0, rcond=None)
        model = design @ coef
        resid = float(np.sqrt(np.mean((lam.real - 1.0 - model) ** 2)))
        scale = float(np.max(np.abs(coef[0]) * e**2))
        if resid > max(1e-2 * scale, 1e-10):
            raise RuntimeError(
                f"branch {j}: fit residual {resid:.3e} exceeds 1e-2 of the "
                f"fitted quadratic term {scale:.3e}"
            )
        cs.append(float(coef[0]))
        ds.append(float(coef[1]))
        resids.append(resid)
        betas_raw.append(float(np.max(np.abs(lam.imag))))
        betas3.append(float(np.max(np.abs(lam.imag) / e**3)))
    return QuadraticFit(m=curve.m, c_branches=tuple(cs),
                        cubic_terms=tuple(ds), residuals=tuple(resids),
                        beta_raw=tuple(betas_raw),
                        beta_over_eps3=tuple(betas3))


def swirl_ode_residual(epsilon, samples):
    """Residual of g(t) = (1 - eps t)^-2 in the axisymmetric swirl ODE

        -(1 - t^2) g'' + 4 t g' + 2 eps (1 - t^2) / (1 - eps t) g'
          + [ -4 eps t / (1 - eps t) - 2 (1 - eps^2) / (1 - eps t)^2 + 2 ] g

    evaluated at the given sample points t in (-1, 1).
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("profile parameter must lie in [0, 1)")
    t = np.asarray(samples, dtype=np.longdouble)
    if np.any(np.abs(t) >= 1.0):
        raise ValueError("samples must lie strictly inside (-1, 1)")
    # g'' / g scales like (1 - eps t)^-4, so near t = 1 the residual of the
    # exact solution is dominated by rounding unless the cancellation runs
    # at extended precision and between O(1) quantities: each term below
    # carries a factor d^4.
    eps = np.longdouble(epsilon)
    d = 1.0 - eps * t
    one_mt2 = 1.0 - t * t
    term_gpp = -6.0 * eps**2 * one_mt2
    term_gp = 8.0 * eps * t * d
    term_swirl = 4.0 * eps**2 * one_mt2
    term_bracket = -4.0 * eps * t * d - 2.0 * (1.0 - eps**2) + 2.0 * d * d
    resid = (term_gpp + term_gp + term_swirl + term_bracket) / d**4
    return float(np.max(np.abs(resid)))


def swirl_block_eigenvalue(epsilon, k_max):
    """Eigenvalue of the closed axisymmetric stream sub-block nearest 1.

    The (psi, psi') rows of the m = 0 operator never couple back to the
    other components, so their spectrum can be read off a sub-matrix.
    """
    lmat = assemble_L(0, k_max, epsilon)
    imap = lmat.index_map
    sl_a, sl_b = imap.sl("psi"), imap.sl("psi_prime")
    idx = np.r_[sl_a.start:sl_a.stop, sl_b.start:sl_b.stop]
    sub = lmat.entries[np.ix_(idx, idx)]
    lam = np.linalg.eigvals(sub)
    return complex(lam[np.argmin(np.abs(lam - 1.0))])


def _tail_ratio(state):
    """Fraction of squared coefficient mass in the top decile of degrees."""
    total = 0.0
    tail = 0.0
    for f in state.components().values():
        mass = np.abs(f.coeffs) ** 2
        cut = max(1, int(np.ceil(0.1 * mass.size)))
        total += mass.sum()
        tail += mass[-cut:].sum()
    return tail / total if total > 0.0 else 0.0


def _require_resolved(state, k_max):
    ratio = _tail_ratio(state)
    if ratio > 1e-10:
        raise ValueError(
            f"k_max = {k_max} under-resolves the profile: top-decile "
            f"coefficient mass fraction {ratio:.2e} exceeds 1e-10"
        )


def _symmetry_state(table, t_theta, t_phi, u_r, q):
    """State of a velocity field on the sphere given by its tangential pair,
    its radial component and its pressure trace (nodal values on the table's
    grid).

    The tangential field enters through its potential and stream function,
    the radial component fills the plain radial slot, and the starred slot
    balances the trace identity against the pressure.  The primed slots
    stay empty.
    """
    div_c, curl_c = project_div_curl(np.asarray(t_theta, dtype=complex),
                                     np.asarray(t_phi, dtype=complex), table)
    phi = solve_poisson(div_c)
    psi = solve_poisson(curl_c)
    radial = project(u_r, table)
    q_f = project(q, table)
    star = q_f.copy()
    star.coeffs[:] = -laplacian(phi).coeffs - radial.coeffs - q_f.coeffs
    zero = zero_field(table.m, table.k_max)
    return StateVector(table.m, phi, psi, zero.copy(), zero.copy(), radial,
                       star)


def _mode_table(m, k_max):
    grid = QuadratureGrid.build(default_node_count(k_max))
    return grid, legendre_values(k_max, m, grid)


def landau_state(epsilon, k_max):
    """State representation of a background family member itself (m = 0)."""
    grid, table = _mode_table(0, k_max)
    prof = eval_profiles(LandauProfile(epsilon), grid.theta)
    return _symmetry_state(table, prof["V"], np.zeros(grid.theta.size),
                           prof["F"], prof["p"])


def translation_eigenvector(epsilon, k_max):
    """Exact drift eigenvector at 1 from horizontal translation invariance
    of the background family; returns (state, relative residual).

    All angular profiles are closed-form: the stream slot carries -i times
    the tangential background, the radial slot combines the theta-slopes of
    the tangential and radial backgrounds, and the starred slot balances
    those against the translated boundary pressure.  The relative residual
    is |(L - 1) state| / |state| in the weighted norm.
    """
    if epsilon == 0.0:
        raise ValueError(
            "the translation mode degenerates to zero at eps = 0"
        )
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("construction validated for eps in (0, 0.5]")
    grid, table = _mode_table(1, k_max)
    c = grid.x
    s = grid.sin_theta
    d = 1.0 - epsilon * c
    prof = eval_profiles(LandauProfile(epsilon), grid.theta)
    g = (c - epsilon) / d**2
    gp = -s * (d + 2.0 * epsilon * (c - epsilon)) / d**3
    q_prof = 4.0 * epsilon * (-2.0 * g * s + gp * c)
    theta_prof = prof["dV_dtheta"] * s + prof["dF_dtheta"] * c

    psi = project(-1j * prof["V"], table)
    psi_prime = psi.copy()
    psi_prime.coeffs[:] = -psi.coeffs
    radial = project(theta_prof, table)
    star = project(-theta_prof - q_prof, table)
    zero = zero_field(1, k_max)
    state = StateVector(1, zero.copy(), psi, zero.copy(), psi_prime,
                        radial, star)
    _require_resolved(state, k_max)

    lmat = assemble_L(1, k_max, epsilon)
    flat = state.to_flat()
    resid = state_from_flat(1, k_max, lmat.entries @ flat - flat)
    return state, x_norm(resid) / x_norm(state)


@dataclass
class ZeroModeReport:
    epsilon: float
    direction: tuple
    residual: float
    axial: StateVector | None
    transverse: StateVector | None
    axial_residual: float | None
    transverse_residual: float | None


def _axial_state(epsilon, k_max):
    """Derivative of the family in its parameter (m = 0): the background
    state built from the closed-form eps-derivatives of (V, F, p)."""
    grid, table = _mode_table(0, k_max)
    der = eval_profile_derivative(LandauProfile(epsilon), grid.theta)
    return _symmetry_state(table, der["dV_deps"], np.zeros(grid.theta.size),
                           der["dF_deps"], der["dp_deps"])


def _tilt_state(epsilon, k_max):
    """Derivative of the family under tilting the symmetry axis (m = 1),
    from the exact slopes in t = cos(theta) of the closed-form profiles
    f = 2((1 - eps^2)/(1 - eps t)^2 - 1), w = -2 eps/(1 - eps t) and
    p = 4 eps (t - eps)/(1 - eps t)^2."""
    grid, table = _mode_table(1, k_max)
    c = grid.x
    s = grid.sin_theta
    d = 1.0 - epsilon * c
    w = -2.0 * epsilon / d
    fp = 4.0 * epsilon * (1.0 - epsilon**2) / d**3
    wp = -2.0 * epsilon**2 / d**2
    pp = 4.0 * epsilon * (1.0 + epsilon * c - 2.0 * epsilon**2) / d**3
    return _symmetry_state(table, 0.5 * (wp * s**2 - w * c), -0.5j * w,
                           0.5 * fp * s, 0.5 * pp * s)


def _mode_residual(state, lmat):
    image = state_from_flat(state.m, state.k_max,
                            lmat.entries @ state.to_flat())
    return x_norm(image) / x_norm(state)


def zero_mode_check(epsilon, direction, k_max):
    """Residual of the operator on the family derivative in the given force
    direction.

    The vertical component is the derivative in the parameter itself
    (m = 0); the horizontal components tilt the symmetry axis (m = 1).
    Both are analytic zero modes, built from the closed-form family
    derivatives.  The reported residual combines the two per-mode relative
    residuals |L state| / |state|, weighted by the direction and the state
    norms.
    """
    if epsilon <= 0.0:
        raise ValueError("family derivative needs eps > 0")
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    direction = direction / nrm
    w_ax = abs(direction[2])
    w_tr = float(np.hypot(direction[0], direction[1]))

    axial = trans = None
    res_ax = res_tr = None
    if w_ax > 1e-14:
        axial = _axial_state(epsilon, k_max)
        res_ax = _mode_residual(axial, assemble_L(0, k_max, epsilon))
    if w_tr > 1e-14:
        trans = _tilt_state(epsilon, k_max)
        res_tr = _mode_residual(trans, assemble_L(1, k_max, epsilon))

    num = den = 0.0
    if axial is not None:
        n = w_ax * x_norm(axial)
        num += (n * res_ax) ** 2
        den += n**2
    if trans is not None:
        n = w_tr * x_norm(trans)
        num += (n * res_tr) ** 2
        den += n**2
    return ZeroModeReport(
        epsilon=epsilon, direction=tuple(direction),
        residual=float(np.sqrt(num / den)),
        axial=axial, transverse=trans,
        axial_residual=res_ax, transverse_residual=res_tr,
    )


def _max_cluster_spread(points):
    """Largest within-cluster pairwise distance, clustering the points by
    chain linkage at the CLUSTER_RADIUS scale.  A contour may legitimately
    enclose several well-separated eigenvalue groups; only the smear of an
    individual group measures how sharply the projector can resolve it."""
    n = points.size
    if n < 2:
        return 0.0
    dist = np.abs(points[:, None] - points[None, :])
    label = np.arange(n)
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= CLUSTER_RADIUS and label[i] != label[j]:
                label[label == label[j]] = label[i]
    spread = 0.0
    for lab in np.unique(label):
        members = dist[np.ix_(label == lab, label == lab)]
        spread = max(spread, float(members.max()))
    return spread


@dataclass
class ContourSpec:
    center: complex
    radius: float
    nodes: int = 64


@dataclass
class ContourProjection:
    matrix: np.ndarray = field(repr=False)
    rank: int
    idempotency_defect: float
    enclosed: tuple


def contour_projection(lmat, spec):
    """Trapezoidal Riesz projector over a circle around the target group;
    rank counted from singular values above 1/2.

    Errors out if an eigenvalue sits within 1e-3 of the contour, if a node
    resolvent is ill-conditioned, or if the circle fails to separate the
    enclosed group from the rest of the spectrum by twice its own spread.
    """
    if spec.nodes < 64:
        raise ValueError("contour quadrature needs at least 64 nodes")
    if spec.radius <= 0.0:
        raise ValueError("contour radius must be positive")
    a = lmat.entries
    n = a.shape[0]
    lam_all = np.linalg.eigvals(a)
    dist_circle = np.abs(np.abs(lam_all - spec.center) - spec.radius)
    if dist_circle.min() < 1e-3:
        raise ValueError(
            f"an eigenvalue lies within 1e-3 of the contour "
            f"(distance {dist_circle.min():.2e})"
        )
    on_inside = np.abs(lam_all - spec.center) < spec.radius
    inside = lam_all[on_inside]
    outside = lam_all[~on_inside]
    spread = _max_cluster_spread(inside)
    if inside.size and outside.size:
        gap = float(np.abs(outside - spec.center).min()
                    - np.abs(inside - spec.center).max())
        if gap < 2.0 * spread:
            raise ValueError(
                f"contour does not separate: annular gap {gap:.3e} is below "
                f"twice the enclosed cluster spread {spread:.3e}"
            )
    phases = np.exp(2j * np.pi * np.arange(spec.nodes) / spec.nodes)
    acc = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for z in phases:
        node = spec.center + spec.radius * z
        mat = node * eye - a
        if np.linalg.cond(mat, 1) > 1e12:
            raise ValueError(
                f"resolvent solve ill-conditioned at contour node {node:.6g}"
            )
        acc += z * np.linalg.solve(mat, eye)
    proj = (spec.radius / spec.nodes) * acc
    sing = np.linalg.svd(proj, compute_uv=False)
    rank = int(np.sum(sing > 0.5))
    defect = float(np.linalg.norm(proj @ proj - proj, 2))
    return ContourProjection(matrix=proj, rank=rank,
                             idempotency_defect=defect,
                             enclosed=tuple(np.sort_complex(inside)))
