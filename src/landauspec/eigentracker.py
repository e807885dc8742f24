"""Eigenvalue studies of the assembled operator: sweeps over the family
parameter, expansion-coefficient fits, exact eigenvector constructions,
and eigenvalue counts inside circles, certified by spectral projectors.

The sweep machinery (`track`, `fit_quadratic`) works on the eigenvalue
group near 1, whose drift under the background encodes the quadratic
expansion coefficients and whose imaginary parts probe the conjectured
absence of a rotation rate.  `sweep_grid` and `fit_window` hold the rules
of the grid and of the fit, so a caller can check a grid before any
solve.  Every eigensolve here runs on
`OperatorMatrix.entries`, the stream-scaled real form of L, so an
imaginary part is never rounding: it is half of an exact conjugate pair.
The constructive routines (`translation_eigenvector`, `zero_mode_check`,
`landau_state`) build the symmetry modes, complex states, as the
background of `landau` under a generator (the tilt of the axis is minus
one half of its theta-slopes), and report how well the assembled operator,
applied through `OperatorMatrix.apply_flat`, annihilates or preserves
them.  The family has three zero modes, its derivatives in the three
force directions, and `zero_mode_check` returns one residual for all
three: the axial mode, and one tilt that stands for both horizontal
directions.
The constructions sample the profiles on the same default Gauss rule of
k_max that the assembly uses (`sphbasis.legendre_values`), and the
assembly's tail monitor is the one resolution check they need.
The Schur layer has two private steps, shared by `track` and
`contour_projection`: `_real_schur`, the one caller of `dgees`, takes the
unsorted real Schur form of the stream-scaled matrix, and
`_ordered_schur`, the one caller of `dtrsen` and `dtrsyl`, reorders it so
that the eigenvalues inside a circle centred on the real axis lead, then
decouples them with one quasi-triangular Sylvester solve.  The circle
holds both members of a conjugate pair or neither, so the reordering
never splits a 2x2 block, and one form serves any number of circles.
`track` takes the form once per grid point without Schur vectors: the
group near 1 is the leading block that TRACK_CONTOUR encloses, and its
size must be the unperturbed multiplicity.  Unless
it is given a k_max, `track` truncates each point at
`sphbasis.default_k_max(eps, m)`, the degree at which the background's
coefficients decay below the tail monitor's threshold, with a margin; the
monitor still checks every assembly.
`contour_projection` takes the form once with vectors and, for each of
its circles, measures the Riesz projector P = D Z1 [I X] Z^T D^-1
through its k x n factors, never forming P.  Either way the reordered
form certifies the number of eigenvalues inside the circle, their
separation from the rest of the spectrum and the conditioning of the
splitting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .landau import LandauProfile, eval_profile_derivative, eval_profiles
from .operators import assemble_L
from .sphbasis import (
    default_k_max,
    laplacian,
    legendre_values,
    project,
    project_div_curl,
    solve_poisson,
    zero_field,
)
from .statespace import StateVector, state_from_flat, x_norm
from .stokes_spectrum import branch_frame

DEFAULT_EPS_GRID = (0.02, 0.04, 0.06, 0.08, 0.10)
# the validated ranges of eps: |eps| <= SWEEP_EPS_MAX for a sweep and for
# the margin of default_k_max, and (0, TRANSLATION_EPS_MAX] for the
# translation eigenvector's construction
SWEEP_EPS_MAX = 0.3
TRANSLATION_EPS_MAX = 0.5
# read only by bench/workloads.py::kmax_step, as the reach of the group at 1
CLUSTER_RADIUS = 0.25


def cluster_size(m):
    """Multiplicity of the eigenvalue group at 1 in the unperturbed operator,
    counted on the exact frames.  Only the degree-1 stream branch (k) and the
    degree-2 gradient branch (k - 1) sit at 1, so degrees above 2 add none."""
    size = sum(frame.lams.count(1) for k in range(abs(m), 3)
               for frame in branch_frame(k))
    if size == 0:
        raise ValueError(f"no eigenvalue group at 1 for mode |m| = {abs(m)}")
    return size


@dataclass
class EigenCurve:
    k_max: tuple  # the truncation of each point
    epsilons: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def n_branches(self):
        return self.eigenvalues.shape[1]


def sweep_grid(epsilons):
    """The parameter grid of a sweep as a float array: not empty, inside
    |eps| <= SWEEP_EPS_MAX, where the sweep is validated, and sorted
    ascending."""
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size == 0:
        raise ValueError("empty parameter grid")
    too_large = eps[np.abs(eps) > SWEEP_EPS_MAX]
    if too_large.size:
        raise ValueError(f"sweep validated for |eps| <= {SWEEP_EPS_MAX} "
                         f"only, got eps = {float(too_large[0])!r}")
    drops = np.flatnonzero(np.diff(eps) < 0)
    if drops.size:
        before, after = (float(e) for e in eps[drops[0]:drops[0] + 2])
        raise ValueError(f"parameter grid must be sorted ascending, got "
                         f"eps = {after!r} after {before!r}")
    return eps


def track(m, epsilons, k_max=None):
    """Follow the near-1 eigenvalue group along a sorted parameter grid.

    Each point is assembled at the given k_max, or, when k_max is None, at
    its own `default_k_max(eps, m)`; either way the assembly's tail monitor
    rejects a truncation too small for the point's eps, and the curve
    records each point's k_max.
    Each point takes one ordered real Schur form of the assembled operator,
    without Schur vectors, on the circle TRACK_CONTOUR.  The group is the
    enclosed leading block of that form, which carries every guard of
    `contour_projection`: no eigenvalue within 1e-3 of the circle, a gap
    of twice the enclosed spread, and a well-conditioned Sylvester
    splitting.  The sweep fails unless the block's size is `cluster_size(m)`.
    Branches are matched between consecutive grid points by minimum-cost
    assignment; a change in group size or a jump larger than ten times
    the grid step aborts the sweep.
    """
    eps = sweep_grid(epsilons)
    want = cluster_size(m)
    k_maxes = tuple(default_k_max(e, m) if k_max is None else k_max
                    for e in eps)
    rows = []
    for e, k in zip(eps, k_maxes):
        _, lam, rank, _, _ = _ordered_schur(
            _real_schur(assemble_L(m, k, float(e)).entries, False),
            TRACK_CONTOUR)
        if rank != want:
            raise RuntimeError(
                f"eigenvalue group near 1 has {rank} members at "
                f"eps = {e}, expected {want}"
            )
        rows.append(lam[:rank])
    curve = np.empty((eps.size, want), dtype=complex)
    order = np.lexsort((rows[0].imag, rows[0].real))
    curve[0] = rows[0][order]
    for i in range(1, eps.size):
        # a group has at most two members, so every order can be tried; on
        # a tie in the total distance the first branch keeps its nearest point
        prev = curve[i - 1]
        curve[i] = min(itertools.permutations(rows[i]),
                       key=lambda p: (np.abs(prev - p).sum(),
                                      abs(prev[0] - p[0])))
        step = abs(eps[i] - eps[i - 1])
        moved = np.abs(curve[i] - curve[i - 1]).max()
        if step > 0 and moved > 10.0 * step:
            raise RuntimeError(
                f"a branch moved {moved:.3e} over step {step:.3e}; "
                f"matching is not trustworthy, refine the grid"
            )
    return EigenCurve(k_maxes, eps, curve)


@dataclass
class QuadraticFit:
    """Per-branch fit Re lambda = 1 + c eps^2 + d eps^3 and the raw
    imaginary-part probes."""

    c_branches: tuple
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


def fit_window(epsilons):
    """Mask of the grid points that `fit_quadratic` fits, those in
    [0.02, 0.1]; the fit needs at least 4 of them."""
    eps = np.asarray(epsilons, dtype=float)
    mask = (eps >= 0.02 - 1e-12) & (eps <= 0.1 + 1e-12)
    if mask.sum() < 4:
        raise ValueError(
            f"need at least 4 samples in [0.02, 0.1], have {int(mask.sum())}"
        )
    return mask


def fit_quadratic(curve):
    """Least-squares quadratic coefficient per branch, with a cubic term
    absorbing the next order of the drift."""
    mask = fit_window(curve.epsilons)
    e = curve.epsilons[mask]
    design = np.column_stack([e**2, e**3])
    cs, resids, betas_raw, betas3 = [], [], [], []
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
        resids.append(resid)
        betas_raw.append(float(np.max(np.abs(lam.imag))))
        betas3.append(float(np.max(np.abs(lam.imag) / e**3)))
    return QuadraticFit(c_branches=tuple(cs), residuals=tuple(resids),
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
    other components, so their spectrum can be read off a sub-matrix of
    the entries.
    """
    lmat = assemble_L(0, k_max, epsilon)
    imap = lmat.index_map
    sl_a, sl_b = imap.sl("psi"), imap.sl("psi_prime")
    idx = np.r_[sl_a.start:sl_a.stop, sl_b.start:sl_b.stop]
    lam = np.linalg.eigvals(lmat.entries[np.ix_(idx, idx)])
    return complex(lam[np.argmin(np.abs(lam - 1.0))])


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
                                     -1j * np.asarray(t_phi, dtype=complex),
                                     table)
    curl_c.coeffs *= 1j  # the projection returns the curl divided by i
    phi = solve_poisson(div_c)
    psi = solve_poisson(curl_c)
    radial = project(np.asarray(u_r, dtype=complex), table)
    q_f = project(np.asarray(q, dtype=complex), table)
    star = q_f.copy()
    star.coeffs[:] = -laplacian(phi).coeffs - radial.coeffs - q_f.coeffs
    zero = zero_field(table.m, table.k_max)
    return StateVector(table.m, phi, psi, zero.copy(), zero.copy(), radial,
                       star)


def landau_state(epsilon, k_max):
    """State representation of a background family member itself (m = 0)."""
    table = legendre_values(k_max, 0)
    grid = table.grid
    prof = eval_profiles(LandauProfile(epsilon), grid.theta)
    return _symmetry_state(table, prof["V"], np.zeros(grid.theta.size),
                           prof["F"], prof["p"])


def translation_eigenvector(epsilon, k_max):
    """Exact drift eigenvector at 1 from horizontal translation invariance
    of the background family; returns (state, relative residual).

    All angular profiles are closed-form.  The symmetry-state builder takes
    no tangential field, the theta-slopes of the tangential and radial
    backgrounds as the radial profile and the translated boundary pressure;
    the stream slot then carries -i times the tangential background and its
    primed slot the negative.  The relative residual is
    |(L - 1) state| / |state| in the weighted norm.  A k_max too small for
    eps is reported by the tail monitor of the assembly of L.
    """
    if epsilon == 0.0:
        raise ValueError(
            "the translation mode degenerates to zero at eps = 0"
        )
    if not 0.0 < epsilon <= TRANSLATION_EPS_MAX:
        raise ValueError(f"construction validated for eps in "
                         f"(0, {TRANSLATION_EPS_MAX}]")
    table = legendre_values(k_max, 1)
    c, s = table.grid.x, table.grid.sin_theta
    prof = eval_profiles(LandauProfile(epsilon), table.grid.theta)
    zero = np.zeros(c.size)
    state = _symmetry_state(table, zero, zero,
                            prof["dV_dtheta"] * s + prof["dF_dtheta"] * c,
                            c * prof["dp_dtheta"] - 2.0 * s * prof["p"])
    psi = project(-1j * prof["V"], table)
    psi_prime = psi.copy()
    psi_prime.coeffs[:] = -psi.coeffs
    state = replace(state, psi=psi, psi_prime=psi_prime)
    return state, _relative_residual(assemble_L(1, k_max, epsilon), state, 1.0)


def _relative_residual(lmat, state, lam):
    """|(L - lam) state| / |state| in the weighted norm."""
    flat = state.to_flat()
    resid = lmat.apply_flat(flat) - lam * flat
    return x_norm(state_from_flat(lmat.m, lmat.k_max, resid)) / x_norm(state)


def _axial_state(epsilon, k_max):
    """Derivative of the family in its parameter (m = 0): the background
    state built from the closed-form eps-derivatives of (V, F, p)."""
    table = legendre_values(k_max, 0)
    grid = table.grid
    der = eval_profile_derivative(LandauProfile(epsilon), grid.theta)
    return _symmetry_state(table, der["dV_deps"], np.zeros(grid.theta.size),
                           der["dF_deps"], der["dp_deps"])


def _tilt_state(epsilon, k_max):
    """Derivative of the family under tilting the symmetry axis (m = 1):
    minus one half of the background's theta-slopes, with the azimuthal
    component carried by the pole-safe quotient V / sin(theta)."""
    table = legendre_values(k_max, 1)
    prof = eval_profiles(LandauProfile(epsilon), table.grid.theta)
    return _symmetry_state(table, -0.5 * prof["dV_dtheta"],
                           -0.5j * prof["V_over_sin"],
                           -0.5 * prof["dF_dtheta"], -0.5 * prof["dp_dtheta"])


def zero_mode_check(epsilon, k_max=None):
    """Combined residual of the operator on the family's three zero modes,
    its derivatives in the three force directions.

    The vertical direction is the derivative in the parameter itself
    (m = 0); the two horizontal ones tilt the symmetry axis (m = +-1), and
    the m = 1 tilt stands for both.  Both are analytic, built from the
    closed-form family derivatives.  The result is the norm-weighted root
    mean square of the relative residuals r = |L state| / |state|,
    sqrt(sum c n^2 r^2 / sum c n^2) with n the state norm and the count c
    1 for the axial mode and 2 for the tilt.  Each mode's state and
    operator are built at the given k_max, or, when k_max is None, at that
    mode's `default_k_max(epsilon, m)`, whose margin is validated for
    |eps| <= SWEEP_EPS_MAX only.
    """
    if epsilon <= 0.0:
        raise ValueError("family derivative needs eps > 0")
    if k_max is None and epsilon > SWEEP_EPS_MAX:
        raise ValueError(f"the default truncation is validated for "
                         f"|eps| <= {SWEEP_EPS_MAX} only, got eps = "
                         f"{epsilon!r}; give a k_max")
    num = den = 0.0
    for count, m, build in ((1, 0, _axial_state), (2, 1, _tilt_state)):
        k = default_k_max(epsilon, m) if k_max is None else k_max
        state = build(epsilon, k)
        res = _relative_residual(assemble_L(m, k, epsilon), state, 0.0)
        n2 = x_norm(state) ** 2
        num += count * n2 * res**2
        den += count * n2
    return float(np.sqrt(num / den))


@dataclass
class ContourSpec:
    center: complex
    radius: float

    def encloses(self, z):
        """Whether z (a number or an array) lies strictly inside the circle;
        on an array, the mask by which `_ordered_schur` reorders a Schur
        form, so no callback runs per eigenvalue."""
        return abs(z - self.center) < self.radius


# the circle that holds the group near 1, in every command
TRACK_CONTOUR = ContourSpec(1.0, 0.5)


@dataclass
class ContourProjection:
    rank: int
    idempotency_defect: float


def _no_select(re, im):
    """dgees's select function, which it never calls when sort_t is 0."""
    return False


def _real_schur(a, vectors):
    """Real Schur form A = Z T Z^T of a real matrix, unsorted: (T, the
    eigenvalues wr + i wi in the order of T's diagonal, Z or None), Z only
    when vectors is true.  One `dgees` after its workspace query; with
    sort_t 0 it calls no select function, so no Python callback runs per
    eigenvalue.  `_ordered_schur` reorders the form for a circle."""
    # the workspace query lets the Hessenberg reduction run blocked; the
    # minimal default workspace is 1.7x slower at dim 576
    lwork = int(scipy.linalg.lapack.dgees(
        _no_select, a, compute_v=int(vectors), lwork=-1)[-2][0])
    t, _, wr, wi, z, _, info = scipy.linalg.lapack.dgees(
        _no_select, a, compute_v=int(vectors), lwork=lwork)
    if info != 0:
        raise ValueError(f"real Schur form failed: dgees info {info}")
    return t, wr + 1j * wi, z if vectors else None


def _ordered_schur(form, spec):
    """The real Schur form of `_real_schur` reordered so that the k
    eigenvalues inside the circle of spec lead, in T11, and the solution
    X of the Sylvester equation T11 X - X T22 = T12 that decouples T11
    from the trailing block.

    The reordering is LAPACK's `dtrsen` (job N) on the mask
    `spec.encloses`, the step that `dgees` runs itself when it sorts, so
    the result is bitwise that of a sorted `dgees`; the form is left as it
    was, so one form serves many circles.  Returns (T, eigenvalues
    wr + i wi in the new order, k, Z or None, X or None): Z when the form
    has it, X only when 0 < k < n.  The circle is centred on the real
    axis, so it holds both members of a conjugate pair or neither, and
    the reordering never splits a 2x2 block.  Errors out if the centre is
    off the real axis, if an eigenvalue sits within 1e-3 of the contour,
    if the circle fails to separate the enclosed eigenvalues from the rest
    of the spectrum by twice their largest pairwise distance, or if the
    splitting is ill-conditioned: ||X||_2 above 1e12, or a Sylvester
    solve that had to scale its right-hand side or failed.
    """
    if spec.radius <= 0.0:
        raise ValueError("contour radius must be positive")
    center = complex(spec.center)
    if center.imag != 0.0:
        raise ValueError(f"contour centre {center} is off the real axis, so "
                         f"the circle can split a conjugate pair")
    t, lam, z = form
    n = t.shape[0]
    # without vectors dtrsen reads no q, so T stands in for it.  A sorted
    # dgees returns info n + 2 when rounding in the reordering moves a
    # selected eigenvalue across the circle; such an eigenvalue lies within
    # rounding of the contour, which the 1e-3 guard below rejects.
    t, q, wr, wi, k, _, _, info = scipy.linalg.lapack.dtrsen(
        spec.encloses(lam), t, t if z is None else z, job="N",
        wantq=int(z is not None))
    if info != 0:
        raise ValueError(f"reordering the real Schur form failed: dtrsen "
                         f"info {info}")
    lam = wr + 1j * wi
    dist_circle = np.abs(np.abs(lam - center) - spec.radius)
    if dist_circle.min() < 1e-3:
        raise ValueError(
            f"an eigenvalue lies within 1e-3 of the contour "
            f"(distance {dist_circle.min():.2e})"
        )
    x = None
    if 0 < k < n:  # nothing to separate, and dtrsyl rejects an empty block
        inside = lam[:k]
        spread = float(np.abs(inside[:, None] - inside).max())
        gap = float(np.abs(lam[k:] - center).min()
                    - np.abs(inside - center).max())
        if gap < 2.0 * spread:
            raise ValueError(
                f"contour does not separate: annular gap {gap:.3e} is below "
                f"twice the enclosed cluster spread {spread:.3e}"
            )
        x, sylv_scale, info = scipy.linalg.lapack.dtrsyl(
            t[:k, :k], t[k:, k:], t[:k, k:], isgn=-1)
        if info != 0 or sylv_scale < 1.0:
            raise ValueError(
                f"Sylvester splitting ill-conditioned: dtrsyl info {info}, "
                f"scale {sylv_scale:.3e}"
            )
        x_norm2 = float(np.linalg.norm(x, 2))
        if x_norm2 > 1e12:
            raise ValueError(
                f"Sylvester splitting ill-conditioned: ||X||_2 = "
                f"{x_norm2:.3e} exceeds 1e12"
            )
    return t, lam, k, None if z is None else q, x


def contour_projection(lmat, *specs):
    """Rank and idempotency defect of the Riesz projector onto the
    eigenvalues inside each circle, one ContourProjection per spec, all
    from one real Schur form.

    L is similar to its real form A = D^-1 L D, the entries of the
    operator, with D the unitary diagonal stream scaling.  One real Schur
    form A = Z T Z^T with Schur vectors is reordered for each circle so
    that its k enclosed eigenvalues lead, in T11, and the Sylvester
    solution X decouples them from the trailing block (`track` takes the
    same steps without vectors).  The projector is P = D Z1 W D^-1 with
    Z1 = Z[:, :k] and W = [I X] Z^T, of rank k, as every singular value
    of [I X] is at least 1.  P is never formed: P^2 - P =
    D Z1 (W Z1 - I) W D^-1, so with D unitary and Z1 orthonormal
    ||P^2 - P||_2 = ||(W Z1 - I) W||_2, a k x n product, and 0 when P is
    0 or I.  What the projector certifies is therefore that count, the
    separation of the enclosed group from the rest of the spectrum, and
    the conditioning ||X||_2 of the splitting; it raises the errors of
    `_ordered_schur`.
    """
    form = _real_schur(lmat.entries, True)
    projections = []
    for spec in specs:
        _, _, k, z, x = _ordered_schur(form, spec)
        defect = 0.0
        if x is not None:  # otherwise P is 0 or I
            w = z[:, :k].T + x @ z[:, k:].T
            defect = float(np.linalg.norm((w @ z[:, :k] - np.eye(k)) @ w, 2))
        projections.append(ContourProjection(rank=k,
                                             idempotency_defect=defect))
    return tuple(projections)
