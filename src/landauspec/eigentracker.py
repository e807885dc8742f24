"""Eigenvalue studies of the assembled operator: sweeps over the family
parameter, expansion-coefficient fits, exact eigenvector constructions,
and spectral projectors.

The sweep machinery (`track`, `fit_quadratic`) works on the eigenvalue
group near 1, whose drift under the background encodes the quadratic
expansion coefficients and whose imaginary parts probe the conjectured
absence of a rotation rate.  Every eigensolve here runs on
`OperatorMatrix.entries`, the stream-scaled real form of L, so an
imaginary part is never rounding: it is half of an exact conjugate pair.
The constructive routines (`translation_eigenvector`, `zero_mode_check`,
`landau_state`) build the symmetry modes, complex states, as the
background of `landau` under a generator (the tilt of the axis is minus
one half of its theta-slopes), and report how well the assembled operator,
applied through `OperatorMatrix.apply_flat`, annihilates or preserves
them.
The constructions sample the profiles on the same default Gauss rule of
k_max that the assembly uses (`sphbasis.legendre_values`), and the
assembly's tail monitor is the one resolution check they need.
One ordered real Schur form of the stream-scaled matrix on a circle
centred on the real axis, with one quasi-triangular Sylvester solve,
serves both `track` and `contour_projection` (`_ordered_schur`, the one
caller of `dgees` and `dtrsyl`); the circle holds both members of a
conjugate pair or neither, so the ordering never splits a 2x2 block.
`track` takes it once per grid point without Schur vectors: the group
near 1 is read off its eigenvalues and the count inside TRACK_CONTOUR is
the point's rank.  `contour_projection` takes it with vectors and builds
the Riesz projector P = D Z1 [I X] Z^T D^-1.  Either way the form
certifies the number of eigenvalues inside the circle, their separation
from the rest of the spectrum and the conditioning of the splitting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .landau import LandauProfile, eval_profile_derivative, eval_profiles
from .operators import assemble_L, stream_scale
from .sphbasis import (
    laplacian,
    legendre_values,
    project,
    project_div_curl,
    solve_poisson,
    zero_field,
)
from .statespace import StateVector, state_from_flat, x_norm
from .stokes_spectrum import branch_frame

DEFAULT_K_MAX = 24
DEFAULT_EPS_GRID = (0.02, 0.04, 0.06, 0.08, 0.10)
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
    m: int
    k_max: int
    epsilons: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    ranks: tuple = ()  # track's count inside TRACK_CONTOUR, per point

    @property
    def n_branches(self):
        return self.eigenvalues.shape[1]


def track(m, epsilons, k_max=DEFAULT_K_MAX):
    """Follow the near-1 eigenvalue group along a sorted parameter grid.

    Each point takes one ordered real Schur form of the assembled operator,
    without Schur vectors, on the circle TRACK_CONTOUR; the group is read
    off its eigenvalues, and the number inside the circle is the point's
    rank.  The Schur form carries every guard of `contour_projection`: no
    eigenvalue within 1e-3 of the circle, a gap of twice the enclosed
    spread, and a well-conditioned Sylvester splitting.
    Branches are matched between consecutive grid points by minimum-cost
    assignment; a change in group size or a jump larger than ten times
    the grid step aborts the sweep.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size == 0:
        raise ValueError("empty parameter grid")
    too_large = eps[np.abs(eps) > 0.3]
    if too_large.size:
        raise ValueError(f"sweep validated for |eps| <= 0.3 only, got "
                         f"eps = {float(too_large[0])!r}")
    drops = np.flatnonzero(np.diff(eps) < 0)
    if drops.size:
        before, after = (float(e) for e in eps[drops[0]:drops[0] + 2])
        raise ValueError(f"parameter grid must be sorted ascending, got "
                         f"eps = {after!r} after {before!r}")
    want = cluster_size(m)
    rows, ranks = [], []
    for e in eps:
        lam, rank, _, _ = _ordered_schur(
            assemble_L(m, k_max, float(e)).entries, TRACK_CONTOUR,
            vectors=False)
        ranks.append(rank)
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
    return EigenCurve(m, k_max, eps, curve, tuple(ranks))


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
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("construction validated for eps in (0, 0.5]")
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

    states, residuals = [], []
    num = den = 0.0
    for weight, m, build in ((w_ax, 0, _axial_state), (w_tr, 1, _tilt_state)):
        state = res = None
        if weight > 1e-14:
            state = build(epsilon, k_max)
            res = _relative_residual(assemble_L(m, k_max, epsilon), state, 0.0)
            n = weight * x_norm(state)
            num += (n * res) ** 2
            den += n**2
        states.append(state)
        residuals.append(res)
    return ZeroModeReport(
        epsilon=epsilon, direction=tuple(direction),
        residual=float(np.sqrt(num / den)),
        axial=states[0], transverse=states[1],
        axial_residual=residuals[0], transverse_residual=residuals[1],
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


# the circle on which `track` counts the group near 1 (its ranks)
TRACK_CONTOUR = ContourSpec(1.0, 0.5)


@dataclass
class ContourProjection:
    matrix: np.ndarray = field(repr=False)
    rank: int
    idempotency_defect: float
    enclosed: tuple


def _ordered_schur(a, spec, vectors):
    """Ordered real Schur form A = Z T Z^T of a real matrix, with the k
    eigenvalues inside the circle of spec in the leading block T11, and the
    solution X of the Sylvester equation T11 X - X T22 = T12 that decouples
    T11 from the trailing block.

    Returns (eigenvalues wr + i wi in Schur order, k, Z or None, X or None):
    Z only when vectors is true, X only when 0 < k < n.  The circle is
    centred on the real axis, so it holds both members of a conjugate pair
    or neither, and the ordering never splits a 2x2 block.  Errors out if
    the centre is off the real axis, if an eigenvalue sits within 1e-3 of
    the contour, if the circle fails to separate the enclosed group from
    the rest of the spectrum by twice its own spread, or if the splitting
    is ill-conditioned: ||X||_2 above 1e12, or a Sylvester solve that had
    to scale its right-hand side or failed.
    """
    if spec.radius <= 0.0:
        raise ValueError("contour radius must be positive")
    center = complex(spec.center)
    if center.imag != 0.0:
        raise ValueError(f"contour centre {center} is off the real axis, so "
                         f"the circle can split a conjugate pair")
    n = a.shape[0]

    def select(re, im):
        return abs(complex(re, im) - center) < spec.radius

    # the workspace query lets the Hessenberg reduction run blocked; the
    # minimal default workspace is 1.7x slower at dim 576
    lwork = int(scipy.linalg.lapack.dgees(
        select, a, compute_v=int(vectors), lwork=-1)[-2][0])
    t, k, wr, wi, z, _, info = scipy.linalg.lapack.dgees(
        select, a, compute_v=int(vectors), sort_t=1, lwork=lwork)
    if info != 0:
        raise ValueError(f"ordered real Schur form failed: dgees info {info}")
    lam = wr + 1j * wi
    dist_circle = np.abs(np.abs(lam - center) - spec.radius)
    if dist_circle.min() < 1e-3:
        raise ValueError(
            f"an eigenvalue lies within 1e-3 of the contour "
            f"(distance {dist_circle.min():.2e})"
        )
    inside = lam[:k]
    outside = lam[k:]
    spread = _max_cluster_spread(inside)
    if inside.size and outside.size:
        gap = float(np.abs(outside - center).min()
                    - np.abs(inside - center).max())
        if gap < 2.0 * spread:
            raise ValueError(
                f"contour does not separate: annular gap {gap:.3e} is below "
                f"twice the enclosed cluster spread {spread:.3e}"
            )
    x = None
    if 0 < k < n:  # dtrsyl rejects an empty block
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
    return lam, k, z if vectors else None, x


def contour_projection(lmat, spec):
    """Riesz projector onto the eigenvalues inside a circle, from an ordered
    real Schur form.

    L is similar to its real form A = D^-1 L D, the entries of the
    operator, with D = `operators.stream_scale`.
    One real Schur form A = Z T Z^T with Schur vectors moves the k enclosed
    eigenvalues to the leading block T11, and the Sylvester solution X
    decouples it from the trailing block (`track` takes the same form
    without vectors).  The projector is P = D Z[:, :k] [I X] Z^T D^-1.  Its
    rank is k: D and Z are unitary and every singular value of [I X] is
    sqrt(1 + s^2) >= 1 for a singular value s of X.  For the same reason
    ||P^2 - P||_2 and ||X||_2 are those of the real projector.  What the
    projector certifies is therefore that count, the separation of the
    enclosed group from the rest of the spectrum, and the conditioning
    ||X||_2 of the splitting; it raises the errors of `_ordered_schur`.
    """
    lam, k, z, x = _ordered_schur(lmat.entries, spec, vectors=True)
    n = lam.size
    if x is None:  # P is 0 or I
        real_proj = np.eye(n) if k else np.zeros((n, n))
    else:
        real_proj = z[:, :k] @ np.hstack([np.eye(k), x]) @ z.T
    defect = float(np.linalg.norm(real_proj @ real_proj - real_proj, 2))
    scale = stream_scale(lmat.index_map)
    proj = real_proj * (scale[:, None] * scale.conj()[None, :])
    return ContourProjection(matrix=proj, rank=k,
                             idempotency_defect=defect,
                             enclosed=tuple(np.sort_complex(lam[:k])))
