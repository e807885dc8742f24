import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from landauspec import eigentracker
from landauspec.eigentracker import (
    DEFAULT_EPS_GRID,
    ContourSpec,
    EigenCurve,
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
from landauspec.operators import OperatorMatrix, assemble_L, assemble_L0
from landauspec.perturbation import z_coefficient
from landauspec.sphbasis import (
    QuadratureGrid,
    default_k_max,
    default_node_count,
    legendre_values,
    project,
    zero_field,
)
from landauspec.statespace import (
    StateVector,
    x_inner,
    x_norm,
    x_weights,
)
from landauspec.stokes_spectrum import branch_vector


def alignment(a, b):
    return abs(x_inner(a, b)) / (x_norm(a) * x_norm(b))


# ---- track ----------------------------------------------------------------


def test_track_unperturbed_cluster():
    curve = track(1, [0.0], k_max=12)
    assert curve.n_branches == 2
    assert np.abs(curve.eigenvalues - 1.0).max() <= 1e-12
    single = track(2, [0.0], k_max=12)
    assert single.n_branches == 1


def test_track_m2_drift_matches_quadratic_coefficient():
    curve = track(2, [0.06])
    lam = curve.eigenvalues[0, 0]
    assert abs(lam - (1.0 + 4.0 / 15.0 * 0.06**2)) <= 10.0 * 0.06**3


def test_track_m0_cluster_pinned_at_one():
    curve = track(0, [0.06])
    assert np.abs(curve.eigenvalues - 1.0).max() <= 1e-9


def test_track_domain_guards():
    with pytest.raises(ValueError, match="sorted"):
        track(1, [0.1, 0.05])
    with pytest.raises(ValueError, match="0.3"):
        track(1, [0.4])
    with pytest.raises(ValueError, match="empty"):
        track(1, [])
    with pytest.raises(ValueError, match="mode"):
        cluster_size(3)


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_cluster_size_counts_the_unit_eigenvalues_of_l0(m):
    lam = np.linalg.eigvals(assemble_L0(m, 12).entries)
    assert cluster_size(m) == int(np.sum(np.abs(lam - 1.0) < 1e-8))


@pytest.mark.parametrize("m", [3, -3, 4, -4])
def test_cluster_size_rejects_modes_without_a_unit_group(m):
    with pytest.raises(ValueError, match="no eigenvalue group at 1"):
        cluster_size(m)


def test_track_records_the_k_max_of_every_point():
    grid = (-0.1, 0.0, 0.05, 0.3)
    assert track(2, grid).k_max == tuple(default_k_max(e, 2) for e in grid)
    assert track(2, grid).k_max == (15, 8, 14, 20)
    assert track(2, grid, k_max=20).k_max == (20,) * 4


def test_track_without_k_max_keeps_the_tail_monitor(monkeypatch):
    # the rule only proposes a truncation; an assembly it under-resolves
    # fails as it would at an explicit k_max
    monkeypatch.setattr(eigentracker, "default_k_max", lambda eps, m: 8)
    with pytest.raises(ValueError, match="k_max = 8 under-resolves the "
                                         "eps = 0.1 background"):
        track(1, [0.02, 0.1])


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_track_at_the_rule_matches_k_max_32(m):
    # the rule's truncation leaves the group where a generous one puts it:
    # within 5e-13 (24 and 32 differ by up to 1.9e-13) and with the same
    # group size at every point
    grid = (*DEFAULT_EPS_GRID, 0.2, 0.3)
    ruled = track(m, grid)
    fine = track(m, grid, k_max=32)
    assert ruled.eigenvalues.shape == fine.eigenvalues.shape \
        == (len(grid), cluster_size(m))
    gap = np.abs(ruled.eigenvalues - fine.eigenvalues).max()
    assert gap <= 5e-13, gap


def test_track_negative_epsilon_supported():
    curve = track(1, [-0.1, -0.05, 0.0, 0.05, 0.1], k_max=16)
    assert curve.epsilons[0] == -0.1
    assert np.all(np.abs(curve.eigenvalues - 1.0) < 0.25)


# ---- fit_quadratic --------------------------------------------------------


def test_fit_synthetic_quadratic_is_exact():
    eps = np.array(DEFAULT_EPS_GRID)
    lam = (1.0 + 7.0 * eps**2).astype(complex)[:, None]
    fit = fit_quadratic(EigenCurve(k_max=0, epsilons=eps, eigenvalues=lam))
    assert abs(fit.c - 7.0) <= 1e-10


def test_fit_synthetic_cubic_term_recovered():
    eps = np.array(DEFAULT_EPS_GRID)
    lam = (1.0 + 7.0 * eps**2 - 3.0 * eps**3).astype(complex)[:, None]
    fit = fit_quadratic(EigenCurve(k_max=0, epsilons=eps, eigenvalues=lam))
    # the eps^3 column takes the cubic term whole: c is exact and the
    # residual is rounding
    assert abs(fit.c - 7.0) <= 1e-9
    assert fit.residuals[0] <= 1e-14


def test_fit_m1_moving_branch():
    fit = fit_quadratic(track(1, DEFAULT_EPS_GRID))
    assert abs(fit.c - 1.0 / 15.0) <= 0.05 / 15.0
    flat = fit.c_branches[1 - fit.moving_branch]
    assert abs(flat) <= 1e-6


def test_fit_m2_branch():
    fit = fit_quadratic(track(2, DEFAULT_EPS_GRID))
    assert abs(fit.c - 4.0 / 15.0) <= 0.05 * 4.0 / 15.0


def test_fit_needs_enough_samples():
    curve = track(2, [0.02, 0.04, 0.06], k_max=12)
    with pytest.raises(ValueError, match="at least 4"):
        fit_quadratic(curve)


def test_fit_rejects_non_quadratic_drift():
    eps = np.array(DEFAULT_EPS_GRID)
    wobble = 3e-3 * (-1.0) ** np.arange(eps.size)
    lam = (1.0 + 7.0 * eps**2 + wobble).astype(complex)[:, None]
    with pytest.raises(RuntimeError, match="fit residual"):
        fit_quadratic(EigenCurve(k_max=0, epsilons=eps, eigenvalues=lam))


def test_conjecture_probe_imag_parts_negligible():
    # The imaginary parts stay at eigensolver-noise level, far below the
    # 10 eps^3 budget, consistent with no rotation rate at all.
    for m in (1, 2):
        curve = track(m, DEFAULT_EPS_GRID)
        per_eps = np.abs(curve.eigenvalues.imag).max(axis=1)
        assert np.all(per_eps <= 10.0 * curve.epsilons**3)
        fit = fit_quadratic(curve)
        assert fit.beta_residual <= 1e-7


@pytest.mark.parametrize("k_max", [16, 24])
@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_tracked_group_is_exactly_real(m, k_max):
    # claim 4 as structure: track solves the real form of L, whose
    # eigenvalues are real or exact conjugate pairs, so any imaginary part
    # here would be a pair inside the group, not rounding
    grids = (DEFAULT_EPS_GRID, tuple(sorted(-e for e in DEFAULT_EPS_GRID)))
    for grid in grids:
        curve = track(m, grid, k_max=k_max)
        assert not curve.eigenvalues.imag.any(), grid


# ---- swirl ODE and persistence --------------------------------------------


def test_swirl_ode_residual_examples():
    samples = np.linspace(-0.999, 0.999, 1000)
    assert swirl_ode_residual(0.5, samples) <= 1e-12
    assert swirl_ode_residual(0.9, samples) <= 1e-11
    assert swirl_ode_residual(0.0, samples) == 0.0


def test_swirl_ode_domain():
    with pytest.raises(ValueError, match="profile parameter"):
        swirl_ode_residual(1.0, [0.0])
    with pytest.raises(ValueError, match="strictly inside"):
        swirl_ode_residual(0.5, [1.0])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.9))
def test_swirl_ode_residual_uniformly_small(eps):
    samples = np.linspace(-0.99, 0.99, 257)
    assert swirl_ode_residual(eps, samples) <= 1e-11


@pytest.mark.parametrize("eps,k_max", [(0.1, 16), (0.3, 24), (0.6, 48), (0.9, 80)])
def test_swirl_eigenvalue_persists_nonperturbatively(eps, k_max):
    lam = swirl_block_eigenvalue(eps, k_max)
    assert abs(lam - 1.0) <= 1e-9


@pytest.mark.parametrize("rows,cols,block", [
    ("phi", "psi", "(psi, psi') -> rest"),
    ("psi_prime", "radial", "rest -> (psi, psi')"),
])
def test_swirl_eigenvalue_needs_a_closed_block(monkeypatch, rows, cols,
                                               block):
    # the swirl block is read off the entries only once both of its
    # off-diagonal blocks are exact zeros; one planted coupling raises
    # and names its block and size
    def planted(m, k_max, eps):
        lmat = assemble_L(m, k_max, eps)
        imap = lmat.index_map
        lmat.entries[imap.sl(rows).start, imap.sl(cols).start] = -2.5e-17
        return lmat

    monkeypatch.setattr(eigentracker, "assemble_L", planted)
    with pytest.raises(ValueError,
                       match=re.escape(f"1 nonzero entries in the {block} "
                                       f"block, largest 2.500e-17")):
        swirl_block_eigenvalue(0.1, 16)


# ---- translation eigenvector ----------------------------------------------


def test_translation_eigenvector_residual():
    state, resid = translation_eigenvector(0.1, 30)
    assert resid <= 1e-8
    assert x_norm(state) > 0.0


def test_translation_series_cross_check():
    eps = 0.02
    state, _ = translation_eigenvector(eps, 16)
    series = {
        "psi": {1: 2j * eps, 2: 2j * eps**2},
        "radial": {1: -6.0 / 5.0 * eps**2, 2: -6.0 * eps, 3: -16.0 / 5.0 * eps**2},
        "radial_star": {1: -2.0 / 5.0 * eps**2, 2: 18.0 * eps, 3: 48.0 / 5.0 * eps**2},
    }
    comps = state.components()
    for name, terms in series.items():
        for k, expected in terms.items():
            z_units = comps[name].coeff(k) / z_coefficient(k, 1)
            assert abs(z_units - expected) <= 10.0 * eps**3, (name, k)
    assert np.abs(state.psi_prime.coeffs + state.psi.coeffs).max() == 0.0
    assert np.abs(state.phi.coeffs).max() == 0.0


def test_translation_degenerate_at_zero():
    with pytest.raises(ValueError, match="degenerates"):
        translation_eigenvector(0.0, 16)


def test_translation_tail_guard():
    with pytest.raises(ValueError, match="under-resolves"):
        translation_eigenvector(0.5, 12)


def _hand_derived_symmetry_states(eps, k_max):
    """Tilt and translation states from slopes in t = cos(theta) derived
    by hand, independent of the profile keys of landau: with d = 1 - eps t,
    w = V / sin(theta) = -2 eps / d, f = F, p and g = p / (4 eps)."""
    table = legendre_values(k_max, 1)
    c, s = table.grid.x, table.grid.sin_theta
    d = 1.0 - eps * c
    w = -2.0 * eps / d
    fp = 4.0 * eps * (1.0 - eps**2) / d**3
    wp = -2.0 * eps**2 / d**2
    pp = 4.0 * eps * (1.0 + eps * c - 2.0 * eps**2) / d**3
    tilt = eigentracker._symmetry_state(
        table, 0.5 * (wp * s**2 - w * c), -0.5j * w, 0.5 * fp * s,
        0.5 * pp * s)

    g = (c - eps) / d**2
    gp = -s * (d + 2.0 * eps * (c - eps)) / d**3
    v = w * s
    dv = -(wp * s**2 - w * c)
    df = -fp * s
    theta_prof = dv * s + df * c
    q_prof = 4.0 * eps * (-2.0 * g * s + gp * c)
    zero = zero_field(1, k_max)
    psi = project(-1j * v, table)
    psi_prime = psi.copy()
    psi_prime.coeffs[:] = -psi.coeffs
    translation = StateVector(1, zero.copy(), psi, zero.copy(), psi_prime,
                              project(theta_prof, table),
                              project(-theta_prof - q_prof, table))
    return tilt, translation


@pytest.mark.parametrize("k_max", [12, 24])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_symmetry_states_match_hand_derived_slopes(monkeypatch, eps, k_max):
    # the states, not their residuals, are under test: L0 stands in for L,
    # which also skips the tail monitor that rejects eps 0.3 at k_max 12
    monkeypatch.setattr(eigentracker, "assemble_L",
                        lambda m, k, e: assemble_L0(m, k))
    tilt = eigentracker._tilt_state(eps, k_max)
    translation, _ = translation_eigenvector(eps, k_max)
    for got, want in zip((tilt, translation),
                         _hand_derived_symmetry_states(eps, k_max)):
        got, want = got.to_flat(), want.to_flat()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# ---- background state and zero modes --------------------------------------


@pytest.mark.parametrize("m", [1, -2])
def test_symmetry_state_reads_a_stream_function_back(m):
    # every symmetry mode in use has a curl-free tangent field, so this
    # pins the stream slot: grad_perp(psi), given in the complex basis of
    # the states, goes through the stream-scaled projection and back
    k_max = 12
    table = legendre_values(k_max, m)
    rng = np.random.default_rng(11)
    psi = rng.normal(size=k_max - abs(m) + 1) + 1j * rng.normal(
        size=k_max - abs(m) + 1)
    zero = np.zeros(table.grid.n_nodes)
    state = eigentracker._symmetry_state(
        table, -1j * (psi @ table.m_sin), psi @ table.dtheta, zero, zero)
    scale = np.abs(psi).max()
    assert np.abs(state.psi.coeffs - psi).max() <= 1e-12 * scale
    assert np.abs(state.phi.coeffs).max() <= 1e-12 * scale


def test_landau_state_slots():
    eps, k_max = 0.1, 24
    state = landau_state(eps, k_max)
    # no swirl and no radial-derivative content in the background
    assert np.abs(state.psi.coeffs).max() <= 1e-13
    assert np.abs(state.phi_prime.coeffs).max() == 0.0
    # the pressure datum folded into the starred slot is the boundary trace
    grid = QuadratureGrid.build(default_node_count(k_max))
    table = legendre_values(k_max, 0, grid)
    c = grid.x
    trace = 4.0 * eps * (c - eps) / (1.0 - eps * c) ** 2
    ks = np.arange(k_max + 1)
    q = (ks * (ks + 1.0) * state.phi.coeffs - state.radial.coeffs
         - state.radial_star.coeffs)
    expected = project(trace.astype(complex), table)
    assert np.abs(q - expected.coeffs).max() <= 1e-12


def test_zero_mode_axial():
    resid = eigentracker._relative_residual(
        assemble_L(0, 24, 0.1), eigentracker._axial_state(0.1, 24), 0.0)
    assert resid <= 1e-9


def test_zero_mode_transverse():
    resid = eigentracker._relative_residual(
        assemble_L(1, 24, 0.1), eigentracker._tilt_state(0.1, 24), 0.0)
    assert resid <= 1e-9


@pytest.mark.parametrize("eps, k_max", [(0.1, None), (0.1, 24), (0.05, 16)])
def test_zero_mode_check_is_the_rms_over_the_three_directions(eps, k_max):
    # one axial mode (count 1) and one tilt mode standing for both
    # horizontal directions (count 2), weighted by their state norms; each
    # mode at its own rule unless a k_max is given
    num = den = 0.0
    for m, count, build in ((0, 1, eigentracker._axial_state),
                            (1, 2, eigentracker._tilt_state)):
        k = default_k_max(eps, m) if k_max is None else k_max
        state = build(eps, k)
        resid = eigentracker._relative_residual(assemble_L(m, k, eps),
                                                state, 0.0)
        num += count * (x_norm(state) * resid) ** 2
        den += count * x_norm(state) ** 2
    want = np.sqrt(num / den)
    assert abs(zero_mode_check(eps, k_max) - want) <= 1e-14 * want


def test_zero_mode_at_the_rule():
    # without a k_max each mode is built and assembled at its own rule
    # (the root-mean-square test pins that), which resolves both modes
    assert zero_mode_check(0.1) <= 1e-9


def test_zero_mode_rule_only_inside_its_validated_range():
    # beyond |eps| = 0.3 the rule falls short of the tail monitor (at eps
    # 0.41 for m = 0), so the check asks for a k_max instead of naming a
    # truncation the caller never chose; an explicit k_max still resolves
    with pytest.raises(ValueError,
                       match=r"validated for \|eps\| <= 0\.3 only, got "
                             r"eps = 0\.41; give a k_max"):
        zero_mode_check(0.41)
    assert zero_mode_check(0.41, 30) <= 1e-8


def test_zero_mode_domain_guards():
    with pytest.raises(ValueError, match="eps > 0"):
        zero_mode_check(0.0, 12)


@pytest.mark.parametrize("m, build", [
    (0, eigentracker._axial_state), (1, eigentracker._tilt_state)],
    ids=["axial", "tilt"])
def test_zero_mode_small_eps_limit(m, build):
    # as eps -> 0 both family derivatives land on the lambda = 0 branch
    # at degree 1, the (1/2, 0, 1, -1) gradient column
    target = branch_vector(1, m, 0).to_state(12)
    assert alignment(build(0.01, 12), target) >= 0.995


# ---- contour projections ---------------------------------------------------


def test_contour_ranks_by_mode(cached_l):
    total = 0
    for m, rank in ((0, 2), (1, 2), (2, 1)):
        (proj,) = contour_projection(cached_l(m, 16, 0.05), ContourSpec(1.0, 0.5))
        assert proj.rank == rank
        assert proj.idempotency_defect <= 1e-8
        total += rank * (2 if m else 1)
    assert total == 8


def test_contour_zero_group_rank_three(cached_l):
    total = 0
    for m in (0, 1):
        (proj,) = contour_projection(cached_l(m, 16, 0.05), ContourSpec(0.0, 0.5))
        total += proj.rank * (2 if m else 1)
    assert total == 3


def trapezoid_projector(a, spec, nodes=64):
    """Riesz projector (1/2 pi i) oint (z - A)^-1 dz of a complex matrix by
    the trapezoid rule on the circle, which converges exponentially in the
    node count."""
    eye = np.eye(a.shape[0])
    acc = np.zeros(a.shape, dtype=complex)
    for z in np.exp(2j * np.pi * np.arange(nodes) / nodes):
        acc += z * np.linalg.solve((spec.center + spec.radius * z) * eye - a,
                                   eye)
    return (spec.radius / nodes) * acc


@pytest.mark.parametrize("center", [1.0, 0.0])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_contour_matches_trapezoid(cached_l, complex_basis, m, center):
    # the trapezoid projector of the complex-basis matrix is an independent
    # reference: its trace counts the enclosed eigenvalues
    lmat = cached_l(m, 16, 0.05)
    spec = ContourSpec(center, 0.5)
    (proj,) = contour_projection(lmat, spec)
    want = trapezoid_projector(complex_basis(lmat), spec)
    assert proj.rank == round(np.trace(want).real)
    assert proj.idempotency_defect <= 1e-8
    assert np.linalg.norm(want @ want - want, 2) <= 1e-8


@pytest.mark.parametrize("center", [1.0, 0.0])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_contour_defect_matches_the_dense_projector(cached_l, m, center):
    # the real projector Z1 [I X] Z^T formed as an n x n matrix has the
    # idempotency defect that contour_projection reads off its k x n factor
    lmat = cached_l(m, 16, 0.05)
    spec = ContourSpec(center, 0.5)
    _, _, k, z, x = eigentracker._ordered_schur(
        eigentracker._real_schur(lmat.entries, True), spec)
    if x is None:  # the circle holds none or all of the spectrum
        x = np.zeros((k, z.shape[0] - k))
    dense = z[:, :k] @ np.hstack([np.eye(k), x]) @ z.T
    want = np.linalg.norm(dense @ dense - dense, 2)
    (proj,) = contour_projection(lmat, spec)
    got = proj.idempotency_defect
    assert abs(got - want) <= 1e-13, (got, want)


def sorted_dgees(a, spec, vectors):
    """(T, eigenvalues, k, Z or None) of dgees sorting by spec itself, with
    its per-eigenvalue select callback: the reference of the reordering."""
    def select(re, im):
        return spec.encloses(complex(re, im))

    lwork = int(scipy.linalg.lapack.dgees(
        select, a, compute_v=int(vectors), lwork=-1)[-2][0])
    t, k, wr, wi, z, _, info = scipy.linalg.lapack.dgees(
        select, a, compute_v=int(vectors), sort_t=1, lwork=lwork)
    assert info == 0
    return t, wr + 1j * wi, k, z if vectors else None


@pytest.mark.parametrize("k_max", [16, 24])
@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_reordered_schur_form_is_bitwise_the_sorted_one(cached_l, m, k_max):
    # dtrsen on the enclosed mask is the step a sorting dgees runs itself,
    # so the unsorted form reordered per circle is the sorted form exactly
    circles = (eigentracker.TRACK_CONTOUR, ContourSpec(0.0, 0.5))
    for eps in (0.0, 0.05, 0.1):
        a = cached_l(m, k_max, eps).entries
        for vectors in (False, True):
            form = eigentracker._real_schur(a, vectors)
            for spec in circles:
                got = eigentracker._ordered_schur(form, spec)[:4]
                want = sorted_dgees(a, spec, vectors)
                assert got[2] == want[2], (eps, vectors, spec)
                for part in (0, 1, 3):
                    assert ((got[part] is None and want[part] is None)
                            or np.array_equal(got[part], want[part])), (
                        eps, vectors, spec, part)


@pytest.mark.parametrize("m", [0, 1])
def test_one_form_serves_both_circles_bitwise(cached_l, m):
    # the form is factored once and reordered per circle, and reordering
    # for one circle leaves it as it was for the next
    lmat = cached_l(m, 16, 0.05)
    one, zero = ContourSpec(1.0, 0.5), ContourSpec(0.0, 0.5)
    assert contour_projection(lmat, one, zero) == (
        contour_projection(lmat, one) + contour_projection(lmat, zero))


def test_contour_enclosing_nothing_or_everything(cached_l):
    # the spectrum at k_max = 16 lies within |lambda| <= 19; P is 0 or I,
    # whose defect is exactly zero
    lmat = cached_l(1, 16, 0.05)
    (empty,) = contour_projection(lmat, ContourSpec(100.0, 0.5))
    assert (empty.rank, empty.idempotency_defect) == (0, 0.0)
    (full,) = contour_projection(lmat, ContourSpec(0.0, 1e4))
    assert (full.rank, full.idempotency_defect) == (lmat.entries.shape[0],
                                                    0.0)


def test_contour_holding_two_groups_does_not_separate(cached_l):
    # |lambda - 4| < 2.6 at eps = 0 holds the integers 2..6: their spread
    # is 4, the largest distance between two enclosed eigenvalues, while
    # the annular gap to 1 and 7 is 1
    with pytest.raises(ValueError, match="does not separate: annular gap "
                                         "1.000e\\+00 .* spread 4.000e\\+00"):
        contour_projection(cached_l(1, 8, 0.0), ContourSpec(4.0, 2.6))


def fake_operator(diagonal):
    """A real diagonal operator of the (m = 1, k_max = 8) shape, dim 48,
    whose leading entries are the given ones and the rest 10.0."""
    entries = np.diag(list(diagonal) + [10.0] * (48 - len(diagonal)))
    return OperatorMatrix(1, 8, 0.0, entries)


def _planted_coupling():
    # the eigenvalue 1.6 sits well outside the circle, but the coupling
    # 1e13 makes the Sylvester solution X = 1e13 / (1 - 1.6) huge
    fake = fake_operator([1.0, 1.6])
    fake.entries[0, 1] = 1e13
    return fake


def test_contour_splitting_guard():
    with pytest.raises(ValueError, match="ill-conditioned.*1.667e\\+13"):
        contour_projection(_planted_coupling(), ContourSpec(1.0, 0.5))


def test_contour_eigenvalue_on_contour_guard(cached_l):
    # radius 1 around 1 passes through the eigenvalues at 0 and 2 exactly
    with pytest.raises(ValueError, match="contour"):
        contour_projection(cached_l(1, 8, 0.0), ContourSpec(1.0, 1.0))


def test_contour_separation_guard():
    fake = fake_operator([0.78, 1.0, 1.22, 1.52])
    with pytest.raises(ValueError, match="does not separate"):
        contour_projection(fake, ContourSpec(1.0, 0.5))


def test_contour_rejects_an_operator_of_the_wrong_shape():
    # OperatorMatrix itself names the shapes, so no mis-shaped operator
    # reaches the Schur form
    with pytest.raises(ValueError,
                       match=r"shape \(2, 2\).*\(1, 8\) indexes \(48, 48\)"):
        fake = OperatorMatrix(1, 8, 0.0, np.diag([0.78, 1.0]))
        contour_projection(fake, ContourSpec(1.0, 0.5))


def test_contour_rejects_an_off_axis_centre(cached_l):
    # a real Schur form keeps a conjugate pair together, which a circle
    # centred off the real axis could split
    with pytest.raises(ValueError, match=r"centre \(1\+0\.1j\) is off"):
        contour_projection(cached_l(1, 8, 0.0), ContourSpec(1.0 + 0.1j, 0.5))


@pytest.mark.parametrize("fake,message", [
    (lambda: fake_operator([1.0, 1.0, 1.5]), "within 1e-3 of the contour"),
    (lambda: fake_operator([0.78, 1.0, 1.22, 1.52]), "does not separate"),
    (_planted_coupling, "Sylvester splitting ill-conditioned.*1.667e\\+13"),
], ids=["on-contour", "no-gap", "splitting"])
def test_track_keeps_the_contour_guards(monkeypatch, fake, message):
    # track counts its group on the Schur form that contour_projection
    # takes, so each guard of the projector trips in the sweep too
    monkeypatch.setattr(eigentracker, "assemble_L",
                        lambda m, k_max, eps: fake())
    with pytest.raises(ValueError, match=message):
        track(1, [0.05], k_max=8)


def test_track_fails_when_the_circle_holds_more_than_the_group(monkeypatch):
    # 1.3 passes every guard of the circle |lambda - 1| < 0.5, so the
    # enclosed block has three members where m = 1 has a group of two
    monkeypatch.setattr(eigentracker, "assemble_L",
                        lambda m, k_max, eps: fake_operator([1.0, 1.0, 1.3]))
    with pytest.raises(RuntimeError,
                       match="group near 1 has 3 members at eps = 0.05, "
                             "expected 2"):
        track(1, [0.05], k_max=8)


@pytest.mark.parametrize("k_max", [16, 24])
@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_track_ranks_and_group_match_the_projector_and_eigvals(cached_l, m,
                                                              k_max):
    # the one vector-free Schur form per point gives a group of the
    # projector's rank and, to rounding, the group that a plain eigensolve
    # finds inside the same circle
    circle = eigentracker.TRACK_CONTOUR
    grids = (DEFAULT_EPS_GRID, tuple(sorted(-e for e in DEFAULT_EPS_GRID)))
    for grid in grids:
        curve = track(m, grid, k_max=k_max)
        assert curve.eigenvalues.shape[0] == len(grid)
        for eps, group in zip(grid, curve.eigenvalues):
            lmat = cached_l(m, k_max, eps)
            (proj,) = contour_projection(lmat, circle)
            assert group.size == proj.rank, (grid, eps)
            lam = np.linalg.eigvals(lmat.entries)
            want = lam[np.abs(lam - circle.center) < circle.radius]
            assert want.size == group.size
            gap = min(np.abs(np.array(p) - group).max()
                      for p in itertools.permutations(want))
            assert gap <= 1e-12, (grid, eps, gap)


# ---- sweep-level invariants ------------------------------------------------


def test_truncation_robustness_of_tracked_eigenvalues():
    coarse = track(1, [0.05, 0.1], k_max=16).eigenvalues
    fine = track(1, [0.05, 0.1], k_max=24).eigenvalues
    assert np.abs(coarse - fine).max() <= 1e-8


def test_spectral_symmetry_under_sign_flip():
    for m in (0, 1, 2):
        plus = np.sort_complex(track(m, [0.1], k_max=16).eigenvalues[0])
        minus = np.sort_complex(track(m, [-0.1], k_max=16).eigenvalues[0])
        assert np.abs(plus - minus).max() <= 1e-8


def test_cluster_eigenvector_separation(cached_l, complex_basis):
    # the 8 cluster eigenvectors at eps = 0.1 form a well-conditioned frame;
    # modes are mutually orthogonal, so the global bound is the worst
    # per-mode bound
    gammas = []
    for m in (0, 1, 2):
        lmat = cached_l(m, 16, 0.1)
        lam, vecs = np.linalg.eig(complex_basis(lmat))
        keep = np.abs(lam - 1.0) < 0.25
        assert int(keep.sum()) == cluster_size(m)
        # smallest singular value of the X-normalized eigenvector frame
        frame = np.sqrt(x_weights(lmat.index_map))[:, None] * vecs[:, keep]
        frame /= np.linalg.norm(frame, axis=0)
        gammas.append(np.linalg.svd(frame, compute_uv=False)[-1])
    assert min(gammas) >= 0.05
