import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from landauspec.operators import OperatorMatrix
from landauspec.perturbation import z_coefficient
from landauspec.sphbasis import QuadratureGrid, default_node_count, legendre_values, project
from landauspec.statespace import (
    pressure_of,
    x_inner,
    x_norm,
    x_weights,
)
from landauspec.stokes_spectrum import branch_vector, l0_projection


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


def test_track_negative_epsilon_supported():
    curve = track(1, [-0.1, -0.05, 0.0, 0.05, 0.1], k_max=16)
    assert curve.epsilons[0] == -0.1
    assert np.all(np.abs(curve.eigenvalues - 1.0) < 0.25)


# ---- fit_quadratic --------------------------------------------------------


def test_fit_synthetic_quadratic_is_exact():
    eps = np.array(DEFAULT_EPS_GRID)
    lam = (1.0 + 7.0 * eps**2).astype(complex)[:, None]
    fit = fit_quadratic(EigenCurve(m=1, k_max=0, epsilons=eps, eigenvalues=lam))
    assert abs(fit.c - 7.0) <= 1e-10


def test_fit_synthetic_cubic_term_recovered():
    eps = np.array(DEFAULT_EPS_GRID)
    lam = (1.0 + 7.0 * eps**2 - 3.0 * eps**3).astype(complex)[:, None]
    fit = fit_quadratic(EigenCurve(m=1, k_max=0, epsilons=eps, eigenvalues=lam))
    assert abs(fit.c - 7.0) <= 1e-9
    assert abs(fit.cubic_terms[0] + 3.0) <= 1e-8


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
        fit_quadratic(EigenCurve(m=1, k_max=0, epsilons=eps, eigenvalues=lam))


def test_conjecture_probe_imag_parts_negligible():
    # The imaginary parts stay at eigensolver-noise level, far below the
    # 10 eps^3 budget, consistent with no rotation rate at all.
    for m in (1, 2):
        curve = track(m, DEFAULT_EPS_GRID)
        per_eps = np.abs(curve.eigenvalues.imag).max(axis=1)
        assert np.all(per_eps <= 10.0 * curve.epsilons**3)
        fit = fit_quadratic(curve)
        assert fit.beta_residual <= 1e-7


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


# ---- background state and zero modes --------------------------------------


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
    q = pressure_of(state)
    expected = project(trace.astype(complex), table)
    assert np.abs(q.coeffs - expected.coeffs).max() <= 1e-12


def test_zero_mode_axial():
    report = zero_mode_check(0.1, (0.0, 0.0, 1.0), 24)
    assert report.residual <= 1e-9
    assert report.transverse is None


def test_zero_mode_transverse():
    report = zero_mode_check(0.1, (1.0, 0.0, 0.0), 24)
    assert report.axial is None
    assert report.transverse_residual <= 1e-9


def test_zero_mode_mixed_direction():
    report = zero_mode_check(0.1, (1.0, 1.0, 1.0), 24)
    assert report.axial is not None and report.transverse is not None
    assert report.residual <= 2e-6
    assert abs(np.linalg.norm(report.direction) - 1.0) <= 1e-12


def test_zero_mode_domain_guards():
    with pytest.raises(ValueError, match="eps > 0"):
        zero_mode_check(0.0, (0, 0, 1), 12)
    with pytest.raises(ValueError, match="nonzero"):
        zero_mode_check(0.1, (0, 0, 0), 12)
    with pytest.raises(ValueError, match="3-vector"):
        zero_mode_check(0.1, (1, 0), 12)


@pytest.mark.parametrize("direction,m", [((0.0, 0.0, 1.0), 0), ((1.0, 0.0, 0.0), 1)])
def test_zero_mode_small_eps_limit(direction, m):
    # as eps -> 0 both family derivatives land on the lambda = 0 branch
    # at degree 1, the (1/2, 0, 1, -1) gradient column
    report = zero_mode_check(0.01, direction, 12)
    state = report.axial if m == 0 else report.transverse
    target = branch_vector(1, m, 0).to_state(12)
    assert alignment(state, target) >= 0.995


# ---- contour projections ---------------------------------------------------


def test_contour_ranks_by_mode(cached_l):
    total = 0
    for m, rank in ((0, 2), (1, 2), (2, 1)):
        proj = contour_projection(cached_l(m, 16, 0.05), ContourSpec(1.0, 0.5))
        assert proj.rank == rank
        assert proj.idempotency_defect <= 1e-8
        total += rank * (2 if m else 1)
    assert total == 8


def test_contour_zero_group_rank_three(cached_l):
    total = 0
    for m in (0, 1):
        proj = contour_projection(cached_l(m, 16, 0.05), ContourSpec(0.0, 0.5))
        total += proj.rank * (2 if m else 1)
    assert total == 3


def test_contour_matches_exact_projector_unperturbed(cached_l):
    proj = contour_projection(cached_l(1, 10, 0.0), ContourSpec(1.0, 0.5))
    exact = l0_projection({1}, 1, 10)
    assert np.abs(proj.matrix - exact).max() <= 1e-8


def test_contour_complementary_circles(cached_l):
    # circle around 1 plus a wide circle enclosing 2..6 act as the identity
    # on the subspace spanned by the enclosed eigenvectors
    lmat = cached_l(1, 8, 0.0)
    near_one = contour_projection(lmat, ContourSpec(1.0, 0.5))
    upper = contour_projection(lmat, ContourSpec(4.0, 2.6, nodes=256))
    lam, vecs = np.linalg.eig(lmat.entries)
    enclosed = (np.abs(lam - 1.0) < 0.1) | ((lam.real > 1.5) & (lam.real < 6.5))
    both = near_one.matrix + upper.matrix
    sub = vecs[:, enclosed]
    assert np.abs(both @ sub - sub).max() <= 1e-8
    assert np.abs(both @ vecs[:, ~enclosed]).max() <= 1e-8
    assert np.abs(near_one.matrix @ upper.matrix).max() <= 1e-8


def test_contour_node_count_guard(cached_l):
    with pytest.raises(ValueError, match="64 nodes"):
        contour_projection(cached_l(1, 8, 0.0), ContourSpec(1.0, 0.5, nodes=32))


def test_contour_eigenvalue_on_contour_guard(cached_l):
    # radius 1 around 1 passes through the eigenvalues at 0 and 2 exactly
    with pytest.raises(ValueError, match="contour"):
        contour_projection(cached_l(1, 8, 0.0), ContourSpec(1.0, 1.0))


def test_contour_separation_guard():
    fake = OperatorMatrix(1, 8, 0.0,
                          np.diag([0.78, 1.0, 1.22, 1.52]).astype(complex))
    with pytest.raises(ValueError, match="does not separate"):
        contour_projection(fake, ContourSpec(1.0, 0.5))


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


def test_cluster_eigenvector_separation(cached_l):
    # the 8 cluster eigenvectors at eps = 0.1 form a well-conditioned frame;
    # modes are mutually orthogonal, so the global bound is the worst
    # per-mode bound
    gammas = []
    for m in (0, 1, 2):
        lmat = cached_l(m, 16, 0.1)
        lam, vecs = np.linalg.eig(lmat.entries)
        keep = np.abs(lam - 1.0) < 0.25
        assert int(keep.sum()) == cluster_size(m)
        # smallest singular value of the X-normalized eigenvector frame
        frame = np.sqrt(x_weights(lmat.index_map))[:, None] * vecs[:, keep]
        frame /= np.linalg.norm(frame, axis=0)
        gammas.append(np.linalg.svd(frame, compute_uv=False)[-1])
    assert min(gammas) >= 0.05
