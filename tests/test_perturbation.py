"""Block split, graph fixed point, and reduced-matrix fixtures."""

import dataclasses

import numpy as np
import pytest

from landauspec.operators import assemble_L
from landauspec.perturbation import (
    GraphMap,
    reduced_matrix,
    solve_graph,
    split_blocks,
    z_coefficient,
)
from landauspec.sphbasis import (
    QuadratureGrid,
    default_node_count,
    legendre_values,
    norm_constant,
    synthesize,
)
from landauspec.statespace import COMPONENTS, StateIndexMap

REDUCED_MODEL_M1 = np.array([[0.0, 0.0], [-0.2j, 1.0 / 15.0]])


def blocks_at(m, eps, k_max=16):
    return split_blocks(assemble_L(m, k_max, eps), m, strict=False)


def test_zero_eps_blocks_vanish():
    bl = split_blocks(assemble_L(1, 12, 0.0), 1)
    assert not bl.a.any() and not bl.b.any()
    assert not bl.c.any() and not bl.d.any()
    assert bl.smallness == 0.0
    g = solve_graph(bl)
    assert g.iterations <= 1
    assert not g.matrix.any()
    assert np.array_equal(reduced_matrix(bl, g), np.eye(2))


def test_smallness_guard():
    with pytest.raises(ValueError, match="0.25"):
        split_blocks(assemble_L(1, 12, 0.05), 1)
    # inside the guaranteed ball the strict path goes through
    bl = split_blocks(assemble_L(1, 12, 0.02), 1)
    assert bl.smallness < 0.25


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError, match="m = 1"):
        split_blocks(assemble_L(1, 12, 0.0), 0)


# explicit ids keep the names of the k_max = 12 cases stable
@pytest.mark.parametrize("m, k_max", [
    *(pytest.param(m, 12, id=f"{m}") for m in (0, 1, 2)),
    *(pytest.param(m, 96, id=f"{m}-kmax96") for m in (0, 1, 2)),
])
def test_projector_completeness(m, k_max):
    """The exact branch rows invert the branch columns at rounding level up
    to the largest truncation the benchmark runs, with no orthonormalizing
    fallback for the ill-conditioned high-degree frames."""
    bl = blocks_at(m, 0.1, k_max=k_max)
    n = bl.basis_columns.shape[0]
    resid = bl.basis_rows @ bl.basis_columns - np.eye(n)
    assert np.abs(resid).max() <= 1e-12


@pytest.mark.parametrize("m", [0, 1, 2])
def test_lambda_diagonal_integers(m):
    bl = blocks_at(m, 0.05, k_max=12)
    assert np.array_equal(bl.lam_y, np.round(bl.lam_y))
    assert not np.any(bl.lam_y == 1)
    expect = np.diag(1.0 / (1.0 - bl.lam_y))
    assert np.abs(bl.inv_lambda - expect).max() == 0.0
    assert bl.kappa == 1.0


def test_e_dimensions_per_mode():
    assert blocks_at(0, 0.05, 12).e_branches == (
        (1, 1, "stream"), (2, 1, "gradient"))
    assert blocks_at(1, 0.05, 12).e_branches == (
        (1, 1, "stream"), (2, 1, "gradient"))
    assert blocks_at(2, 0.05, 12).e_branches == ((2, 1, "gradient"),)
    # total over modes, counting +-m: 2 + 2 + 2 + 1 + 1
    assert 2 + 2 * 2 + 2 * 1 == 8


def test_z_coefficient_table():
    assert z_coefficient(1, 0) == norm_constant(1, 0)
    assert z_coefficient(1, 1) == -norm_constant(1, 1)
    assert z_coefficient(2, 1) == pytest.approx(-norm_constant(2, 1) / 3)
    assert z_coefficient(3, 1) == pytest.approx(-2 * norm_constant(3, 1) / 3)
    assert z_coefficient(2, 2) == pytest.approx(norm_constant(2, 2) / 3)
    assert z_coefficient(1, -1) == norm_constant(1, 1)
    assert z_coefficient(2, -2) == pytest.approx(norm_constant(2, 2) / 3)


@pytest.mark.parametrize("m, profiles", [
    (0, ("psi", lambda t: np.cos(t))),
    (1, ("psi", lambda t: np.sin(t))),
    (-1, ("psi", lambda t: np.sin(t))),
    (2, ("radial", lambda t: np.sin(t) ** 2)),
])
def test_e_basis_unit_amplitude(m, profiles):
    """The first E member synthesizes to the bare trig profile."""
    name, expect = profiles
    k_max = 8
    bl = blocks_at(m, 0.0, k_max=k_max)
    grid = QuadratureGrid.build(default_node_count(k_max))
    table = legendre_values(k_max, m, grid)
    state = bl.e_state(0)
    vals = synthesize(state.components()[name], table, "val")
    np.testing.assert_allclose(vals, expect(grid.theta), atol=1e-13)


def test_e_gradient_pair_shape():
    bl = blocks_at(1, 0.0, k_max=8)
    state = bl.e_state(1)
    th = state.components()["radial"]
    ts = state.components()["radial_star"]
    assert th.coeffs[2 - th.k_min] == pytest.approx(z_coefficient(2, 1))
    assert ts.coeffs[2 - ts.k_min] == pytest.approx(-3 * z_coefficient(2, 1))


def test_a_entry_stream_to_gradient():
    # P K on the degree-1 stream member lands on the gradient pair with
    # coefficient (18/5) i eps^2, remainder one power better than cubic
    devs = []
    for eps in (0.05, 0.025):
        bl = blocks_at(1, eps)
        entry = bl.a[1, 0] / eps**2
        devs.append(abs(entry - 3.6j))
        assert abs(entry - 3.6j) <= 0.02
        assert abs(bl.a[0, 0]) <= 1e-10
        assert abs(bl.a[0, 1]) <= 1e-10
    assert 3.0 <= devs[0] / devs[1] <= 5.0


def test_feedback_entry_through_complement():
    devs = []
    for eps in (0.05, 0.025):
        bl = blocks_at(1, eps)
        bic = bl.b @ bl.inv_lambda @ bl.c
        entry = bic[1, 0] / eps**2
        devs.append(abs(entry - (-3.8j)))
        assert abs(entry - (-3.8j)) <= 0.02
    assert 3.0 <= devs[0] / devs[1] <= 5.0


def test_reduced_second_order_m1():
    devs = []
    for eps in (0.05, 0.025):
        bl = blocks_at(1, eps)
        red = reduced_matrix(bl)
        dev = np.abs((red - np.eye(2)) / eps**2 - REDUCED_MODEL_M1).max()
        devs.append(dev)
        assert dev <= 0.01
    # the remainder is even in eps (test_reduced_matrix_even_in_eps), so
    # halving gains a factor 4, not 2
    assert 3.0 <= devs[0] / devs[1] <= 5.0


def test_reduced_eigenvalues_m1():
    eps = 0.05
    bl = blocks_at(1, eps)
    g = solve_graph(bl, tol=1e-14)
    lams = sorted(np.linalg.eigvals(reduced_matrix(bl, g)),
                  key=lambda z: abs(z - 1.0))
    # one eigenvalue is pinned at exactly 1 by the translation mode
    assert abs(lams[0] - 1.0) <= 1e-9
    assert abs(lams[1] - (1.0 + eps**2 / 15.0)) <= 2e-6
    assert abs(lams[1].imag) <= 1e-9


def test_reduced_m2_single_entry():
    devs = []
    for eps in (0.05, 0.025):
        bl = blocks_at(2, eps)
        red = reduced_matrix(bl)
        assert red.shape == (1, 1)
        dev = abs((red[0, 0] - 1.0) / eps**2 - 4.0 / 15.0)
        devs.append(dev)
        assert dev <= 0.005
    assert 3.0 <= devs[0] / devs[1] <= 5.0


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_reduced_m0_exactly_identity(eps):
    bl = blocks_at(0, eps)
    g = solve_graph(bl, tol=1e-14)
    red = reduced_matrix(bl, g)
    assert np.abs(red - np.eye(2)).max() <= 1e-12


def reflection_signs(m, k_max):
    """Diagonal of the reflection x3 -> -x3 on a mode block.

    A degree-k, order-m harmonic picks up (-1)^(k+m); the stream function is
    a pseudo-scalar and picks up one more sign.  The reflection maps the
    Landau profile at eps to the one at -eps."""
    imap = StateIndexMap(m, k_max)
    signs = np.empty(imap.dim)
    for name in COMPONENTS:
        parity = -1.0 if name in ("psi", "psi_prime") else 1.0
        signs[imap.sl(name)] = parity * (-1.0) ** (imap.degrees(name) + m)
    return signs


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("k_max", [16, 24])
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_reflection_conjugates_operator(m, k_max, eps):
    """L(-eps) = S L(eps) S with S the reflection signs."""
    s = reflection_signs(m, k_max)
    plus = assemble_L(m, k_max, eps).entries
    minus = assemble_L(m, k_max, -eps).entries
    scale = np.abs(plus).max()
    assert np.abs(minus - s[:, None] * plus * s[None, :]).max() <= 1e-14 * scale
    # the conjugation is not the identity: K itself is not even in eps
    assert np.abs(minus - plus).max() >= 0.01 * scale


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("k_max", [16, 24])
@pytest.mark.parametrize("eps", [0.05, 0.025])
def test_reduced_matrix_even_in_eps(m, k_max, eps):
    """S is +-I on the lambda = 1 space, so the reflection leaves the reduced
    matrix unchanged: it is even in eps and has no eps^3 term."""
    plus, minus = blocks_at(m, eps, k_max), blocks_at(m, -eps, k_max)
    # every branch column is an eigenvector of S, with one sign across E
    s = reflection_signs(m, k_max)
    cols = plus.basis_columns
    sigma = np.where(np.abs(s[:, None] * cols - cols).max(axis=0) == 0.0,
                     1.0, -1.0)
    assert np.array_equal(s[:, None] * cols, cols * sigma[None, :])
    assert abs(sigma[:plus.dim_e].sum()) == plus.dim_e
    assert np.abs(reduced_matrix(plus) - reduced_matrix(minus)).max() <= 1e-14
    graphs = solve_graph(plus, tol=1e-14), solve_graph(minus, tol=1e-14)
    assert np.abs(reduced_matrix(plus, graphs[0])
                  - reduced_matrix(minus, graphs[1])).max() <= 1e-14


def test_graph_correction_is_second_order():
    norms = []
    for eps in (0.05, 0.025):
        bl = blocks_at(1, eps)
        g = solve_graph(bl, tol=1e-14)
        m0 = bl.inv_lambda @ bl.c
        diff = np.linalg.norm(g.matrix - m0, 2)
        norms.append(diff)
        assert diff / np.linalg.norm(m0, 2) <= 0.1
    assert 3.4 <= norms[0] / norms[1] <= 4.6


def test_graph_defect_history_contracts():
    bl = blocks_at(1, 0.05)
    g = solve_graph(bl, tol=1e-13)
    assert g.defect <= 1e-13
    hist = g.defect_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_graph_nonconvergence_reports_history():
    bl = blocks_at(1, 0.05)
    with pytest.raises(RuntimeError, match="defect"):
        solve_graph(bl, tol=1e-16, max_iter=2)


def test_graph_invariance_of_lifted_subspace():
    eps = 0.05
    k_max = 16
    lmat = assemble_L(1, k_max, eps)
    bl = split_blocks(lmat, 1, strict=False)
    g = solve_graph(bl, tol=1e-14)
    red = reduced_matrix(bl, g)
    u = np.array([1.0, 0.7j])
    lhs = lmat.entries @ bl.lift(u, g.matrix).to_flat()
    rhs = bl.lift(red @ u, g.matrix).to_flat()
    scale = np.linalg.norm(lmat.entries, 2) * np.linalg.norm(u)
    assert np.linalg.norm(lhs - rhs) <= (g.defect + 1e-12) * scale


def test_anorm_scales_quadratically():
    for m in (1, 2):
        n1 = np.linalg.norm(blocks_at(m, 0.05).a, 2)
        n2 = np.linalg.norm(blocks_at(m, 0.025).a, 2)
        assert 3.8 <= n1 / n2 <= 4.2


def test_basis_covariance():
    bl = blocks_at(1, 0.05)
    g = solve_graph(bl, tol=1e-14)
    red = reduced_matrix(bl, g)
    gmat = np.array([[1.0, 0.3 + 0.1j], [0.0, 0.8]])
    ginv = np.linalg.inv(gmat)
    bl2 = dataclasses.replace(bl, a=ginv @ bl.a @ gmat, b=ginv @ bl.b,
                              c=bl.c @ gmat)
    g2 = solve_graph(bl2, tol=1e-14)
    red2 = reduced_matrix(bl2, g2)
    np.testing.assert_allclose(red2, ginv @ red @ gmat, atol=1e-10)
    e1 = sorted(np.linalg.eigvals(red), key=lambda z: (z.real, z.imag))
    e2 = sorted(np.linalg.eigvals(red2), key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(e1, e2, atol=1e-10)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_eigenvalue_consistency_with_dense(m, eps):
    """Reduced eigenvalues equal the truncated operator's eigenvalues
    nearest 1, to graph-defect accuracy."""
    lmat = assemble_L(m, 16, eps)
    bl = split_blocks(lmat, m, strict=False)
    g = solve_graph(bl, tol=1e-14)
    red_eigs = np.linalg.eigvals(reduced_matrix(bl, g))
    dense = np.linalg.eigvals(lmat.entries)
    for lam in red_eigs:
        nearest = dense[np.argmin(np.abs(dense - lam))]
        assert abs(nearest - lam) <= max(10 * g.defect, 1e-9)
