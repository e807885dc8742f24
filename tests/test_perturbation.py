"""Block split, graph fixed point, and reduced-matrix fixtures."""

import dataclasses
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from landauspec.operators import (
    OperatorMatrix,
    assemble_L,
    assemble_L0,
    k_entries,
    reflection_signs,
)
from landauspec import perturbation
from landauspec.perturbation import (
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
)
from landauspec.statespace import (
    StateIndexMap,
    state_from_flat,
    x_weights,
)
from landauspec.stokes_spectrum import frame_slots

REDUCED_MODEL_M1 = np.array([[0.0, 0.0], [-0.2j, 1.0 / 15.0]])


def blocks_at(m, eps, k_max=16):
    return split_blocks(assemble_L(m, k_max, eps), m, strict=False)


def complex_d(bl):
    """D as a complex n_y x n_y matrix: coords' y_index rows and columns
    re-phased by y_phase, the product that d_times applies."""
    d = bl.coords[np.ix_(bl.y_index, bl.y_index)].astype(complex)
    return bl.y_phase[:, None] * d * bl.y_phase.conj()


def branch_basis(m, k_max):
    """Dense reference for the basis that split_blocks applies frame by
    frame: (columns, rows, labels), every exact frame rounded to floats on
    its flat indices, the lambda = 1 members first (stream before
    gradient) and scaled by z_coefficient, then the rest in frame order."""
    n = StateIndexMap(m, k_max).dim
    cols, rows, labels = np.zeros((n, n)), np.zeros((n, n)), []
    for k, frame, idx in frame_slots(m, k_max):
        span = slice(len(labels), len(labels) + len(idx))
        cols[idx, span] = np.array(frame.rows, dtype=float)
        rows[span, idx] = np.array(frame.inv, dtype=float)
        labels += [(k, lam, frame.family) for lam in frame.lams]
    e = sorted((j for j, label in enumerate(labels) if label[1] == 1),
               key=lambda j: labels[j][2] != "stream")
    order = e + [j for j, label in enumerate(labels) if label[1] != 1]
    scale = np.ones(n)
    scale[:len(e)] = [z_coefficient(labels[j][0], m) for j in e]
    return (cols[:, order] * scale, rows[order] / scale[:, None],
            tuple(labels[j] for j in order))


def test_zero_eps_blocks_vanish():
    # at eps = 0 K is zero, so the strict split's budget is 0 and passes
    bl = split_blocks(assemble_L(1, 12, 0.0), 1)
    assert not bl.a.any() and not bl.b.any()
    assert not bl.c.any() and not bl.coords.any()
    g = solve_graph(bl)
    assert g.iterations <= 1
    assert not g.matrix.any()
    assert np.array_equal(reduced_matrix(bl, g), np.eye(2))


def test_smallness_guard():
    # the error names both factors of the budget and the point
    with pytest.raises(ValueError, match=re.escape(
            "||K||_X = 0.423 times kappa = 1.000 is 0.423 >= 0.25 at "
            "m = 1, k_max = 12, eps = 0.05")):
        split_blocks(assemble_L(1, 12, 0.05), 1)
    # inside the guaranteed ball the strict path goes through
    lmat = assemble_L(1, 12, 0.02)
    bl = split_blocks(lmat, 1)
    k_norm = perturbation._weighted_k_norm(k_entries(lmat), lmat.index_map)
    assert k_norm * np.abs(bl.resolvent).max() < 0.25


def test_split_reads_the_norm_only_when_strict(monkeypatch):
    # only the strict check reads the contraction norm, an SVD that would
    # be most of the split's time, so a caller that passes strict=False
    # does not pay for it
    def planted(*args):
        raise RuntimeError("planted norm")

    monkeypatch.setattr(perturbation, "_weighted_k_norm", planted)
    lmat = assemble_L(1, 12, 0.05)
    assert split_blocks(lmat, 1, strict=False).dim_e == 2
    with pytest.raises(RuntimeError, match="planted norm"):
        split_blocks(lmat, 1)


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError, match="m = 1"):
        split_blocks(assemble_L(1, 12, 0.0), 0)


def misshaped_operator(tmp_path):
    return OperatorMatrix(1, 12, 0.05, np.zeros((4, 4)))


@pytest.mark.parametrize("build, match", [
    (misshaped_operator, r"shape \(4, 4\).*indexes \(72, 72\)"),
], ids=["misshaped"])
def test_bad_operator_rejected(tmp_path, build, match):
    # an operator reaches split_blocks only through the checks of
    # OperatorMatrix, which name the shapes
    with pytest.raises(ValueError, match=match):
        split_blocks(build(tmp_path), 1, strict=False)


@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("k_max, eps", [
    *((k_max, eps) for k_max in (12, 24, 96) for eps in (0.0, 0.05, 0.1)),
    (32, 0.3),
])
def test_real_split_matches_the_complex_reference(m, k_max, eps,
                                                  complex_basis):
    """split_blocks forms the blocks in the stream-scaled real form and
    re-phases them by i on the stream branches.  They agree to rounding
    with the blocks formed from K in the complex basis of the states, and
    the phases are exact: an entry between a stream branch and a
    non-stream branch is purely imaginary, every other entry purely
    real."""
    lmat = assemble_L(m, k_max, eps)
    bl = split_blocks(lmat, m, strict=False)
    kmat = complex_basis(lmat) - complex_basis(assemble_L0(m, k_max))
    cols, rows, labels = branch_basis(m, k_max)
    assert bl.e_branches == labels[:bl.dim_e]
    ref = rows @ kmat @ cols
    w = np.sqrt(x_weights(lmat.index_map))
    ref_norm = np.linalg.norm((kmat * w[:, None]) / w[None, :], 2)
    k_norm = perturbation._weighted_k_norm(k_entries(lmat), lmat.index_map)
    coord = np.block([[bl.a, bl.b], [bl.c, complex_d(bl)]])
    assert np.abs(coord - ref).max() <= 1e-13 * np.abs(ref).max()
    assert abs(k_norm - ref_norm) <= 1e-13 * ref_norm

    stream = np.array([label[2] == "stream" for label in labels])
    cross = stream[:, None] != stream[None, :]
    assert not coord.real[cross].any()
    assert not coord.imag[~cross].any()


# explicit ids keep the names of the k_max = 12 cases stable
@pytest.mark.parametrize("m, k_max", [
    *(pytest.param(m, 12, id=f"{m}") for m in (0, 1, 2)),
    *(pytest.param(m, 96, id=f"{m}-kmax96") for m in (0, 1, 2)),
    pytest.param(0, 1000, id="0-kmax1000"),
])
def test_projector_completeness(m, k_max):
    """Each rounded frame inverse that split_blocks applies inverts its
    rounded frame at rounding level, checked frame by frame, with no
    orthonormalizing fallback for the ill-conditioned high-degree frames.
    The worst residual is 5.0e-15 up to the benchmark's largest truncation,
    k_max = 96, and 4.9e-14 up to k_max = 1000 (every degree from 0)."""
    worst = max(np.abs(frame.float_inv @ frame.float_rows
                       - np.eye(len(idx))).max()
                for _, frame, idx in frame_slots(m, k_max))
    assert worst <= (1e-14 if k_max <= 96 else 5e-14)


def test_warm_split_rounds_no_fraction(monkeypatch):
    # the frames are rounded to floats once, in branch_frame's cache
    lmat = assemble_L(1, 24, 0.05)
    split_blocks(lmat, 1, strict=False)
    calls = []
    exact_float = Fraction.__float__

    def counted(self):
        calls.append(self)
        return exact_float(self)

    monkeypatch.setattr(Fraction, "__float__", counted)
    split_blocks(lmat, 1, strict=False)
    assert calls == []


def _traced(func):
    """func's result, and the peak and the retained traced memory of the
    call, in units of 8 n^2 bytes at k_max 96, m = 1 (n = 576)."""
    unit = 8 * StateIndexMap(1, 96).dim ** 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = func()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - before) / unit, (retained - before) / unit


@pytest.fixture(scope="module")
def operator_k96():
    lmat = assemble_L(1, 96, 0.05)
    split_blocks(lmat, 1, strict=False)  # fill branch_frame's cache
    return lmat


def test_blocks_retain_only_the_block_matrix(operator_k96):
    """The blocks keep K's real branch coordinates, one float64 n x n
    array (8 n^2 bytes), with a, b and c n_e rows or columns thin, and no
    complex n x n matrix or dense branch basis besides.  The split peaks
    at that one copy of the entries: with strict=False no contraction norm
    is read, and nothing n x n is permuted or made complex (a permuted
    copy and a complex one peaked at 3.08)."""
    bl, peak, retained = _traced(
        lambda: split_blocks(operator_k96, 1, strict=False))
    assert bl.coords.shape == (operator_k96.dim,) * 2
    assert bl.coords.dtype == np.float64
    assert bl.y_index.size + bl.dim_e == operator_k96.dim
    assert retained <= 1.1
    assert peak <= 1.2


def test_graph_solve_makes_no_square_temporary(operator_k96):
    # D is applied through the real coordinates, n x n_e at a time
    bl = split_blocks(operator_k96, 1, strict=False)
    _, peak, _ = _traced(lambda: solve_graph(bl))
    assert peak <= 0.1


@pytest.mark.parametrize("k_max", [24, 48, 96])
@pytest.mark.parametrize("m, iterations", [(1, 8), (2, 7)])
def test_graph_iterations_at_the_benchmark_truncations(m, iterations, k_max):
    # the Picard solve takes as many steps with D applied in real
    # arithmetic as with the complex D it replaced
    bl = split_blocks(assemble_L(m, k_max, 0.05), m, strict=False)
    assert solve_graph(bl).iterations == iterations


@pytest.mark.parametrize("m", [0, 1, 2])
def test_d_times_is_the_complex_product(m):
    bl = blocks_at(m, 0.1, k_max=24)
    rng = np.random.default_rng(3)
    mat = (rng.standard_normal((bl.y_index.size, 3))
           + 1j * rng.standard_normal((bl.y_index.size, 3)))
    want = complex_d(bl) @ mat
    assert np.abs(bl.d_times(mat) - want).max() <= 1e-14 * np.abs(want).max()


def test_k_image_rows_hold_all_of_k():
    # K's image fills only phi', psi' and radial_star: its other rows are
    # zero, so they add nothing to the contraction norm
    lmat = assemble_L(1, 24, 0.1)
    kmat = k_entries(lmat)
    imap = lmat.index_map
    image = np.r_[imap.sl("phi_prime"), imap.sl("psi_prime"),
                  imap.sl("radial_star")]
    assert not np.delete(kmat, image, axis=0).any()
    assert kmat[image].any()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_lambda_diagonal_integers(m):
    # the resolvent is 1 / (1 - lambda) of integer lambda other than 1
    bl = blocks_at(m, 0.05, k_max=12)
    lam = np.round(1.0 - 1.0 / bl.resolvent)
    assert np.abs(1.0 - 1.0 / bl.resolvent - lam).max() <= 1e-12
    assert not np.any(lam == 1)
    expect = np.diag(1.0 / (1.0 - lam))
    assert np.abs(bl.inv_lambda - expect).max() == 0.0
    assert np.abs(bl.resolvent).max() == 1.0


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
    """The first E member synthesizes to the bare trig profile; the basis
    is the one split_blocks applies (see the complex reference test)."""
    name, expect = profiles
    k_max = 8
    grid = QuadratureGrid.build(default_node_count(k_max))
    table = legendre_values(k_max, m, grid)
    state = state_from_flat(m, k_max, branch_basis(m, k_max)[0][:, 0])
    vals = state.components()[name].coeffs @ table.val
    np.testing.assert_allclose(vals, expect(grid.theta), atol=1e-13)


def test_e_gradient_pair_shape():
    state = state_from_flat(1, 8, branch_basis(1, 8)[0][:, 1])
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


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("k_max", [16, 24])
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_reflection_conjugates_operator(m, k_max, eps):
    """L(-eps) = S L(eps) S with S the reflection signs."""
    s = reflection_signs(StateIndexMap(m, k_max))
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
    s = reflection_signs(StateIndexMap(m, k_max))
    cols = branch_basis(m, k_max)[0]
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
    # the defects of the steps are read off the error of a solve cut short
    bl = blocks_at(1, 0.05)
    assert solve_graph(bl, tol=1e-13).defect <= 1e-13
    with pytest.raises(RuntimeError, match="last defects") as err:
        solve_graph(bl, tol=0.0, max_iter=6)
    hist = [float(d) for d in re.findall(r"'([^']+)'", str(err.value))]
    assert len(hist) == 5
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_graph_nonconvergence_reports_history():
    bl = blocks_at(1, 0.05)
    with pytest.raises(RuntimeError, match="defect"):
        solve_graph(bl, tol=1e-16, max_iter=2)


def test_graph_invariance_of_lifted_subspace(complex_basis):
    eps = 0.05
    k_max = 16
    lmat = assemble_L(1, k_max, eps)
    bl = split_blocks(lmat, 1, strict=False)
    g = solve_graph(bl, tol=1e-14)
    red = reduced_matrix(bl, g)
    u = np.array([1.0, 0.7j])

    cols = branch_basis(1, k_max)[0]

    def lift(v):  # the state of the graph point (v, M v)
        coords = np.concatenate([v, g.matrix @ v])
        return state_from_flat(1, k_max, cols @ coords)

    lmat_c = complex_basis(lmat)
    lhs = lmat_c @ lift(u).to_flat()
    rhs = lift(red @ u).to_flat()
    scale = np.linalg.norm(lmat_c, 2) * np.linalg.norm(u)
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
