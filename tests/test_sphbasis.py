import functools

import numpy as np
import pytest

from landauspec import sphbasis
from landauspec.landau import LandauProfile, eval_profiles
from landauspec.sphbasis import (
    ModalField,
    TAIL_TOLERANCE,
    QuadratureGrid,
    default_k_max,
    default_node_count,
    laplacian,
    legendre_raw,
    legendre_values,
    norm_constant,
    project,
    project_div_curl,
    solve_poisson,
    zero_field,
)


def make_table(k_max, m, n=None):
    grid = QuadratureGrid.build(n or default_node_count(k_max))
    return legendre_values(k_max, m, grid)


def tangent(phi, psi, d, msin):
    """Nodal xi = grad(phi) + grad_perp(psi) from a theta-derivative table d
    and an m/sin(theta) table msin (dtheta/m_sin for xi, d2theta/dm_sin for
    its theta-derivative):
        xi_theta = d phi - i msin psi,   xi_phi = i msin phi + d psi
    """
    return (phi.coeffs @ d - 1j * (psi.coeffs @ msin),
            1j * (phi.coeffs @ msin) + psi.coeffs @ d)


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2, 3])
def test_default_k_max_grows_with_abs_eps_from_its_floor(m):
    # at eps = 0 the decay term is its limit 1, so the floor is where the
    # rule starts; it never falls as |eps| grows, and it reads |eps| only
    floor = 6 + max(abs(m), 1)
    assert default_k_max(0.0, m) == floor
    eps = np.linspace(0.0, 0.99, 991)
    rule = [default_k_max(e, m) for e in eps]
    assert rule == [default_k_max(-e, m) for e in eps]
    assert rule[0] == floor and min(np.diff(rule)) >= 0
    assert default_k_max(5e-324, m) == floor  # rho^-1 itself underflows


def test_default_k_max_follows_the_bernstein_rate():
    # ceil(log(TAIL_TOLERANCE) / log(rho^-1)) + max(|m|, 1) + 5, with
    # rho^-1 = eps / (1 + sqrt(1 - eps^2)); on the paper's grid
    assert TAIL_TOLERANCE == 1e-10
    grid = (0.02, 0.04, 0.06, 0.08, 0.10)
    assert [default_k_max(e, 1) for e in grid] == [12, 12, 13, 14, 14]
    assert [default_k_max(e, 2) for e in grid] == [13, 13, 14, 15, 15]
    assert [default_k_max(e, 0) for e in grid] == [12, 12, 13, 14, 14]
    assert default_k_max(0.3, 0) == 19 and default_k_max(0.3, -2) == 20


@pytest.mark.parametrize("eps", [1.0, -1.0, 1.5, np.inf, np.nan])
def test_default_k_max_rejects_eps_without_a_decay(eps):
    with pytest.raises(ValueError, match="no truncation resolves"):
        default_k_max(eps, 1)


def test_quadrature_weights_sum():
    grid = QuadratureGrid.build(24)
    assert np.sum(grid.w) == pytest.approx(2.0, abs=1e-14)


def test_quadrature_grid_is_built_once_per_node_count():
    # every assembly takes the default rule of its k_max through
    # legendre_values; all of them share one grid, which no caller can
    # write into
    n = default_node_count(24)
    grid = QuadratureGrid.build(n)
    assert QuadratureGrid.build(n) is grid
    assert legendre_values(24, 1).grid is grid
    assert QuadratureGrid.build(n + 2) is not grid
    for nodes in (grid.x, grid.w):
        assert not nodes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0


TABLE_ARRAYS = ("val", "dtheta", "m_sin", "d2theta", "dm_sin", "norms")


def test_default_tables_are_built_once_and_read_only():
    # the table on the default rule depends on (k_max, m) alone, so every
    # assembly shares one; a table on an explicit grid is built fresh
    table = legendre_values(24, -2)
    assert legendre_values(24, -2) is table
    assert legendre_values(24, 2) is not table
    for name in TABLE_ARRAYS:
        arr = getattr(table, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    grid = QuadratureGrid.build(default_node_count(24))
    fresh = legendre_values(24, -2, grid)
    assert fresh is not table and legendre_values(24, -2, grid) is not fresh
    for name in TABLE_ARRAYS:
        assert np.array_equal(getattr(fresh, name), getattr(table, name))


def test_a_table_miss_calls_no_public_builder(monkeypatch):
    # a miss builds through private names only, so a call tracer counts the
    # same public calls whether or not the table was already built
    want = legendre_values(17, 3, QuadratureGrid.build(default_node_count(17)))

    def public(*args):
        raise AssertionError("a table miss called a public builder")

    # an empty cache in place of the shared one, so this call is a miss
    cache = functools.lru_cache(maxsize=None)(
        sphbasis._default_table.__wrapped__)
    monkeypatch.setattr(sphbasis, "_default_table", cache)
    monkeypatch.setattr(sphbasis, "legendre_raw", public)
    monkeypatch.setattr(sphbasis, "norm_constant", public)
    got = legendre_values(17, 3)
    assert cache.cache_info().misses == cache.cache_info().currsize == 1
    assert legendre_values(17, 3) is got
    for name in TABLE_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_quadrature_polynomial_exactness():
    n = 9
    grid = QuadratureGrid.build(n)
    for p in range(2 * n):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        assert np.dot(grid.w, grid.x**p) == pytest.approx(exact, abs=1e-14)


def test_legendre_polynomials_at_point():
    x = np.array([0.37])
    tab = legendre_raw(3, 0, x)
    assert tab[1, 0] == pytest.approx(0.37, abs=1e-15)
    assert tab[2, 0] == pytest.approx((3 * 0.37**2 - 1) / 2, abs=1e-15)
    assert tab[3, 0] == pytest.approx((5 * 0.37**3 - 3 * 0.37) / 2, abs=1e-15)


def test_legendre_zero_above_diagonal():
    tab = legendre_raw(4, 3, np.linspace(-1, 1, 5))
    assert np.all(tab[:3] == 0.0)
    assert np.any(tab[3] != 0.0)


def test_norm_constant_11():
    assert norm_constant(1, 1) ** 2 == pytest.approx(4.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("m", range(6))
def test_orthogonality_raw(m):
    k_max = 40
    grid = QuadratureGrid.build(96)
    tab = legendre_raw(k_max, m, grid.x)
    gram = (tab * grid.w) @ tab.T
    norms = np.array([norm_constant(k, m) for k in range(k_max + 1)])
    expected = np.diag(norms**2)
    scale = np.outer(np.maximum(norms, 1.0), np.maximum(norms, 1.0))
    assert np.max(np.abs(gram - expected) / scale) <= 1e-12


@pytest.mark.parametrize("m", range(6))
def test_derivative_recurrence(m):
    # sin(theta) dP_k/dtheta = -[(k+1)(k+m) P_(k-1) - k(k-m+1) P_(k+1)]/(2k+1),
    # checked on the normalized tables so rows are O(1).
    k_max = 41
    tab = make_table(k_max, m)
    s = tab.grid.sin_theta
    worst = 0.0
    for k in range(max(m, 1), k_max):
        i = tab.row(k)
        n_k = norm_constant(k, m)
        lhs = s * tab.dtheta[i]
        rhs = np.zeros_like(lhs)
        if k - 1 >= m:
            rhs -= (k + 1) * (k + m) * tab.val[tab.row(k - 1)] * (
                norm_constant(k - 1, m) / n_k)
        rhs += k * (k - m + 1) * tab.val[tab.row(k + 1)] * (
            norm_constant(k + 1, m) / n_k)
        rhs /= 2 * k + 1
        scale = 1.0 + np.max(np.abs(lhs))
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    assert worst <= 1e-11


@pytest.mark.parametrize("m", [-3, -1, 0, 1, 2, 4])
def test_tables_match_finite_differences(m):
    # Cross-check every derived table against central differences of the
    # plain val table evaluated on shifted point sets.
    k_max = 12
    theta = np.linspace(0.4, np.pi - 0.4, 9)
    h = 1e-5

    def table_at(tharr):
        grid = QuadratureGrid(n_nodes=tharr.size, x=np.cos(tharr),
                              w=np.zeros(tharr.size))
        return legendre_values(k_max, m, grid)

    t0 = table_at(theta)
    tp = table_at(theta + h)
    tm = table_at(theta - h)

    def close(analytic, fd, tol):
        scale = 1.0 + np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - fd)) / scale < tol

    close(t0.dtheta, (tp.val - tm.val) / (2 * h), 1e-8)
    close(t0.d2theta, (tp.val - 2 * t0.val + tm.val) / h**2, 1e-4)
    close(t0.m_sin, m * t0.val / np.sin(theta), 1e-13)
    close(t0.dm_sin,
          (m * tp.val / np.sin(theta + h) - m * tm.val / np.sin(theta - h)) / (2 * h),
          1e-8)


def test_negative_order_sign_relation():
    k_max = 8
    grid = QuadratureGrid.build(default_node_count(k_max))
    for m in (1, 2, 3):
        plus = legendre_values(k_max, m, grid)
        minus = legendre_values(k_max, -m, grid)
        sign = (-1.0) ** m
        assert np.allclose(minus.val, sign * plus.val, atol=1e-13)
        assert np.allclose(minus.dtheta, sign * plus.dtheta, atol=1e-13)
        assert np.allclose(minus.m_sin, -sign * plus.m_sin, atol=1e-13)


def test_project_orthonormal_basis_function():
    tab = make_table(6, 1)
    f = zero_field(1, 6)
    f.coeffs[tab.row(2)] = 1.0
    vals = f.coeffs @ tab.val
    back = project(vals, tab)
    want = np.zeros(6, dtype=complex)
    want[1] = 1.0
    assert np.allclose(back.coeffs, want, atol=1e-13)


def test_project_cos_sin_mode1():
    # cos(theta) sin(theta) e^(i phi) lives at degree 2 only.
    tab = make_table(8, 1)
    vals = tab.grid.x * tab.grid.sin_theta
    field = project(vals, tab)
    mask = np.ones(field.coeffs.size, dtype=bool)
    mask[tab.row(2)] = False
    assert np.max(np.abs(field.coeffs[mask])) <= 1e-13
    assert abs(field.coeff(2)) > 0.1


def test_project_roundtrip_random():
    rng = np.random.default_rng(11)
    for m in (0, 2, -1):
        tab = make_table(15, m)
        f = ModalField(m, rng.normal(size=16 - abs(m))
                       + 1j * rng.normal(size=16 - abs(m)))
        vals = f.coeffs @ tab.val
        back = project(vals, tab)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12


def test_project_rejects_sparse_grid():
    # A table is fine to synthesize from on any point set, but projection
    # needs enough nodes to resolve the top degree.
    grid = QuadratureGrid.build(8)
    tab = legendre_values(12, 1, grid)
    with pytest.raises(ValueError):
        project(np.zeros(8), tab)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_laplacian_eigenrelation_pointwise(m):
    # table rows -> pointwise Delta -> project, against -k(k+1).
    k_max = 40
    tab = make_table(k_max, m)
    s = tab.grid.sin_theta
    cot = tab.grid.x / s
    for k in (max(m, 1), 7, 25, 40):
        f = zero_field(m, k_max)
        f.coeffs[tab.row(k)] = 1.0
        vals = f.coeffs @ tab.d2theta + cot * (f.coeffs @ tab.dtheta)
        if m != 0:
            vals -= (m / s) * (f.coeffs @ tab.m_sin)
        got = project(vals, tab)
        want = np.zeros_like(f.coeffs)
        want[tab.row(k)] = -k * (k + 1.0)
        assert np.max(np.abs(got.coeffs - want)) <= 1e-10 * (1 + k * (k + 1))


def test_laplacian_diagonal():
    f = ModalField(1, np.array([1.0, 2.0, 3.0]))
    lap = laplacian(f)
    assert np.allclose(lap.coeffs, [-2.0, -12.0, -36.0])


def test_solve_poisson_eigenfunction():
    rhs = ModalField(1, np.array([0.0, -6.0, 0.0]))
    psi = solve_poisson(rhs)
    assert np.allclose(psi.coeffs, [0.0, 1.0, 0.0])


def test_solve_poisson_inverse_roundtrip():
    rng = np.random.default_rng(3)
    r = ModalField(0, np.concatenate([[0.0], rng.normal(size=9)]))
    assert np.allclose(laplacian(solve_poisson(r)).coeffs, r.coeffs, atol=1e-14)


def test_solve_poisson_zero():
    out = solve_poisson(zero_field(0, 5))
    assert np.all(out.coeffs == 0.0)


def test_solve_poisson_rejects_mean():
    with pytest.raises(ValueError):
        solve_poisson(ModalField(0, np.array([1.0, 0.5])))


def test_grad_perp_div_curl():
    rng = np.random.default_rng(5)
    tab = make_table(12, 2)
    psi = ModalField(2, rng.normal(size=11) + 1j * rng.normal(size=11))
    xi_t, xi_p = tangent(zero_field(2, 12), psi, tab.dtheta, tab.m_sin)
    div, curl = project_div_curl(xi_t, -1j * xi_p, tab)
    scale = 1.0 + np.max(np.abs(laplacian(psi).coeffs))
    assert np.max(np.abs(div.coeffs)) <= 1e-12 * scale
    assert (np.max(np.abs(1j * curl.coeffs - laplacian(psi).coeffs))
            <= 1e-12 * scale)


def test_grad_div_curl():
    rng = np.random.default_rng(6)
    tab = make_table(12, 1)
    phi = ModalField(1, rng.normal(size=12) + 1j * rng.normal(size=12))
    xi_t, xi_p = tangent(phi, zero_field(1, 12), tab.dtheta, tab.m_sin)
    div, curl = project_div_curl(xi_t, -1j * xi_p, tab)
    scale = 1.0 + np.max(np.abs(laplacian(phi).coeffs))
    assert np.max(np.abs(div.coeffs - laplacian(phi).coeffs)) <= 1e-12 * scale
    assert np.max(np.abs(curl.coeffs)) <= 1e-12 * scale


def test_div_of_landau_tangent_flow():
    # div(V e_theta) = -F for the Landau profiles.
    k_max = 24
    tab = make_table(k_max, 0)
    vals = eval_profiles(LandauProfile(0.4), tab.grid.theta)
    div, _ = project_div_curl(vals["V"].astype(complex),
                              np.zeros(tab.grid.n_nodes, dtype=complex), tab)
    minus_f = project(-vals["F"].astype(complex), tab)
    assert np.max(np.abs(div.coeffs - minus_f.coeffs)) <= 1e-12


def test_stream_z1_tangent_field():
    # psi = sin(theta) e^(i phi): xi = -i e_theta + cos(theta) e_phi.
    tab = make_table(4, 1)
    psi = zero_field(1, 4)
    psi.coeffs[tab.row(1)] = -norm_constant(1, 1)
    xi_t, xi_p = tangent(zero_field(1, 4), psi, tab.dtheta, tab.m_sin)
    assert np.allclose(xi_t, -1j, atol=1e-13)
    assert np.allclose(xi_p, tab.grid.x, atol=1e-13)


def test_tangent_field_dtheta_consistency():
    # the d2theta and dm_sin tables give d/dtheta of the tangent components
    # built from dtheta and m_sin, against central differences taken on
    # tables built at shifted angles
    k_max = 10
    theta = np.linspace(0.5, np.pi - 0.5, 7)
    h = 1e-5
    rng = np.random.default_rng(9)
    phi = ModalField(1, rng.normal(size=10))
    psi = ModalField(1, rng.normal(size=10))

    def at(tharr):
        grid = QuadratureGrid(n_nodes=tharr.size, x=np.cos(tharr),
                              w=np.zeros(tharr.size))
        tab = legendre_values(k_max, 1, grid)
        return tangent(phi, psi, tab.dtheta, tab.m_sin)

    grid0 = QuadratureGrid(n_nodes=theta.size, x=np.cos(theta),
                           w=np.zeros(theta.size))
    tab0 = legendre_values(k_max, 1, grid0)
    d_t, d_p = tangent(phi, psi, tab0.d2theta, tab0.dm_sin)
    up_t, up_p = at(theta + h)
    dn_t, dn_p = at(theta - h)
    scale = 1.0 + max(np.max(np.abs(d_t)), np.max(np.abs(d_p)))
    assert np.max(np.abs(d_t - (up_t - dn_t) / (2 * h))) / scale < 1e-8
    assert np.max(np.abs(d_p - (up_p - dn_p) / (2 * h))) / scale < 1e-8


@pytest.mark.parametrize("m", [0, 1, -2])
def test_projections_keep_a_real_block_real(m):
    # grad(phi) + grad_perp(i psi) with real phi and psi is real in the
    # stream-scaled form (xi_theta, xi_phi / i): its div and curl / i come
    # back real, as the Laplacians of phi and psi, and so does a scalar
    k_max = 12
    tab = make_table(k_max, m)
    rng = np.random.default_rng(8)
    phi, psi = (rng.normal(size=(k_max - abs(m) + 1, 3)) for _ in range(2))
    xi_t = phi.T @ tab.dtheta + psi.T @ tab.m_sin
    xi_p = phi.T @ tab.m_sin + psi.T @ tab.dtheta
    div, curl = project_div_curl(xi_t.T, xi_p.T, tab)
    scalar = project((phi.T @ tab.val).T, tab)
    for field in (div, curl, scalar):
        assert field.coeffs.dtype == np.float64
    ks = np.arange(abs(m), k_max + 1)
    kk = (ks * (ks + 1.0))[:, None]
    scale = 1.0 + kk.max() * max(np.abs(phi).max(), np.abs(psi).max())
    assert np.abs(div.coeffs + kk * phi).max() <= 1e-12 * scale
    assert np.abs(curl.coeffs + kk * psi).max() <= 1e-12 * scale
    assert np.abs(scalar.coeffs - phi).max() <= 1e-13 * scale


@pytest.mark.parametrize("m", [0, 1, -2])
def test_projections_take_column_blocks(m):
    # a (nodes x columns) block projects column by column, the degree axis
    # first and the column axis kept
    tab = make_table(8, m)
    rng = np.random.default_rng(4)
    block = [rng.normal(size=(tab.grid.n_nodes, 3))
             + 1j * rng.normal(size=(tab.grid.n_nodes, 3)) for _ in range(3)]
    fields = [project(block[0], tab), *project_div_curl(block[1], block[2],
                                                        tab)]
    for j in range(3):
        single = [project(block[0][:, j], tab),
                  *project_div_curl(block[1][:, j], block[2][:, j], tab)]
        for f, g in zip(fields, single):
            assert f.coeffs.shape == (tab.k_max - abs(m) + 1, 3)
            assert f.k_max == g.k_max == 8
            assert np.allclose(f.coeffs[:, j], g.coeffs, rtol=0, atol=1e-14)
