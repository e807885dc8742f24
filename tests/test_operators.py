import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from landauspec import operators
from landauspec.landau import background_on_grid
from landauspec.operators import (
    _K_BLOCK_COLUMNS,
    OperatorMatrix,
    _k_columns,
    _l0_pattern,
    _tail_mass_ratio,
    assemble_K,
    assemble_L,
    assemble_L0,
    k_entries,
    load_operator,
    save_operator,
    stream_scale,
)
from landauspec.sphbasis import (
    QuadratureGrid,
    default_k_max,
    default_node_count,
    laplacian,
    legendre_values,
    norm_constant,
)
from landauspec.statespace import (
    COMPONENTS,
    STREAM_SLOTS,
    StateIndexMap,
    zero_state,
)

# The fixtures below are stated against bare trig profiles (sin, sin cos, ...)
# of order 1, which expand as zeta_k times our orthonormal rows.
ZETA1 = -norm_constant(1, 1)
ZETA2 = -norm_constant(2, 1) / 3.0
ZETA3 = -2.0 * norm_constant(3, 1) / 3.0


def stream_unit_state(m, k_max, k, coeff):
    st = zero_state(m, k_max)
    st.psi.coeffs[k - abs(m)] = coeff
    st.psi_prime.coeffs[k - abs(m)] = -coeff
    return st


def test_l0_k1_block_eigenvalues():
    l0 = assemble_L0(1, 6)
    imap = l0.index_map
    idx = [imap.index(c, 1) for c in COMPONENTS]
    eigs = np.linalg.eigvals(l0.entries[np.ix_(idx, idx)])
    assert np.max(np.abs(np.sort(eigs.real) - [-3, -2, -1, 0, 1, 2])) < 1e-12
    assert np.max(np.abs(eigs.imag)) < 1e-12


def test_l0_unit_eigenvector_radial_pair():
    # (radial, radial_star) = (c, -3c) at degree 2 is a lambda = 1 eigenvector.
    l0 = assemble_L0(1, 6)
    st = zero_state(1, 6)
    st.radial.coeffs[1] = 1.0
    st.radial_star.coeffs[1] = -3.0
    img = l0.apply_state(st)
    assert np.max(np.abs(img.to_flat() - st.to_flat())) == 0.0


def test_l0_block_diagonal_structure():
    l0 = assemble_L0(0, 8)
    imap = l0.index_map
    deg = np.zeros(imap.dim, dtype=int)
    for name in COMPONENTS:
        deg[imap.sl(name)] = imap.degrees(name)
    mask = deg[:, None] != deg[None, :]
    assert np.max(np.abs(l0.entries[mask])) == 0.0


@pytest.mark.parametrize("k_max", [2, 5, 24])
def test_l0_degree_zero_slot_is_isolated(k_max):
    # at m = 0 degree zero keeps only radial_star, where L0 acts as -2
    entries = assemble_L0(0, k_max).entries
    i0 = StateIndexMap(0, k_max).index("radial_star", 0)
    expect = np.zeros(entries.shape[0])
    expect[i0] = -2.0
    assert np.array_equal(entries[i0, :], expect)
    assert np.array_equal(entries[:, i0], expect)


def l0_action(k):
    """The nonzero entries of L0 on degree k, row by row, transcribed from
    the action stated in the operators module docstring."""
    kk = k * (k + 1)
    return {
        "phi": {"phi_prime": -1},
        "psi": {"psi_prime": -1},
        "phi_prime": {"phi": -2 * kk, "phi_prime": -1, "radial": 3,
                      "radial_star": 1},
        "psi_prime": {"psi": -kk, "psi_prime": -1},
        "radial": {"phi": -kk, "radial": 1},
        "radial_star": {"phi": 3 * kk, "radial": -(3 + kk), "radial_star": -2},
    }


@pytest.mark.parametrize("k_max", [3, 5, 24])
@pytest.mark.parametrize("m", [0, 1, -1, 2, -2, 3])
def test_l0_matches_the_documented_action_entrywise(m, k_max,
                                                    complex_basis):
    # an independent reference: each degree's 6x6 block scattered slot by
    # slot, every entry a slot pair of that degree admits
    imap = StateIndexMap(m, k_max)
    want = np.zeros((imap.dim, imap.dim), dtype=complex)
    for k in range(abs(m), k_max + 1):
        for row, terms in l0_action(k).items():
            for col, value in terms.items():
                if max(imap.k_lo(row), imap.k_lo(col)) <= k:
                    want[imap.index(row, k), imap.index(col, k)] = value
    l0 = assemble_L0(m, k_max)
    assert np.argwhere(l0.entries != want).tolist() == []
    # L0 couples no stream slot to another slot, so its stream scaling is
    # itself: the entries are L0 in the complex basis of the states too
    assert np.array_equal(complex_basis(l0), l0.entries)


def test_l0_requires_kmax():
    with pytest.raises(ValueError):
        assemble_L0(1, 1)


@pytest.mark.parametrize("m,mult", [(0, 2), (1, 2), (2, 1)])
def test_l0_spectrum_integrality(m, mult):
    l0 = assemble_L0(m, 20)
    eigs = np.linalg.eigvals(l0.entries)
    assert np.max(np.abs(eigs - np.round(eigs.real))) <= 1e-8
    assert np.sum(np.abs(eigs - 1.0) < 1e-8) == mult


def test_k_vanishes_at_zero_eps():
    k = assemble_K(1, 8, 0.0)
    assert np.all(k.entries == 0.0)


def test_k_swirl_fixture_m0():
    # Swirl input at degree 1; image coefficients (8/3) eps at degree 2 and
    # (4/3) eps^2 at degree 3 in the bare trig normalization, which decompose
    # as (8/15) eps and (4/21) eps^2 against the stream eigenvector pairs.
    devs = {}
    for eps in (0.04, 0.02):
        kmat = assemble_K(0, 20, eps)
        st = stream_unit_state(0, 20, 1, norm_constant(1, 0))
        img = kmat.apply_state(st)
        for name in ("phi", "psi", "phi_prime", "radial", "radial_star"):
            assert np.max(np.abs(img.components()[name].coeffs)) == 0.0
        c2 = img.psi_prime.coeffs[2] / norm_constant(2, 0)
        c3 = img.psi_prime.coeffs[3] / norm_constant(3, 0)
        devs[eps] = abs(c2 / eps - 8.0 / 3.0)
        assert abs(c2 / eps - 8.0 / 3.0) <= 2.0 * eps**2
        assert abs(c3 / eps**2 - 4.0 / 3.0) <= 2.0 * eps**2
        # stream eigenbasis split: (psi, psi') = a (1,-k) + b (1, k+1)
        a2 = (3.0 * img.psi.coeffs[2] - img.psi_prime.coeffs[2]) / 5.0
        a2 /= norm_constant(2, 0)
        assert abs(a2 + (8.0 / 15.0) * eps) <= eps**3 * 2.0
        a3 = (4.0 * img.psi.coeffs[3] - img.psi_prime.coeffs[3]) / 7.0
        a3 /= norm_constant(3, 0)
        assert abs(a3 + (4.0 / 21.0) * eps**2) <= eps**4 * 4.0
    assert 3.5 <= devs[0.04] / devs[0.02] <= 4.5


def test_k_stream_fixture_m1():
    # K on (psi, psi') = (Z1, -Z1): image components in the Z-normalized
    # basis, all with O(eps^2) relative remainders.
    targets = {}
    for eps in (0.05, 0.025):
        kmat = assemble_K(1, 16, eps)
        st = stream_unit_state(1, 16, 1, ZETA1)
        img = kmat.apply_state(st)
        got = {
            "pp1": img.phi_prime.coeffs[0] / ZETA1 / eps,
            "pp2": img.phi_prime.coeffs[1] / ZETA2 / eps**2,
            "sp2": img.psi_prime.coeffs[1] / ZETA2 / eps,
            "sp3": img.psi_prime.coeffs[2] / ZETA3 / eps**2,
            "rs2": img.radial_star.coeffs[1] / ZETA2 / eps**2,
        }
        want = {"pp1": -2j, "pp2": -10j / 3.0, "sp2": 4.0, "sp3": 2.0 / 3.0,
                "rs2": -8j}
        for key in want:
            assert abs(got[key] - want[key]) <= 5.0 * eps**2, key
        targets[eps] = abs(got["rs2"] + 8j)
    assert 3.5 <= targets[0.05] / targets[0.025] <= 4.5


def test_k_tangent_image_div_curl_m1():
    # xi = grad_perp(Z2), xi' = -xi: div T = 4i eps Z2, curl T = -16 eps Z3.
    devs = []
    for eps in (0.05, 0.025):
        kmat = assemble_K(1, 16, eps)
        st = stream_unit_state(1, 16, 2, ZETA2)
        img = kmat.apply_state(st)
        div_t = laplacian(img.phi_prime).coeffs[1] / ZETA2
        curl_t = laplacian(img.psi_prime).coeffs[2] / ZETA3
        assert abs(div_t / eps - 4j) <= 8.0 * eps**2
        assert abs(curl_t / eps + 16.0) <= 8.0 * eps**2
        devs.append(abs(div_t / eps - 4j))
    assert 3.5 <= devs[0] / devs[1] <= 4.5


def test_k_norm_linear_in_eps():
    n1 = np.linalg.norm(assemble_K(1, 12, 0.01).entries, 2)
    n2 = np.linalg.norm(assemble_K(1, 12, 0.02).entries, 2)
    assert 1.9 <= n2 / n1 <= 2.1


def test_matrix_free_matches_assembled():
    # the assembly's default rule is converged: K's pipeline on a real
    # block, with the background on a rule of 32 more nodes, changes nothing
    rng = np.random.default_rng(17)
    for m, (k_max, eps) in itertools.product(
            (0, 1, -2), ((10, 0.05), (16, 0.15), (24, 0.3))):
        kmat = assemble_K(m, k_max, eps)
        fine = QuadratureGrid.build(default_node_count(k_max) + 32)
        imap = StateIndexMap(m, k_max)
        block = rng.normal(size=(imap.dim, 2))
        via_matrix = kmat.entries @ block
        scale = 1.0 + np.max(np.abs(via_matrix))
        for table in (legendre_values(k_max, m),
                      legendre_values(k_max, m, fine)):
            direct = _k_columns(block, background_on_grid(eps, table.grid),
                                table, imap)
            assert (np.max(np.abs(direct - via_matrix))
                    <= 1e-10 * scale), (m, k_max, eps, table.grid.n_nodes)


def test_k_conjugation_between_modes(complex_basis):
    for m in (1, 2):
        kp = complex_basis(assemble_K(m, 16, 0.2))
        km = complex_basis(assemble_K(-m, 16, 0.2))
        scale = 1.0 + np.max(np.abs(kp))
        assert np.max(np.abs(km - np.conj(kp))) <= 1e-13 * scale


def test_l_spectral_symmetry_in_eps_sign():
    lp = assemble_L(1, 16, 0.1)
    lm = assemble_L(1, 16, -0.1)
    ep = np.sort_complex(np.linalg.eigvals(lp.entries))
    em = np.sort_complex(np.linalg.eigvals(lm.entries))
    # match each eigenvalue to its nearest partner
    for lam in ep:
        assert np.min(np.abs(em - lam)) <= 1e-8


def test_pure_swirl_subblock_closed():
    lmat = assemble_L(0, 20, 0.3)
    imap = lmat.index_map
    swirl = np.concatenate([np.arange(imap.dim)[imap.sl("psi")],
                            np.arange(imap.dim)[imap.sl("psi_prime")]])
    outside = np.setdiff1d(np.arange(imap.dim), swirl)
    assert np.max(np.abs(lmat.entries[np.ix_(outside, swirl)])) <= 1e-12


def complex_k_reference(m, k_max, eps):
    """K in the complex basis of the states, written with the explicit
    factors of i of the module docstring: xi_theta = d_theta phi -
    i m_sin psi and xi_phi = i m_sin phi + d_theta psi (likewise their
    theta-slopes and xi'), the weak forms (div T)_k = sum_i w_i
    (-T_theta dtheta_k + i T_phi m_sin_k) and (curl T)_k = sum_i w_i
    (-T_phi dtheta_k - i T_theta m_sin_k) over the squared row norms, and
    invLap a product with -1/(k(k+1))."""
    table = legendre_values(k_max, m)
    imap = StateIndexMap(m, k_max)
    am = abs(m)
    eye = np.eye(imap.dim)

    def nodal(arr, name, weight=1.0):
        return (arr[imap.k_lo(name) - am:].T * weight) @ eye[imap.sl(name)]

    def tangent(d, msin, phi, psi):
        return (nodal(d, phi) - 1j * nodal(msin, psi),
                1j * nodal(msin, phi) + nodal(d, psi))

    xi = tangent(table.dtheta, table.m_sin, "phi", "psi")
    dxi = tangent(table.d2theta, table.dm_sin, "phi", "psi")
    xip = tangent(table.dtheta, table.m_sin, "phi_prime", "psi_prime")
    ks = imap.degrees("phi").astype(float)
    kk = ks * (ks + 1.0)
    th, dth = nodal(table.val, "radial"), nodal(table.dtheta, "radial")
    ths = nodal(table.val, "radial_star")
    q = -(nodal(table.val, "phi", -kk) + th + ths)
    bg = {key: val[:, None]
          for key, val in background_on_grid(eps, table.grid).items()}
    t_theta = -bg["V"] * dxi[0] - bg["dV"] * xi[0] - bg["F"] * xip[0]
    t_phi = -bg["V"] * dxi[1] - bg["V_cot"] * xi[1] - bg["F"] * xip[1]
    g = (-bg["V"] * dth - bg["dF"] * xi[0] + 2.0 * bg["V"] * xi[0]
         + bg["F"] * (2.0 * th - ths - q))
    w = table.grid.w
    norm2 = (table.norms ** 2)[:, None]
    div = ((table.dtheta * w) @ (-t_theta)
           + (table.m_sin * w) @ (1j * t_phi)) / norm2
    curl = ((table.dtheta * w) @ (-t_phi)
            + (table.m_sin * w) @ (-1j * t_theta)) / norm2
    out = np.zeros((imap.dim, imap.dim), dtype=complex)
    inv_lap = (-1.0 / kk)[:, None]
    out[imap.sl("phi_prime")] = div[imap.k_lo("phi_prime") - am:] * inv_lap
    out[imap.sl("psi_prime")] = curl[imap.k_lo("psi_prime") - am:] * inv_lap
    out[imap.sl("radial_star")] = ((table.val * w) @ g / norm2)[
        imap.k_lo("radial_star") - am:]
    return out


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
@pytest.mark.parametrize("k_max", [12, 24, 48])
def test_real_k_matches_the_complex_reference(m, k_max):
    # K is computed in the stream-scaled basis, where every factor of i
    # cancels; the complex reference scaled by D must be exactly real, and
    # its real part must be K's entries up to rounding.  The tail monitor
    # rejects eps 0.3 at k_max 12, so there the kernel itself is compared.
    imap = StateIndexMap(m, k_max)
    scale = stream_scale(imap)
    for eps in (0.02, 0.1, 0.3):
        ref = complex_k_reference(m, k_max, eps)
        ref *= scale[None, :]
        ref *= scale.conj()[:, None]
        assert not ref.imag.any(), eps
        if (k_max, eps) == (12, 0.3):
            with pytest.raises(ValueError, match="under-resolves"):
                assemble_K(m, k_max, eps)
            table = legendre_values(k_max, m)
            got = _k_columns(np.eye(imap.dim),
                             background_on_grid(eps, table.grid), table, imap)
        else:
            got = assemble_K(m, k_max, eps).entries
        assert (np.abs(got - ref.real).max()
                <= 1e-15 * np.abs(got).max()), eps


@pytest.mark.parametrize("m", [0, 1, -2])
def test_k_columns_keep_a_real_block_real(m):
    # a real block of stream-scaled states has a float64 image; a complex
    # block maps its real and imaginary parts separately
    k_max, eps = 16, 0.1
    imap = StateIndexMap(m, k_max)
    table = legendre_values(k_max, m)
    bg = background_on_grid(eps, table.grid)
    rng = np.random.default_rng(3)
    re, im = rng.normal(size=(imap.dim, 4)), rng.normal(size=(imap.dim, 4))
    real_re, real_im = (_k_columns(x, bg, table, imap) for x in (re, im))
    assert real_re.dtype == real_im.dtype == np.float64
    both = _k_columns(re + 1j * im, bg, table, imap)
    assert both.dtype == np.complex128
    scale = 1.0 + np.abs(both).max()
    assert np.abs(both - (real_re + 1j * real_im)).max() <= 1e-14 * scale


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
@pytest.mark.parametrize("k_max", [40, 48, 96])
def test_blocked_assembly_is_one_pass_over_the_identity(m, k_max):
    # assemble_K feeds the pipeline blocks of unit columns; each column's
    # image is independent of its block, so the entries are byte for byte
    # those of one pass over the whole identity
    imap = StateIndexMap(m, k_max)
    assert imap.dim > _K_BLOCK_COLUMNS
    table = legendre_values(k_max, m)
    for eps in (0.05, 0.3):
        one_pass = _k_columns(np.eye(imap.dim),
                              background_on_grid(eps, table.grid), table, imap)
        one_pass += 0.0
        got = assemble_K(m, k_max, eps).entries
        assert got.tobytes() == one_pass.tobytes(), eps


def _traced_peak(func):
    """Peak bytes that func allocates over what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = func()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_assembly_temporaries_scale_with_the_block():
    # at dim 576 the blocks are a third of the columns: the entries and one
    # block's temporaries stay under 4 x 8 n^2 (one pass over the identity
    # took 6.8)
    assemble_L(1, 96, 0.05)  # build the shared table and L0's pattern
    lmat, peak = _traced_peak(lambda: assemble_L(1, 96, 0.05))
    assert peak <= 4.0 * 8 * lmat.dim ** 2


def test_save_operator_forms_no_copy(tmp_path):
    # the file is written from the entries as they are, so saving holds no
    # n x n array besides the operator (8 n^2 bytes would be one copy)
    lmat = assemble_L(1, 96, 0.05)
    save_operator(lmat, tmp_path / "op.bin", tmp_path / "op.json")
    _, peak = _traced_peak(lambda: save_operator(
        lmat, tmp_path / "op.bin", tmp_path / "op.json"))
    assert peak <= 0.5 * 8 * lmat.dim ** 2
    back = load_operator(tmp_path / "op.bin", tmp_path / "op.json")
    assert back.entries.tobytes() == lmat.entries.tobytes()


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_assemble_k_names_a_non_finite_background_value(value, monkeypatch):
    def planted(epsilon, grid):
        bg = background_on_grid(epsilon, grid)
        bg["V"] = bg["V"].copy()
        bg["V"][3] = value
        return bg

    monkeypatch.setattr(operators, "background_on_grid", planted)
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="K has a non-finite entry"):
        assemble_K(1, 12, 0.05)


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
@pytest.mark.parametrize("k_max", [16, 24, 96])
def test_k_entries_take_out_l0_byte_for_byte(m, k_max):
    # split_blocks reads K as L with L0's cached pattern subtracted; that is
    # the entries minus those of the assembled L0, to the byte
    lmat = assemble_L(m, k_max, 0.05)
    want = lmat.entries - assemble_L0(m, k_max).entries
    assert k_entries(lmat).tobytes() == want.tobytes()


def test_l0_pattern_is_built_once_and_read_only():
    pattern = _l0_pattern(StateIndexMap(2, 16))
    assert _l0_pattern(StateIndexMap(2, 16)) is pattern
    for arr in pattern:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    rows, cols, values = pattern
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
    dense = np.zeros((StateIndexMap(2, 16).dim,) * 2)
    dense[rows, cols] = values
    assert np.array_equal(dense, assemble_L0(2, 16).entries)


def test_tail_monitor_trips_on_underresolution():
    with pytest.raises(ValueError):
        assemble_K(0, 24, 0.9)


def _tail_mass_reference(kmat, imap):
    # the monitor's number summed component by component
    probe = np.zeros((imap.dim, 2))
    for name in COMPONENTS:
        probe[imap.index(name, imap.k_lo(name)),
              int(name in STREAM_SLOTS)] = 1.0
    mass = np.sum((kmat @ probe) ** 2, axis=1)
    cut = imap.k_max - max(1, imap.k_max // 10)
    total = tail = 0.0
    for name in COMPONENTS:
        block = mass[imap.sl(name)]
        total += float(np.sum(block))
        tail += float(np.sum(block[imap.degrees(name) > cut]))
    return np.sqrt(tail / total)


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
@pytest.mark.parametrize("k_max", [8, 12, 24, 25])
def test_tail_mass_is_one_masked_reduction(m, k_max):
    # the flat degree mask reads the same decile as the component loop;
    # k_max 8 under-resolves eps 0.1 and 25 has a two-degree decile
    imap = StateIndexMap(m, k_max)
    table = legendre_values(k_max, m)
    for eps in (0.02, 0.1):
        kmat = _k_columns(np.eye(imap.dim),
                          background_on_grid(eps, table.grid), table, imap)
        got = _tail_mass_ratio(kmat, imap)
        want = _tail_mass_reference(kmat, imap)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-14 * want, (eps, got, want)
    assert _tail_mass_ratio(np.zeros((imap.dim,) * 2), imap) == 0.0


def test_tail_monitor_names_k_max_eps_and_the_mass():
    with pytest.raises(ValueError, match=re.escape(
            "truncation k_max = 8 under-resolves the eps = 0.1 background "
            "(tail mass ")) as info:
        assemble_K(1, 8, 0.1)
    assert re.search(r"tail mass \d\.\d\de-\d\d in the last degree "
                     r"decile\)$", str(info.value))


# 60 points over [-0.3, 0.3], the range `track` accepts, none at eps = 0
RULE_GRID = np.linspace(-0.3, 0.3, 60)


@pytest.mark.parametrize("m", [0, 1, -1, 2, -2])
def test_default_k_max_passes_the_tail_monitor_with_a_degree_to_spare(m):
    # the rule, and the rule less one degree, both resolve the background
    # at every point; the tightest point is m = 0 near |eps| = 0.28
    for eps in RULE_GRID:
        k_max = default_k_max(eps, m)
        for k in (k_max, k_max - 1):
            assemble_K(m, k, float(eps))


def test_operator_builds_its_index_map_once():
    lmat = assemble_L(1, 12, 0.1)
    imap = lmat.index_map
    assert lmat.index_map is imap
    assert imap == StateIndexMap(1, 12) and lmat.dim == imap.dim


def test_assembly_builds_one_index_map_besides_the_operators(
        index_map_builds):
    # assemble_K's map serves _k_columns and the tail monitor; L0's pattern
    # is read through the operator's own
    lmat = assemble_L(1, 12, 0.1)
    assert index_map_builds == [(1, 12)] * 2
    assemble_L0(1, 12)
    k_entries(lmat)
    assert index_map_builds == [(1, 12)] * 4


def test_assemble_l_is_sum():
    l0 = assemble_L0(1, 12)
    km = assemble_K(1, 12, 0.1)
    lm = assemble_L(1, 12, 0.1)
    assert np.array_equal(lm.entries, l0.entries + km.entries)
    assert np.array_equal(assemble_L(1, 12, 0.0).entries, l0.entries)


@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("k_max", [16, 24])
@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_k_image_fills_only_the_primed_and_radial_star_rows(m, k_max, eps):
    # the module docstring's image of K; perturbation.split_blocks takes
    # its norm and branch coordinates on the rows that are not zero
    kmat = assemble_K(m, k_max, eps)
    imap = kmat.index_map
    for name in ("phi", "psi", "radial"):
        assert not kmat.entries[imap.sl(name)].any(), name


def test_resolvent_norm_decay_up_the_line():
    l0 = assemble_L0(1, 12)
    norms = []
    for t in (5.0, 20.0, 80.0):
        a = (0.5 + 1j * t) * np.eye(l0.dim) - l0.entries
        norms.append(1.0 / np.min(np.linalg.svd(a, compute_uv=False)))
    assert norms[0] > norms[1] > norms[2]


def stream_signs(imap):
    """S = -1 on the stream slots, +1 elsewhere."""
    signs = np.ones(imap.dim)
    for name in STREAM_SLOTS:
        signs[imap.sl(name)] = -1.0
    return signs


def save_and_read(opmat, tmp_path):
    """Save an operator; returns the file paths and the raw matrix."""
    bin_path, side_path = tmp_path / "op.bin", tmp_path / "op.json"
    save_operator(opmat, bin_path, side_path)
    raw = np.fromfile(bin_path, dtype=np.float64)
    return bin_path, side_path, raw.reshape((opmat.dim, opmat.dim))


@pytest.mark.parametrize("change", [-16, 16, 8, 4],
                         ids=["short", "long", "8-byte-tail", "4-byte-tail"])
def test_load_operator_names_a_file_of_the_wrong_size(change, tmp_path):
    # the size is checked before reading: a partial trailing entry, which
    # fromfile would drop, is an error like a missing or an extra one
    lmat = assemble_L(1, 12, 0.05)
    bin_path, side_path, _ = save_and_read(lmat, tmp_path)
    data = bin_path.read_bytes()
    want = 8 * lmat.dim ** 2
    assert len(data) == want
    bin_path.write_bytes(data[:change] if change < 0
                         else data + bytes(change))
    with pytest.raises(ValueError, match=re.escape(
            f"holds {want + change} bytes, expected {want} (float64, "
            f"dim {lmat.dim})")):
        load_operator(bin_path, side_path)


@pytest.mark.parametrize("field, value, what", [
    ("k_max", 12.9, "an integer"), ("m", 1.5, "an integer"),
    ("m", True, "an integer"), ("epsilon", "0.05", "a number"),
    ("epsilon", float("nan"), "a number"),
    ("epsilon", 10 ** 400, "a number")],
    ids=["float-k_max", "float-m", "bool-m", "string-epsilon", "nan-epsilon",
         "beyond-float-epsilon"])
def test_load_operator_rejects_a_sidecar_value_of_the_wrong_type(
        field, value, what, tmp_path):
    # int() would truncate 12.9 to 12 and 1.5 or true to 1, and the file
    # of (1, 12) has that dim, so no later check would catch the value
    bin_path, side_path, _ = save_and_read(assemble_L(1, 12, 0.05), tmp_path)
    doc = json.loads(side_path.read_text())
    doc[field] = value
    side_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"file field {field!r} must be {what}, got {value!r}")):
        load_operator(bin_path, side_path)


@pytest.mark.parametrize("field", ["epsilon", "m", "k_max"])
def test_load_operator_names_a_missing_sidecar_field(field, tmp_path):
    bin_path, side_path, _ = save_and_read(assemble_L(1, 12, 0.05), tmp_path)
    doc = json.loads(side_path.read_text())
    del doc[field]
    side_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"file has no field {field!r}")):
        load_operator(bin_path, side_path)


@pytest.mark.parametrize("doc, kind", [
    ([1, 2], "list"), ("m", "str"), (None, "NoneType")])
def test_load_operator_rejects_a_sidecar_that_is_not_an_object(
        doc, kind, tmp_path):
    bin_path, side_path, _ = save_and_read(assemble_L(1, 12, 0.05), tmp_path)
    side_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"file document must be a JSON object, got a {kind}")):
        load_operator(bin_path, side_path)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_load_operator_names_a_non_finite_entry(value, tmp_path):
    lmat = assemble_L(1, 12, 0.05)
    imap = lmat.index_map
    bin_path, side_path, raw = save_and_read(lmat, tmp_path)
    # the first non-finite entry in the file's row-major order is named,
    # though the others sit in earlier columns
    first = imap.index("phi", 1), imap.index("radial", 4)
    raw[imap.index("phi", 2), imap.index("radial", 3)] = value
    raw[imap.index("radial_star", 5), imap.index("phi", 1)] = value
    raw[first] = value
    raw.tofile(bin_path)
    with pytest.raises(ValueError, match=r"operator file .*op\.bin.* has a "
                       rf"non-finite entry at row {first[0]}, column "
                       rf"{first[1]}$"):
        load_operator(bin_path, side_path)


def test_load_reads_the_file_into_the_operator(tmp_path):
    # the file is read into the array the operator returns, with no second
    # n x n float64 array; the peak counts that operator (8 n^2 bytes) and
    # the one-byte-per-entry finiteness mask
    lmat = assemble_L(1, 96, 0.05)
    bin_path, side_path = tmp_path / "op.bin", tmp_path / "op.json"
    save_operator(lmat, bin_path, side_path)
    load_operator(bin_path, side_path)  # build the probe's table
    back, peak = _traced_peak(lambda: load_operator(bin_path, side_path))
    assert back.entries.tobytes() == lmat.entries.tobytes()
    assert back.entries.flags.c_contiguous and back.entries.flags.writeable
    assert peak <= 1.5 * 8 * lmat.dim ** 2


@pytest.mark.parametrize("m", [0, 1, 2])
def test_real_form_reflects_exactly_between_modes(m):
    # the entries of L(-m) are those of L(m) conjugated by S, bit for bit,
    # so the spectrum at -m is the spectrum at m
    for k_max, eps in ((16, 0.1), (24, 0.05), (32, 0.3)):
        plus = assemble_L(m, k_max, eps).entries
        minus = assemble_L(-m, k_max, eps).entries
        signs = stream_signs(StateIndexMap(m, k_max))
        assert np.array_equal(minus, signs[:, None] * plus * signs[None, :])


@pytest.mark.parametrize("m", [-1, 0, 1, 2])
def test_real_form_spectrum_matches_the_complex_one(m, complex_basis):
    for k_max, eps in ((16, 0.05), (24, 0.1)):
        lmat = assemble_L(m, k_max, eps)
        real = np.linalg.eigvals(lmat.entries)
        cplx = np.linalg.eigvals(complex_basis(lmat))
        cost = np.abs(real[:, None] - cplx[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10, (k_max, eps)


@pytest.mark.parametrize("build", [
    lambda: assemble_L0(2, 12),
    lambda: assemble_K(-1, 16, 0.05),
    lambda: assemble_L(0, 24, 0.1),
], ids=["L0", "K", "L"])
def test_assembled_entries_are_contiguous_float64(build):
    entries = build().entries
    assert entries.dtype == np.float64
    assert entries.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.complex128, np.float32, np.int64])
def test_operator_entries_must_be_float64(dtype):
    # the assemblers and the operator file give the real form only;
    # complex entries are an error, not a cast
    entries = np.eye(StateIndexMap(1, 8).dim, dtype=dtype)
    with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)}, "
                       f"expected the float64"):
        OperatorMatrix(1, 8, 0.0, entries)


@pytest.mark.parametrize("shape", [(4, 4), (48, 47), (48,)])
def test_operator_entries_must_have_the_indexed_shape(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"shape {shape}, but (m, k_max) = (1, 8) indexes (48, 48)")):
        OperatorMatrix(1, 8, 0.0, np.zeros(shape))


@pytest.mark.parametrize("m, k_max, eps", [
    (0, 8, 0.0), (1, 12, 0.05), (-2, 16, 0.1), (2, 24, 0.3)])
def test_operator_file_holds_the_entries_as_they_are(m, k_max, eps,
                                                     tmp_path,
                                                     complex_basis):
    # the file is the float64 D^-1 L D, row-major, byte for byte; its
    # sidecar names the slots that D multiplies by i.  A file in the
    # complex basis, column-major under a complex128 sidecar, is refused
    # by its dtype
    lmat = assemble_L(m, k_max, eps)
    bin_path, side_path, _ = save_and_read(lmat, tmp_path)
    assert bin_path.read_bytes() == lmat.entries.tobytes()
    doc = json.loads(side_path.read_text())
    assert (doc["dtype"], doc["order"]) == ("float64", "row-major")
    assert doc["stream_slots"] == list(STREAM_SLOTS)
    complex_basis(lmat).ravel(order="F").tofile(bin_path)
    doc.update(dtype="complex128", order="column-major")
    del doc["stream_slots"]
    side_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            "sidecar field 'dtype' is 'complex128', expected 'float64'")):
        load_operator(bin_path, side_path)


def test_operator_export_bit_exact(tmp_path):
    lmat = assemble_L(2, 12, 0.07)
    bin_path = tmp_path / "l.bin"
    side_path = tmp_path / "l.json"
    save_operator(lmat, bin_path, side_path)
    back = load_operator(bin_path, side_path)
    assert back.entries.tobytes() == lmat.entries.tobytes()
    assert back.m == 2 and back.k_max == 12 and back.epsilon == 0.07
    assert back.index_map.describe() == lmat.index_map.describe()


@pytest.mark.parametrize("build, epsilon", [
    (lambda: assemble_L(1, 12, 0.05), 0.3),
    (lambda: assemble_L(1, 12, 0.05), 0.0505),
    (lambda: assemble_L(-2, 24, 0.05), -0.05),
    (lambda: assemble_L(1, 96, 0.05), 0.3),
    (lambda: assemble_L0(0, 12), 0.05),
    (lambda: assemble_L(0, 12, 0.05), 0.0),
], ids=["0.3-for-0.05", "1%-off", "sign", "k_max-96", "L0-as-0.05",
        "0.05-as-L0"])
def test_load_operator_checks_the_sidecar_epsilon(build, epsilon, tmp_path):
    # every eps gives the same dim, so only the entries can tell a wrong
    # sidecar epsilon: K's pipeline on the probe at that eps must match the
    # entries less L0 on the probe
    opmat = build()
    bin_path, side_path, _ = save_and_read(opmat, tmp_path)
    doc = json.loads(side_path.read_text())
    doc["epsilon"] = epsilon
    side_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"does not hold L at the sidecar's epsilon {epsilon!r}: its K on "
            f"the probe is ")) as info:
        load_operator(bin_path, side_path)
    # the message names the gap and the bound it broke
    gap, bound = (float(x) for x in re.findall(
        r"is (\S+) from K at that epsilon, above (\S+) \(1e-12 max\|L\|\)",
        str(info.value))[0])
    assert gap > bound
    assert bound == pytest.approx(
        1e-12 * np.abs(opmat.entries).max(), rel=1e-3)


def test_only_l_is_saved_or_loaded(tmp_path):
    # K alone is not L at any eps: save_operator refuses it before making
    # a file, and K's entries under L's sidecar do not load
    kmat = assemble_K(2, 12, 0.07)
    with pytest.raises(ValueError, match=re.escape(
            "the operator to save does not hold L at its epsilon 0.07: its "
            "K on the probe is ")):
        save_operator(kmat, tmp_path / "k.bin", tmp_path / "k.json")
    assert list(tmp_path.iterdir()) == []
    bin_path, side_path, _ = save_and_read(assemble_L(2, 12, 0.07), tmp_path)
    kmat.entries.tofile(bin_path)
    with pytest.raises(ValueError, match=re.escape(
            "does not hold L at the sidecar's epsilon 0.07: ")):
        load_operator(bin_path, side_path)


@pytest.mark.parametrize("field, value", [
    ("m", 1), ("dtype", "complex64"), ("order", "column-major"),
    ("stream_slots", ["psi"]),
    ("index_map", {**StateIndexMap(2, 12).describe(), "radial": [3, 13]})],
    ids=["m-1", "dtype-complex64", "order-column-major", "stream_slots-psi",
         "index_map-shifted"])
def test_load_operator_checks_sidecar(tmp_path, field, value):
    # a sidecar saying m = 1 over the m = 2 binary implies dim 66, not 72;
    # a shifted slot range leaves m, k_max and dim as they are
    bin_path = tmp_path / "l0.bin"
    side_path = tmp_path / "l0.json"
    save_operator(assemble_L0(2, 12), bin_path, side_path)
    doc = json.loads(side_path.read_text())
    doc[field] = value
    side_path.write_text(json.dumps(doc))
    name = "dim" if field == "m" else field
    with pytest.raises(ValueError, match=f"sidecar field '{name}'"):
        load_operator(bin_path, side_path)
