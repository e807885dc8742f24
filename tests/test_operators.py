import json

import numpy as np
import pytest

from landauspec.operators import (
    OperatorMatrix,
    apply_K,
    assemble_K,
    assemble_L,
    assemble_L0,
    load_operator,
    save_operator,
)
from landauspec.sphbasis import (
    QuadratureGrid,
    default_node_count,
    laplacian,
    legendre_values,
    norm_constant,
)
from landauspec.statespace import (
    COMPONENTS,
    StateIndexMap,
    state_from_flat,
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
    rng = np.random.default_rng(17)
    for m in (0, 1, -2):
        k_max, eps = 16, 0.15
        grid = QuadratureGrid.build(default_node_count(k_max))
        table = legendre_values(k_max, m, grid)
        kmat = assemble_K(m, k_max, eps, grid=grid)
        dim = StateIndexMap(m, k_max).dim
        st = state_from_flat(m, k_max,
                             rng.normal(size=dim) + 1j * rng.normal(size=dim))
        direct = apply_K(st, eps, table)
        via_matrix = kmat.entries @ st.to_flat()
        scale = 1.0 + np.max(np.abs(via_matrix))
        assert np.max(np.abs(direct.to_flat() - via_matrix)) <= 1e-10 * scale


def test_k_conjugation_between_modes():
    for m in (1, 2):
        kp = assemble_K(m, 16, 0.2)
        km = assemble_K(-m, 16, 0.2)
        scale = 1.0 + np.max(np.abs(kp.entries))
        assert np.max(np.abs(km.entries - np.conj(kp.entries))) <= 1e-13 * scale


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


def test_tail_monitor_trips_on_underresolution():
    with pytest.raises(ValueError):
        assemble_K(0, 24, 0.9)


def test_k_rejects_sparse_grid():
    grid = QuadratureGrid.build(20)
    with pytest.raises(ValueError):
        assemble_K(1, 16, 0.1, grid=grid)


def test_assemble_l_is_sum():
    grid = QuadratureGrid.build(default_node_count(12))
    l0 = assemble_L0(1, 12)
    km = assemble_K(1, 12, 0.1, grid=grid)
    lm = assemble_L(1, 12, 0.1, grid=grid)
    assert np.array_equal(lm.entries, l0.entries + km.entries)
    assert np.array_equal(assemble_L(1, 12, 0.0).entries, l0.entries)


def test_resolvent_norm_decay_up_the_line():
    l0 = assemble_L0(1, 12)
    norms = []
    for t in (5.0, 20.0, 80.0):
        a = (0.5 + 1j * t) * np.eye(l0.dim) - l0.entries
        norms.append(1.0 / np.min(np.linalg.svd(a, compute_uv=False)))
    assert norms[0] > norms[1] > norms[2]


def test_operator_export_bit_exact(tmp_path):
    kmat = assemble_K(2, 12, 0.07)
    bin_path = tmp_path / "k.bin"
    side_path = tmp_path / "k.json"
    save_operator(kmat, bin_path, side_path)
    back = load_operator(bin_path, side_path)
    assert np.array_equal(back.entries, kmat.entries)
    assert back.m == 2 and back.k_max == 12 and back.epsilon == 0.07
    assert back.index_map.describe() == kmat.index_map.describe()


@pytest.mark.parametrize("field, value", [
    ("m", 1), ("dtype", "complex64"), ("order", "row-major")])
def test_load_operator_checks_sidecar(tmp_path, field, value):
    # a sidecar saying m = 1 over the m = 2 binary implies dim 66, not 72
    bin_path = tmp_path / "l0.bin"
    side_path = tmp_path / "l0.json"
    save_operator(assemble_L0(2, 12), bin_path, side_path)
    doc = json.loads(side_path.read_text())
    doc[field] = value
    side_path.write_text(json.dumps(doc))
    name = "dim" if field == "m" else field
    with pytest.raises(ValueError, match=f"sidecar field '{name}'"):
        load_operator(bin_path, side_path)
