import re

import numpy as np
import pytest

from landauspec.sphbasis import ModalField, zero_field
from landauspec.statespace import (
    COMPONENTS,
    StateIndexMap,
    StateVector,
    load_state_json,
    pressure_of,
    save_state_json,
    state_from_flat,
    state_from_json_dict,
    state_to_json_dict,
    x_inner,
    x_norm,
    x_weights,
    zero_state,
)


@pytest.mark.parametrize("m,expected", [(0, 6 * 10 + 1), (1, 6 * 10),
                                        (-1, 6 * 10), (2, 6 * 9), (-2, 6 * 9)])
def test_index_map_dimension(m, expected):
    imap = StateIndexMap(m, 10)
    assert imap.dim == expected
    assert imap.dim == sum(imap.count(name) for name in COMPONENTS)
    assert imap.sl(COMPONENTS[-1]).stop == expected


def test_index_map_bijective():
    imap = StateIndexMap(0, 6)
    seen = set()
    for name in COMPONENTS:
        for k in imap.degrees(name):
            idx = imap.index(name, int(k))
            assert 0 <= idx < imap.dim
            seen.add(idx)
    assert len(seen) == imap.dim


def test_index_map_excluded_slots():
    imap = StateIndexMap(0, 6)
    with pytest.raises(ValueError):
        imap.index("phi", 0)
    with pytest.raises(ValueError):
        imap.index("radial", 0)
    assert imap.index("radial_star", 0) >= 0
    imap1 = StateIndexMap(1, 6)
    with pytest.raises(ValueError):
        imap1.index("radial_star", 0)


@pytest.mark.parametrize("m", [0, 1, -2])
def test_index_map_takes_degree_arrays(m):
    imap = StateIndexMap(m, 6)
    for name in COMPONENTS:
        ks = imap.degrees(name)
        assert imap.index(name, ks).tolist() == [imap.index(name, int(k))
                                                 for k in ks]
        for bad in (np.append(ks, 7), np.insert(ks, 0, imap.k_lo(name) - 1),
                    imap.k_lo(name) - 1, 7):
            with pytest.raises(ValueError, match="not admissible"):
                imap.index(name, bad)


def test_flat_roundtrip():
    rng = np.random.default_rng(2)
    for m in (0, 1, -2):
        imap = StateIndexMap(m, 8)
        vec = rng.normal(size=imap.dim) + 1j * rng.normal(size=imap.dim)
        st = state_from_flat(m, 8, vec)
        assert np.allclose(st.to_flat(), vec)


def test_construction_rejects_mean_radial_at_m0():
    st = zero_state(0, 5)
    bad = st.components()["radial"].copy()
    bad.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        StateVector(0, st.phi, st.psi, st.phi_prime, st.psi_prime,
                    bad, st.radial_star)


def test_construction_rejects_mismatched_mode():
    with pytest.raises(ValueError):
        StateVector(0, zero_field(0, 5), zero_field(1, 5), zero_field(0, 5),
                    zero_field(0, 5), zero_field(0, 5), zero_field(0, 5))


def test_pressure_branch_example():
    # radial = c at k=2, radial_star = -3c gives q = 2c at k=2.
    st = zero_state(1, 6)
    st.radial.coeffs[1] = 1.0
    st.radial_star.coeffs[1] = -3.0
    q = pressure_of(st)
    want = np.zeros(6, dtype=complex)
    want[1] = 2.0
    assert np.allclose(q.coeffs, want)


def test_pressure_zero_state():
    assert np.all(pressure_of(zero_state(0, 4)).coeffs == 0.0)


def test_pressure_linear():
    rng = np.random.default_rng(4)
    a = state_from_flat(1, 7, rng.normal(size=StateIndexMap(1, 7).dim) * 1j)
    b = state_from_flat(1, 7, rng.normal(size=StateIndexMap(1, 7).dim))
    lin = state_from_flat(1, 7, 2.0 * a.to_flat() + 3.0 * b.to_flat())
    assert np.allclose(pressure_of(lin).coeffs,
                       2.0 * pressure_of(a).coeffs + 3.0 * pressure_of(b).coeffs)


def test_x_inner_stream_eigenvector_norm():
    # psi with unit coefficient at k=1 and psi' = -psi:
    # (1*2)^3 + (1*2)^2 = 12.
    st = zero_state(1, 4)
    st.psi.coeffs[0] = 1.0
    st.psi_prime.coeffs[0] = -1.0
    assert x_inner(st, st) == pytest.approx(12.0)
    assert x_norm(st) == pytest.approx(np.sqrt(12.0))


def test_x_inner_positive_and_disjoint():
    a = zero_state(1, 6)
    a.phi.coeffs[2] = 1.0 + 2j
    b = zero_state(1, 6)
    b.phi.coeffs[4] = 0.5
    assert x_inner(a, a).real > 0.0
    assert x_inner(a, b) == 0.0


def test_x_inner_conjugate_symmetric():
    rng = np.random.default_rng(8)
    dim = StateIndexMap(2, 7).dim
    a = state_from_flat(2, 7, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    b = state_from_flat(2, 7, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    assert x_inner(a, b) == pytest.approx(np.conj(x_inner(b, a)))
    # parallelogram law
    apb = state_from_flat(2, 7, a.to_flat() + b.to_flat())
    amb = state_from_flat(2, 7, a.to_flat() - b.to_flat())
    lhs = x_inner(apb, apb).real + x_inner(amb, amb).real
    rhs = 2 * (x_inner(a, a).real + x_inner(b, b).real)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_x_weights_k0_slot():
    imap = StateIndexMap(0, 3)
    w = x_weights(imap)
    assert w[imap.index("radial_star", 0)] == 1.0
    assert w[imap.index("radial_star", 2)] == 6.0
    assert w[imap.index("psi", 2)] == 6.0**3


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    dim = StateIndexMap(-1, 6).dim
    st = state_from_flat(-1, 6, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    doc = state_to_json_dict(st)
    back = state_from_json_dict(doc)
    for name in COMPONENTS:
        assert np.array_equal(back.components()[name].coeffs,
                              st.components()[name].coeffs)
    path = tmp_path / "state.json"
    save_state_json(st, path)
    loaded = load_state_json(path)
    assert np.array_equal(loaded.to_flat(), st.to_flat())


def test_json_state_rejects_a_non_integer_k_max():
    # int() would read 6.7 as 6, which matches the component lengths
    doc = state_to_json_dict(zero_state(1, 6))
    doc["k_max"] = 6.7
    with pytest.raises(ValueError, match=re.escape(
            "file field 'k_max' must be an integer, got 6.7")):
        state_from_json_dict(doc)


def test_a_state_builds_its_index_map_once(index_map_builds):
    st = zero_state(-1, 9)
    assert index_map_builds == [(-1, 9)]
    assert st.index_map is st.index_map
    x_norm(state_from_flat(-1, 9, st.to_flat() + 1.0))
    x_inner(st, st.copy())
    # one map for the state from the flat vector, one for the copy
    assert index_map_builds == [(-1, 9)] * 3
