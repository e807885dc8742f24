import numpy as np
import pytest

from landauspec.sphbasis import zero_field
from landauspec.statespace import (
    COMPONENTS,
    StateIndexMap,
    StateVector,
    state_from_flat,
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


def test_a_state_builds_its_index_map_once(index_map_builds):
    st = zero_state(-1, 9)
    assert index_map_builds == [(-1, 9)]
    assert st.index_map is st.index_map
    x_norm(state_from_flat(-1, 9, st.to_flat() + 1.0))
    x_inner(st, st)
    # one map for the state from the flat vector
    assert index_map_builds == [(-1, 9)] * 2
