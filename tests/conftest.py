import functools

import pytest

from landauspec.operators import assemble_L, stream_scale
from landauspec.statespace import StateIndexMap


@pytest.fixture(scope="session")
def cached_l():
    """Memoized operator assembly shared across the session.

    Sweeps and acceptance checks revisit the same (m, k_max, eps) triples.
    The returned matrices are read-only, so a caller that writes into a
    shared operator fails loudly instead of corrupting later tests.
    """
    @functools.lru_cache(maxsize=None)
    def assemble(m, k_max, epsilon):
        lmat = assemble_L(m, k_max, epsilon)
        lmat.entries.setflags(write=False)
        return lmat

    return assemble


@pytest.fixture(scope="session")
def complex_basis():
    """The matrix of an operator in the complex basis of the states,
    D A D^-1 for its stream-scaled entries A: the reference that tests
    compare the real form against."""
    def matrix(opmat):
        scale = stream_scale(opmat.index_map)
        return opmat.entries * scale[:, None] * scale.conj()

    return matrix


@pytest.fixture
def index_map_builds(monkeypatch):
    """A list that grows by one (m, k_max) with every StateIndexMap built."""
    builds = []
    build = StateIndexMap.__post_init__

    def counted(self):
        builds.append((self.m, self.k_max))
        build(self)

    monkeypatch.setattr(StateIndexMap, "__post_init__", counted)
    return builds
