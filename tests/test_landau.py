import math

import numpy as np
import pytest

from landauspec.landau import (
    LandauProfile,
    epsilon_from_force,
    eval_profile_derivative,
    eval_profiles,
    force_magnitude,
)

# Frozen oracle values: extended-precision (50-digit mpmath) evaluation of the
# closed forms at (eps, theta) = (0.1, 0.3).
ORACLE_01_03 = {
    "V": -0.065346865874233086207,
    "F": 0.42036219839725554395,
    "dV_dtheta": -0.2091135459787315198,
    "dF_dtheta": -0.15816308394572938885,
    "p": 0.4182270919574630396,
    "dp_dtheta": -0.17182799878728683101,
    "V_over_sin": -0.22112486524185240241,
}
ORACLE_FORCE_001 = 0.50271179810575243826
ORACLE_FORCE_03 = 16.77796758511674116


def test_construction_rejects_out_of_range():
    for bad in (1.0, -1.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LandauProfile(bad)
    LandauProfile(0.999)
    LandauProfile(-0.999)


def test_zero_solution():
    vals = eval_profiles(LandauProfile(0.0), np.linspace(0, np.pi, 7))
    for key in ("V", "F", "p"):
        assert np.all(vals[key] == 0.0)


def test_direct_substitution_half():
    vals = eval_profiles(LandauProfile(0.5), math.pi / 2)
    assert vals["V"] == pytest.approx(-1.0, abs=1e-15)
    assert vals["F"] == pytest.approx(-0.5, abs=1e-15)


def test_oracle_point():
    vals = eval_profiles(LandauProfile(0.1), 0.3)
    for key, want in ORACLE_01_03.items():
        assert vals[key] == pytest.approx(want, rel=1e-14), key


def test_pressure_is_minus_two_dV():
    # p = -2 dV/dtheta holds identically on the unit sphere.
    theta = np.linspace(0.0, np.pi, 101)
    vals = eval_profiles(LandauProfile(0.45), theta)
    assert np.allclose(vals["p"], -2.0 * vals["dV_dtheta"], atol=1e-14)


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_divergence_identity(eps):
    # dV/dtheta + V cot(theta) + F = 0, away from the poles where cot blows up.
    j = np.arange(1, 1001)
    theta = 0.5 * np.pi * (1.0 + np.cos((2 * j - 1) * np.pi / 2000.0))
    theta = theta[(theta > 1e-3) & (theta < np.pi - 1e-3)]
    vals = eval_profiles(LandauProfile(eps), theta)
    resid = vals["dV_dtheta"] + vals["V"] / np.tan(theta) + vals["F"]
    assert np.max(np.abs(resid)) <= 1e-12


@pytest.mark.parametrize("eps", [0.2, 0.7])
def test_t_symmetry(eps):
    theta = np.linspace(0.0, np.pi, 37)
    plus = eval_profiles(LandauProfile(eps), theta)
    minus = eval_profiles(LandauProfile(-eps), theta)
    assert np.allclose(minus["V"], -plus["V"][::-1], atol=1e-14)
    assert np.allclose(minus["F"], plus["F"][::-1], atol=1e-14)


def test_profile_derivative_matches_central_difference():
    theta = np.linspace(0.1, np.pi - 0.1, 29)
    eps, h = 0.35, 1e-6
    got = eval_profile_derivative(LandauProfile(eps), theta)
    hi = eval_profiles(LandauProfile(eps + h), theta)
    lo = eval_profiles(LandauProfile(eps - h), theta)
    for key, name in (("dV_deps", "V"), ("dF_deps", "F"), ("dp_deps", "p")):
        fd = (hi[name] - lo[name]) / (2.0 * h)
        assert np.allclose(got[key], fd, atol=1e-7), key


def test_force_magnitude_oracle():
    # At eps = 0.01 the closed form cancels ~1e4 of leading digits, so double
    # precision caps the achievable relative accuracy near 1e-11.
    assert force_magnitude(0.01) == pytest.approx(ORACLE_FORCE_001, rel=5e-11)
    assert force_magnitude(0.3) == pytest.approx(ORACLE_FORCE_03, rel=1e-14)


def test_force_magnitude_leading_term():
    eps = 1e-4
    assert force_magnitude(eps) / eps == pytest.approx(16.0 * math.pi, rel=1e-6)


def test_force_magnitude_monotone():
    assert force_magnitude(0.2) < force_magnitude(0.4) < force_magnitude(0.8)


def test_force_magnitude_domain():
    for bad in (0.0, -0.1, 1.0, 1.2):
        with pytest.raises(ValueError):
            force_magnitude(bad)


def test_force_series_branch_continuity():
    # The series branch and the closed form must agree across the switch up to
    # the closed form's own cancellation floor (~1e6 ulps at eps = 1e-3).
    below, above = 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9)
    assert force_magnitude(below) == pytest.approx(force_magnitude(above), rel=2e-8)


def test_epsilon_from_force_roundtrip():
    for eps in (0.3, 0.05, 0.9, 1e-5):
        b = force_magnitude(eps)
        back = epsilon_from_force(b)
        assert abs(force_magnitude(back) - b) <= 1e-12 * (1.0 + b)
        assert back == pytest.approx(eps, rel=1e-10)


def test_epsilon_from_force_small():
    b = 16.0 * math.pi * 0.05
    eps = epsilon_from_force(b)
    assert eps == pytest.approx(0.05, rel=0.05 ** 2 * 2.0)


def test_epsilon_from_force_monotone_to_zero():
    vals = [epsilon_from_force(b) for b in (1e-1, 1e-3, 1e-6)]
    assert vals[0] > vals[1] > vals[2] > 0.0
