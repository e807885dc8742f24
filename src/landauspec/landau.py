"""Closed-form evaluation of the Landau solution family.

The family is parametrized by a scalar eps in (-1, 1) (axis fixed along e3).
On the unit sphere the velocity field is V(theta) e_theta + F(theta) e_r with

    V(theta) = -2 eps sin(theta) / (1 - eps cos(theta))
    F(theta) = 2 [ (1 - eps^2) / (1 - eps cos(theta))^2 - 1 ]

and the pressure trace at r = 1 is p(theta) = 4 eps (cos(theta) - eps) /
(1 - eps cos(theta))^2, the closed forms every other module reads from
here.  The force magnitude |b| carried by the solution is the monotone map

    f(eps) = 16 pi [ 1/eps + log((1-eps)/(1+eps)) / (2 eps^2)
                     + 4 eps / (3 (1 - eps^2)) ].

All derivatives here are analytic, never finite-differenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

# f(eps)/(16 pi) = eps + 17/15 eps^3 + 25/21 eps^5 + 11/9 eps^7 + 41/33 eps^9 + ...
# (Maclaurin coefficients of the closed form; the generic term is
# 4/3 - 1/(2j+1) on eps^(2j-1)).  Five terms keep the series branch below
# 1e-25 relative error at its eps = 1e-3 switch point.
_FORCE_SERIES = (1.0, 17.0 / 15.0, 25.0 / 21.0, 11.0 / 9.0, 41.0 / 33.0)

# Construction bound: the formulas degenerate as |eps| -> 1; values beyond
# 0.999 are rejected outright.  The tighter validated ranges are enforced
# where they apply: |eps| <= 0.3 for `eigentracker.sweep_grid` and the
# default truncation of `zero_mode_check`, and eps in (0, 0.5] for
# `translation_eigenvector`.
EPS_LIMIT = 0.999


@dataclass(frozen=True)
class LandauProfile:
    """One member of the Landau family, pinned by its parameter eps."""

    epsilon: float

    def __post_init__(self):
        e = self.epsilon
        if not math.isfinite(e) or abs(e) > EPS_LIMIT:
            raise ValueError(
                f"epsilon must satisfy |eps| <= {EPS_LIMIT}, got {e!r}"
            )


def eval_profiles(profile, theta):
    """Evaluate V, F, p, their theta-derivatives and V / sin(theta).

    theta may be a scalar or an array in [0, pi].  Returns a dict with keys
    V, F, dV_dtheta, dF_dtheta, p, dp_dtheta and V_over_sin, the last one
    free of the removable pole (arrays broadcast like theta).
    """
    eps = profile.epsilon
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > np.pi + 1e-12):
        raise ValueError("theta must lie in [0, pi]")
    c = np.cos(theta)
    s = np.sin(theta)
    d = 1.0 - eps * c
    V = -2.0 * eps * s / d
    F = 2.0 * ((1.0 - eps * eps) / d**2 - 1.0)
    dV = -2.0 * eps * (c - eps) / d**2
    dF = -4.0 * eps * (1.0 - eps * eps) * s / d**3
    p = 4.0 * eps * (c - eps) / d**2
    dp = -4.0 * eps * s * (d + 2.0 * eps * (c - eps)) / d**3
    return {"V": V, "F": F, "dV_dtheta": dV, "dF_dtheta": dF, "p": p,
            "dp_dtheta": dp, "V_over_sin": -2.0 * eps / d}


def background_on_grid(epsilon, grid):
    """Profile arrays used by K: V, F, their derivatives, and V cot(theta)
    evaluated without the pole-singular quotient."""
    prof = eval_profiles(LandauProfile(epsilon), grid.theta)
    v_cot = -2.0 * epsilon * grid.x / (1.0 - epsilon * grid.x)
    return {"V": prof["V"], "F": prof["F"], "dV": prof["dV_dtheta"],
            "dF": prof["dF_dtheta"], "V_cot": v_cot}


def eval_profile_derivative(profile, theta):
    """Partial derivatives of (V, F, p) with respect to eps at fixed theta.

    Used by the zero-mode construction, where the eps-derivative of the
    family is itself a velocity field of interest.
    """
    eps = profile.epsilon
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    s = np.sin(theta)
    d = 1.0 - eps * c
    dV_deps = -2.0 * s / d**2
    dF_deps = -4.0 * eps / d**2 + 4.0 * c * (1.0 - eps * eps) / d**3
    dp_deps = (4.0 * (c - eps) * d - 4.0 * eps * d + 8.0 * eps * c * (c - eps)) / d**3
    return {"dV_deps": dV_deps, "dF_deps": dF_deps, "dp_deps": dp_deps}


def force_magnitude(epsilon):
    """The force magnitude |b| = f(eps), eps in (0, 1).

    The closed form loses ~eps^-2 digits to cancellation as eps -> 0, so a
    Maclaurin branch takes over below eps = 1e-3.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if epsilon < 1e-3:
        e2 = epsilon * epsilon
        acc = 0.0
        for coef in reversed(_FORCE_SERIES):
            acc = acc * e2 + coef
        return 16.0 * math.pi * epsilon * acc
    return 16.0 * math.pi * (
        1.0 / epsilon
        + math.log((1.0 - epsilon) / (1.0 + epsilon)) / (2.0 * epsilon * epsilon)
        + 4.0 * epsilon / (3.0 * (1.0 - epsilon * epsilon))
    )


def epsilon_from_force(b_mag):
    """Invert the monotone force map: eps with f(eps) = b_mag.

    Accurate to |f(eps) - b_mag| <= 1e-12 (1 + b_mag).
    """
    if not (b_mag > 0.0):
        raise ValueError(f"force magnitude must be positive, got {b_mag!r}")
    lo, hi = 1e-300, 1.0 - 1e-14
    # Shrink the bracket first: f is increasing with f(eps) ~ 16 pi eps.
    guess = min(b_mag / (16.0 * math.pi), 0.5)
    if force_magnitude(max(guess, lo)) < b_mag:
        lo = max(guess, lo)
    else:
        hi = guess
    eps = brentq(lambda e: force_magnitude(e) - b_mag, lo, hi,
                 xtol=1e-16, rtol=8.9e-16, maxiter=200)
    return float(eps)
