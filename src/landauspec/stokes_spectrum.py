"""Exact eigenstructure of the zero-background linearization.

The operator assembled by ``operators.assemble_L0`` never couples harmonic
degrees, and on each degree-k block its spectrum is six integers falling
into two families:

* the stream pair, carried by (psi, psi') alone, with eigenvalues
  k and -(k+1) and coefficient vectors (1, -k) and (1, k+1);
* the gradient quartet, carried by (phi, phi', radial, radial_star),
  with eigenvalues k+1, k-1, -k and -k-2 and coefficient vectors that
  are rational functions of k.

Everything here is kept in exact rational arithmetic.  The same vectors,
rescaled, form the six-member frame used to expand an arbitrary block and
hence to build spectral projections of the unperturbed operator; the 4x4
change-of-basis on the gradient slots has determinant -(2k+1)^2, which is
what makes the expansion well posed at every degree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .statespace import StateIndexMap, zero_state

GRADIENT_SLOTS = ("phi", "phi_prime", "radial", "radial_star")
STREAM_SLOTS = ("psi", "psi_prime")


def stream_eigenvalues(k):
    return (k, -(k + 1))


def gradient_eigenvalues(k):
    return (k + 1, k - 1, -k, -k - 2)


@dataclass(frozen=True)
class BranchVector:
    """One exact eigenvector of a degree-k block.

    ``coeffs`` holds (phi, phi', radial, radial_star, q) for the gradient
    family and (psi, psi') for the stream family, as Fractions.  q is the
    pressure trace implied by the other four entries; it is stored for
    cross-checking, not synthesized into the state.
    """

    k: int
    m: int
    lam: int
    family: str
    coeffs: tuple

    def to_state(self, k_max):
        st = zero_state(self.m, k_max)
        idx = self.k - abs(self.m)
        if self.family == "stream":
            st.psi.coeffs[idx] = complex(self.coeffs[0])
            st.psi_prime.coeffs[idx] = complex(self.coeffs[1])
        else:
            for name, val in zip(GRADIENT_SLOTS, self.coeffs):
                getattr(st, name).coeffs[idx] = complex(val)
        return st


def _branch_coeffs(k, lam):
    """Family and exact coefficient tuple of the degree-k branch at lam."""
    if lam == k:
        return "stream", (Fraction(1), Fraction(-k))
    if lam == -(k + 1):
        return "stream", (Fraction(1), Fraction(k + 1))
    kk = Fraction(k * (k + 1))
    if lam == k + 1:
        coeffs = (Fraction(-1, k + 1), Fraction(1), Fraction(1),
                  Fraction(-(k + 1)), Fraction(0))
    elif lam == k - 1:
        coeffs = (Fraction(-(k - 2)) / kk,
                  Fraction((k - 1) * (k - 2)) / kk,
                  Fraction(1),
                  Fraction(-(k * k + 4 * k - 3), k + 1),
                  Fraction(4 * k - 2, k + 1))
    elif lam == -k:
        coeffs = (Fraction(1, k), Fraction(1), Fraction(1), Fraction(k),
                  Fraction(0))
    elif lam == -k - 2:
        coeffs = (Fraction(k + 3) / kk,
                  Fraction((k + 2) * (k + 3)) / kk,
                  Fraction(1),
                  Fraction(k * k - 2 * k - 6, k),
                  Fraction(4 * k + 6, k))
    else:
        valid = stream_eigenvalues(k) + gradient_eigenvalues(k)
        raise ValueError(
            f"lambda = {lam} is not a branch eigenvalue at degree {k}; "
            f"the block spectrum is {sorted(valid)}"
        )
    return "gradient", coeffs


def branch_vector(k, m, lam):
    k, m, lam = int(k), int(m), int(lam)
    if k < max(abs(m), 1):
        raise ValueError(
            f"degree k = {k} has no branch block at mode m = {m}; "
            f"need k >= {max(abs(m), 1)}"
        )
    return BranchVector(k, m, lam, *_branch_coeffs(k, lam))


class BranchFrame(NamedTuple):
    """Exact eigenvector frame of one family on a degree-k block: column j
    of ``rows`` (indexed like ``slots``) is the branch at ``lams[j]``, and
    ``inv`` is the exact inverse of ``rows``."""

    family: str
    slots: tuple
    lams: tuple
    rows: tuple
    inv: tuple


_FAMILIES = (("stream", STREAM_SLOTS, stream_eigenvalues),
             ("gradient", GRADIENT_SLOTS, gradient_eigenvalues))


@functools.lru_cache(maxsize=None)
def branch_frame(k):
    """The stream and gradient BranchFrames of degree k >= 1.

    Branch coefficients do not depend on the mode m, so one cached frame
    serves every m.  A cache miss goes through private names only, so a
    call tracer sees the same public calls whether or not the frame was
    already cached."""
    k = int(k)
    if k < 1:
        raise ValueError(f"the branch frame needs k >= 1, got {k}")
    frames = []
    for family, slots, eigenvalues in _FAMILIES:
        lams = eigenvalues(k)
        cols = [_branch_coeffs(k, lam)[1] for lam in lams]
        rows = tuple(tuple(col[i] for col in cols) for i in range(len(slots)))
        inv = tuple(tuple(r) for r in _exact_inv(rows))
        frames.append(BranchFrame(family, slots, lams, rows, inv))
    return tuple(frames)


@dataclass(frozen=True)
class McalMatrix:
    """The 4x4 gradient-family frame matrix at degree k, rows ordered by
    eigenvalue (k-1, k+1, -k-2, -k), columns (d*xi, d*xi', radial,
    radial_star)."""

    k: int
    rows: tuple

    def determinant(self):
        return _exact_det(self.rows)


def mcal(k):
    k = int(k)
    if k < 0:
        raise ValueError(f"degree k = {k} must be a non-negative integer")
    F = Fraction
    rows = (
        (F(-(k - 2) * (k + 1), 4 * k - 2),
         F((k - 1) * (k - 2) * (k + 1), 4 * k - 2),
         F(k + 1, 4 * k - 2),
         F(-1) - F((k - 1) * (k + 1), 4 * k - 2)),
        (F(-k), F(k * (k + 1)), F(1), F(-k - 1)),
        (F((k + 3) * k, 4 * k + 6),
         F(k * (k + 2) * (k + 3), 4 * k + 6),
         F(k, 4 * k + 6),
         F(-1) + F(k * (k + 2), 4 * k + 6)),
        (F(k + 1), F(k * (k + 1)), F(1), F(k)),
    )
    return McalMatrix(k=k, rows=rows)


def _exact_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = Fraction(0)
    for j in range(n):
        minor = tuple(r[:j] + r[j + 1:] for r in rows[1:])
        det += (-1) ** j * rows[0][j] * _exact_det(minor)
    return det


def _exact_inv(rows):
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("frame matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def l0_projection(S, m, k_max):
    """Spectral projector of the unperturbed operator onto the eigenvalues
    in S, as a dense matrix on the truncated mode-m space.  Assembled per
    degree from exact branch expansions, so it is idempotent and commutes
    with the assembled operator up to float conversion."""
    imap = StateIndexMap(m, k_max)
    sset = {int(s) for s in S}
    out_of_range = [s for s in sset if s < -k_max - 2 or s > k_max + 1]
    if out_of_range:
        raise ValueError(
            f"eigenvalues {sorted(out_of_range)} are outside the range "
            f"[{-k_max - 2}, {k_max + 1}] representable at k_max = {k_max}"
        )
    proj = np.zeros((imap.dim, imap.dim), dtype=complex)
    if m == 0 and -2 in sset:
        i0 = imap.index("radial_star", 0)
        proj[i0, i0] = 1.0
    for k in range(max(abs(m), 1), k_max + 1):
        for frame in branch_frame(k):
            keep = [lam in sset for lam in frame.lams]
            if not any(keep):
                continue
            vmat, vinv = frame.rows, frame.inv
            idxs = [imap.index(name, k) for name in frame.slots]
            for a, ia in enumerate(idxs):
                for b, ib in enumerate(idxs):
                    val = sum((vmat[a][c] * vinv[c][b]
                               for c in range(len(frame.lams)) if keep[c]),
                              Fraction(0))
                    proj[ia, ib] = float(val)
    return proj
