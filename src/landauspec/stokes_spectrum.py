"""Exact eigenstructure of the zero-background linearization.

The operator assembled by ``operators.assemble_L0`` never couples harmonic
degrees, and on each degree-k block its spectrum is six integers falling
into two families:

* the stream pair, carried by (psi, psi') alone, with eigenvalues
  k and -(k+1) and coefficient vectors (1, -k) and (1, k+1);
* the gradient quartet, carried by (phi, phi', radial, radial_star),
  with eigenvalues k+1, k-1, -k and -k-2 and coefficient vectors read
  off one table, the rows of the 4x4 frame matrix ``mcal(k)``.

Degree zero keeps radial_star alone, an isolated eigenvector at -2.
Everything here is kept in exact rational arithmetic, and one Gauss-Jordan
elimination gives both the inverse of a frame and the determinant of the
frame matrix.  The branch vectors of each degree form the frame
(``branch_frame``) used to expand an arbitrary block; ``frame_slots`` puts
every frame of a truncated mode space on its flat indices, where
``perturbation`` applies each frame, rounded once, to K's rows and
columns.  The frame matrix has determinant -(2k+1)^2, which is what makes
the expansion well posed at every degree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .statespace import STREAM_SLOTS, StateIndexMap, zero_state

GRADIENT_SLOTS = ("phi", "phi_prime", "radial", "radial_star")


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


def _frame_rows(k):
    """Rows of the degree-k gradient frame matrix, ordered by eigenvalue
    (k-1, k+1, -k-2, -k), columns (d*xi, d*xi', radial, radial_star)."""
    F = Fraction
    return (
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


def _degree_branches(k):
    """Family and exact coefficient tuple of every branch of degree k >= 1,
    keyed by eigenvalue.  A gradient branch is the frame-matrix row at its
    eigenvalue scaled to a unit radial entry, with both potentials divided
    by k(k+1) and q = k(k+1) phi - radial - radial_star appended."""
    kk = Fraction(k * (k + 1))
    branches = {k: ("stream", (Fraction(1), Fraction(-k))),
                -(k + 1): ("stream", (Fraction(1), Fraction(k + 1)))}
    for lam, row in zip((k - 1, k + 1, -k - 2, -k), _frame_rows(k)):
        dxi, dxi_prime, radial, radial_star = (x / row[2] for x in row)
        branches[lam] = ("gradient", (dxi / kk, dxi_prime / kk, radial,
                                      radial_star, dxi - radial - radial_star))
    return branches


def _integer(name, value):
    """int(value), which would truncate 2.5, for integral values only."""
    if not float(value).is_integer():
        raise ValueError(f"{name} = {value!r} is not an integer")
    return int(value)


def branch_vector(k, m, lam):
    k, m, lam = _integer("k", k), _integer("m", m), _integer("lam", lam)
    if k < max(abs(m), 1):
        raise ValueError(
            f"degree k = {k} has no branch block at mode m = {m}; "
            f"need k >= {max(abs(m), 1)}"
        )
    branches = _degree_branches(k)
    if lam not in branches:
        raise ValueError(
            f"lambda = {lam} is not a branch eigenvalue at degree {k}; "
            f"the block spectrum is {sorted(branches)}"
        )
    return BranchVector(k, m, *branches[lam])


class BranchFrame(NamedTuple):
    """Exact eigenvector frame of one family on a degree-k block: column j
    of ``rows`` (indexed like ``slots``) is the branch at ``lams[j]``, and
    ``inv`` is the exact inverse of ``rows``; ``float_*`` round them."""

    family: str
    slots: tuple
    lams: tuple
    rows: tuple
    inv: tuple
    float_rows: np.ndarray
    float_inv: np.ndarray


def _frame(family, slots, lams, rows, inv):
    """A BranchFrame with read-only float64 copies of rows and inv."""
    rounded = np.array([rows, inv], dtype=float)
    rounded.flags.writeable = False
    return BranchFrame(family, slots, lams, rows, inv, *rounded)


_FAMILIES = (("stream", STREAM_SLOTS, stream_eigenvalues),
             ("gradient", GRADIENT_SLOTS, gradient_eigenvalues))


def branch_frame(k):
    """The BranchFrames of degree k >= 0: the isolated radial_star member
    at k = 0, the stream and gradient frames at k >= 1.

    Branch coefficients do not depend on the mode m, so one cached frame
    serves every m.  The cache is keyed on int(k), so an integral float
    shares the int's frames.  A cache miss goes through private names
    only, so a call tracer sees the same public calls whether or not the
    frame was already cached."""
    k = _integer("k", k)
    if k < 0:
        raise ValueError(f"the branch frame needs k >= 0, got {k}")
    return _branch_frames(k)


@functools.lru_cache(maxsize=None)
def _branch_frames(k):
    """branch_frame's cached builder, for an int k >= 0."""
    if k == 0:  # degree zero survives only in radial_star, at -2
        return (_frame("isolated", ("radial_star",), (-2,),
                       ((Fraction(1),),), ((Fraction(1),),)),)
    branches = _degree_branches(k)
    frames = []
    for family, slots, eigenvalues in _FAMILIES:
        lams = eigenvalues(k)
        cols = [branches[lam][1] for lam in lams]
        rows = tuple(tuple(col[i] for col in cols) for i in range(len(slots)))
        inv, _ = _exact_inv(rows)
        if inv is None:
            raise ValueError("frame matrix is singular")
        frames.append(_frame(family, slots, lams, rows, inv))
    return tuple(frames)


branch_frame.cache_info = _branch_frames.cache_info
branch_frame.cache_clear = _branch_frames.cache_clear


def frame_slots(m, k_max):
    """(k, frame, flat indices of frame.slots) for every BranchFrame of the
    truncated mode-m space, degree by degree from |m|.  The indices come
    from StateIndexMap.index, and the frames tile the flat space."""
    imap = StateIndexMap(m, k_max)
    for k in range(abs(m), k_max + 1):
        for frame in branch_frame(k):
            yield k, frame, np.array([imap.index(name, k)
                                      for name in frame.slots])


@dataclass(frozen=True)
class McalMatrix:
    """The 4x4 gradient-family frame matrix at degree k: the rows of
    `_frame_rows`, from which the gradient branch vectors are derived."""

    rows: tuple

    def determinant(self):
        return _exact_inv(self.rows)[1]


def mcal(k):
    k = _integer("k", k)
    if k < 0:
        raise ValueError(f"degree k = {k} must be a non-negative integer")
    return McalMatrix(rows=_frame_rows(k))


def _exact_inv(rows):
    """One Gauss-Jordan pass in exact arithmetic: (inverse, determinant),
    the inverse None when the determinant is 0.  The determinant is the
    product of the pivots, negated on each row swap."""
    n = len(rows)
    a = [list(r) for r in rows]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            det = -det
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = a[col][col]
        det *= pv
        a[col] = [x / pv for x in a[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(map(tuple, inv)), det
