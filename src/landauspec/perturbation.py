"""Invariant-subspace reduction of the perturbed operator near lambda = 1.

The truncated operator L = L0 + K is rewritten in the exact eigenbasis of
L0 (the per-degree branch vectors).  E denotes the lambda = 1 eigenspace
of the chosen mode: the stream vector at degree 1 plus the radial pair at
degree 2 for m in {0, +-1}, and the degree-2 radial pair alone for
|m| = 2.  Y is everything else, at m = 0 including the isolated degree-0
member branch_frame(0).  In these coordinates

    L = [[I + A, B], [C, Lambda + D]]

with Lambda diagonal (integers different from 1).  The basis is the exact
Stokes branch frame of every degree, placed on the flat indices by
stokes_spectrum.frame_slots: each frame is one block of columns (the
branch vectors) and one block of rows (their exact Fraction inverse), each
rounded once to floats, and a column permutation puts E first.  Nothing is
orthonormalized, so Lambda is read off the branch labels and
(I - Lambda)^{-1} is diagonal.  The frame grows ill-conditioned with k
(4.5e5 at k = 96, 5e8 at k = 1000), but because the inverse is exact
rather than computed, rows @ columns stays within 4e-14 of I up to
k = 1000.  A graph map M: E -> Y with (I - Lambda) M = C + D M - M A - M B M
makes span{(u, M u)} invariant, and the spectrum of L near 1 is the
spectrum of the reduced matrix I + A + B M.  M is found by Picard
iteration from M0 = (I - Lambda)^{-1} C, applied as a row scaling by the
resolvent vector 1/(1 - lambda); the iteration contracts when the
weighted norm of K times the largest resolvent factor max|1/(1 - lambda)|
is below 1/4, which split_blocks checks up front.

The blocks are formed in real arithmetic.  `OperatorMatrix.entries` is
the stream-scaled real form S^-1 L S with S = diag(i on psi and psi', 1
elsewhere), so K_r = S^-1 K S is the entries of L minus those of L0
(`operators.k_entries`, from L0's cached pattern), read on the rows where
K is not zero (its image fills phi', psi' and radial_star).  Every frame
lives on stream slots only or on non-stream slots only, so rows S = S_b rows with S_b = diag(i on stream branches, 1
elsewhere), and the branch coordinates of K are S_b (rows K_r columns)
S_b^-1.  Each factor of the re-phasing is 1, i or
-i, which rounds nothing: an entry between a stream and a non-stream
branch is purely imaginary, every other entry purely real.

The E basis is normalized so that reduced-matrix entries are directly
comparable with hand calculations done on the unit-amplitude harmonics
(sin theta e^{i phi} and friends); z_coefficient records that scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .operators import k_entries
from .sphbasis import norm_constant
from .statespace import StateIndexMap, x_weights
from .stokes_spectrum import frame_slots

_Z_SHAPE = {(1, 1): Fraction(1), (2, 1): Fraction(1, 3),
            (3, 1): Fraction(2, 3), (2, 2): Fraction(1, 3)}


def z_coefficient(k, m):
    """Coefficient of the unit-amplitude harmonic of degree k, order m
    (sin^|m| theta times a cosine polynomial, times e^{i m phi}) on the
    orthonormal basis row used by the projections here."""
    if m == 0:
        return norm_constant(k, 0)
    shape = _Z_SHAPE[(k, abs(m))]
    sign = (-1.0) ** m if m > 0 else 1.0
    return sign * float(shape) * norm_constant(k, abs(m))


@dataclass
class PerturbationBlocks:
    m: int
    k_max: int
    epsilon: float
    e_branches: tuple
    y_branches: tuple
    basis_columns: np.ndarray = field(repr=False)
    basis_rows: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    lam_y: np.ndarray = field(repr=False)
    resolvent: np.ndarray = field(repr=False)
    kappa: float
    k_norm: float

    @property
    def inv_lambda(self):
        """(I - Lambda)^{-1} as a dense diagonal; the solves scale rows by
        the resolvent vector instead."""
        return np.diag(self.resolvent).astype(complex)

    @property
    def smallness(self):
        return self.k_norm * self.kappa

    @property
    def dim_e(self):
        return len(self.e_branches)


@dataclass
class GraphMap:
    matrix: np.ndarray = field(repr=False)
    iterations: int
    defect: float
    defect_history: tuple


def _branch_basis(m, k_max):
    """Exact branch columns for the whole truncated space, E members first
    (stream before gradient), then Y degree by degree.  Returns the basis
    matrix, its blockwise-exact inverse, and the E and Y labels
    (degree, lambda, family)."""
    n = StateIndexMap(m, k_max).dim
    cols = np.zeros((n, n))
    rows = np.zeros((n, n))
    labels = []
    for k, frame, idx in frame_slots(m, k_max):
        span = slice(len(labels), len(labels) + len(idx))
        cols[idx, span] = np.array(frame.rows, dtype=float)
        rows[span, idx] = np.array(frame.inv, dtype=float)
        labels += [(k, lam, frame.family) for lam in frame.lams]

    e = sorted((j for j, label in enumerate(labels) if label[1] == 1),
               key=lambda j: labels[j][2] != "stream")
    order = e + [j for j, label in enumerate(labels) if label[1] != 1]
    cols = cols[:, order]
    rows = rows[order]
    scale = np.array([z_coefficient(labels[j][0], m) for j in e])
    cols[:, :len(e)] *= scale
    rows[:len(e)] /= scale[:, None]
    return (cols, rows, tuple(labels[j] for j in e),
            tuple(labels[j] for j in order[len(e):]))


def split_blocks(lmat, m, strict=True):
    """Branch-coordinate block decomposition of an assembled operator.

    Checks the contraction budget: the weighted operator norm of K times
    kappa = max |1/(1 - lambda)| over the complement must stay below 1/4
    for the graph fixed point to be guaranteed.  Pass strict=False to get
    the blocks anyway (the Picard solve may still converge in practice)."""
    if m != lmat.m:
        raise ValueError(f"operator is assembled at m = {lmat.m}, not {m}")
    k_max = lmat.k_max
    # K in the stream-scaled real form, on the rows its image reaches
    kmat = k_entries(lmat)
    live = np.flatnonzero(kmat.any(axis=1))
    kmat = kmat[live]
    w = np.sqrt(x_weights(StateIndexMap(m, k_max)))
    k_norm = float(np.linalg.norm((kmat * w[live, None]) / w[None, :], 2))

    cols, rows, e_branches, y_branches = _branch_basis(m, k_max)
    n_e = len(e_branches)
    # S_b, the stream scaling carried to the branches
    phase = np.array([1j if label[2] == "stream" else 1.0
                      for label in e_branches + y_branches])
    k_coord = phase[:, None] * ((rows[:, live] @ kmat) @ cols)
    k_coord *= phase.conj()[None, :]
    a = k_coord[:n_e, :n_e]
    b = k_coord[:n_e, n_e:]
    c = k_coord[n_e:, :n_e]
    d = k_coord[n_e:, n_e:]

    lam_y = np.array([float(label[1]) for label in y_branches])
    resolvent = 1.0 / (1.0 - lam_y)
    kappa = float(np.max(np.abs(resolvent)))

    blocks = PerturbationBlocks(
        m=m, k_max=k_max, epsilon=lmat.epsilon,
        e_branches=e_branches, y_branches=y_branches,
        basis_columns=cols, basis_rows=rows,
        a=a, b=b, c=c, d=d, lam_y=lam_y, resolvent=resolvent,
        kappa=kappa, k_norm=k_norm,
    )
    if strict and blocks.smallness >= 0.25:
        raise ValueError(
            f"contraction budget violated: ||K||_X * kappa = "
            f"{blocks.smallness:.3f} >= 0.25 at eps = {lmat.epsilon}; "
            f"pass strict=False to proceed without the guarantee"
        )
    return blocks


def solve_graph(blocks, tol=1e-12, max_iter=200):
    """Picard iteration for the graph map, started at (I-Lambda)^{-1} C."""
    r, a, b, c, d = (blocks.resolvent[:, None], blocks.a, blocks.b,
                     blocks.c, blocks.d)
    m_cur = r * c
    history = []
    for it in range(1, max_iter + 1):
        m_new = r * (c + d @ m_cur - m_cur @ a - m_cur @ (b @ m_cur))
        defect = float(np.linalg.norm(m_new - m_cur, 2))
        history.append(defect)
        m_cur = m_new
        if defect <= tol * max(1.0, float(np.linalg.norm(m_cur, 2))):
            fixed_image = r * (c + d @ m_cur - m_cur @ a
                               - m_cur @ (b @ m_cur))
            final = float(np.linalg.norm(fixed_image - m_cur, 2))
            return GraphMap(matrix=m_cur, iterations=it, defect=final,
                            defect_history=tuple(history))
    raise RuntimeError(
        f"graph iteration did not reach tol = {tol} in {max_iter} steps; "
        f"last defects {['%.3e' % h for h in history[-5:]]}"
    )


def reduced_matrix(blocks, graph=None):
    """I + A + B M on the unperturbed lambda = 1 basis, with M the matrix of
    a GraphMap from solve_graph.  With graph=None uses M = (I-Lambda)^{-1} C,
    correct to second order in epsilon."""
    if graph is None:
        m_map = blocks.resolvent[:, None] * blocks.c
    else:
        m_map = graph.matrix
    n_e = blocks.dim_e
    return np.eye(n_e, dtype=complex) + blocks.a + blocks.b @ m_map
