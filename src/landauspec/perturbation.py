"""Invariant-subspace reduction of the perturbed operator near lambda = 1.

The truncated operator L = L0 + K is rewritten in the exact eigenbasis of
L0 (the per-degree branch vectors).  E denotes the lambda = 1 eigenspace
of the chosen mode: the stream vector at degree 1 plus the radial pair at
degree 2 for m in {0, +-1}, and the degree-2 radial pair alone for
|m| = 2.  Y is everything else.  In these coordinates

    L = [[I + A, B], [C, Lambda + D]]

with Lambda diagonal (integers different from 1).  The basis is the exact
Stokes branch frame of every degree (stokes_spectrum.branch_frame): the
columns are the branch vectors and the rows their exact Fraction inverse,
each rounded once to floats.  Nothing is orthonormalized, so Lambda is read
off the branch labels and (I - Lambda)^{-1} is diagonal.  The frame grows
ill-conditioned with k (4.5e5 at k = 96, 5e8 at k = 1000), but because the
inverse is exact rather than computed, rows @ columns stays within 4e-14 of
I up to k = 1000.  A graph map M: E -> Y
with (I - Lambda) M = C + D M - M A - M B M makes span{(u, M u)} invariant,
and the spectrum of L near 1 is the spectrum of the reduced matrix
I + A + B M.  M is found by Picard iteration from M0 = (I - Lambda)^{-1} C;
the iteration contracts when the weighted norm of K times the largest
resolvent factor max|1/(1 - lambda)| is below 1/4, which split_blocks
checks up front.

The E basis is normalized so that reduced-matrix entries are directly
comparable with hand calculations done on the unit-amplitude harmonics
(sin theta e^{i phi} and friends); z_coefficient records that scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .operators import assemble_L0
from .sphbasis import norm_constant
from .statespace import StateIndexMap, state_from_flat, x_weights
from .stokes_spectrum import branch_frame

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
    inv_lambda: np.ndarray = field(repr=False)
    kappa: float
    k_norm: float

    @property
    def smallness(self):
        return self.k_norm * self.kappa

    @property
    def dim_e(self):
        return len(self.e_branches)

    def e_state(self, j):
        flat = self.basis_columns[:, j]
        return state_from_flat(self.m, self.k_max, flat.copy())

    def lift(self, u, m_map):
        """State for the graph point (u, M u), u in E coordinates."""
        u = np.asarray(u, dtype=complex)
        coords = np.concatenate([u, m_map @ u])
        return state_from_flat(self.m, self.k_max,
                               self.basis_columns @ coords)


@dataclass
class GraphMap:
    matrix: np.ndarray = field(repr=False)
    iterations: int
    defect: float
    defect_history: tuple


def _is_unit_branch(k, lam, family, m):
    if lam != 1:
        return False
    if family == "stream":
        return k == 1 and abs(m) <= 1
    return k == 2


def _branch_basis(m, k_max):
    """Exact branch columns for the whole truncated space, E members first
    (stream before gradient), then Y degree by degree.  Returns the basis
    matrix, its blockwise-exact inverse, and the E and Y labels
    (degree, lambda, family)."""
    imap = StateIndexMap(m, k_max)
    n = imap.dim
    e_entries = []
    y_entries = []

    if m == 0:
        i0 = imap.index("radial_star", 0)
        col = np.zeros(n, dtype=complex)
        col[i0] = 1.0
        y_entries.append(((0, -2, "isolated"), col, col.copy()))
    for k in range(max(abs(m), 1), k_max + 1):
        for frame in branch_frame(k):
            idxs = [imap.index(name, k) for name in frame.slots]
            for j, lam in enumerate(frame.lams):
                col = np.zeros(n, dtype=complex)
                row = np.zeros(n, dtype=complex)
                for a, idx in enumerate(idxs):
                    col[idx] = float(frame.rows[a][j])
                    row[idx] = float(frame.inv[j][a])
                label = (k, lam, frame.family)
                if _is_unit_branch(k, lam, frame.family, m):
                    scale = z_coefficient(k, m)
                    e_entries.append((label, col * scale, row / scale))
                else:
                    y_entries.append((label, col, row))

    e_entries.sort(key=lambda entry: 0 if entry[0][2] == "stream" else 1)
    entries = e_entries + y_entries
    cols = np.zeros((n, n), dtype=complex)
    rows = np.zeros((n, n), dtype=complex)
    for j, (label, col, row) in enumerate(entries):
        cols[:, j] = col
        rows[j, :] = row
    return (cols, rows, tuple(entry[0] for entry in e_entries),
            tuple(entry[0] for entry in y_entries))


def split_blocks(lmat, m, strict=True):
    """Branch-coordinate block decomposition of an assembled operator.

    Checks the contraction budget: the weighted operator norm of K times
    kappa = max |1/(1 - lambda)| over the complement must stay below 1/4
    for the graph fixed point to be guaranteed.  Pass strict=False to get
    the blocks anyway (the Picard solve may still converge in practice)."""
    if m != lmat.m:
        raise ValueError(f"operator is assembled at m = {lmat.m}, not {m}")
    k_max = lmat.k_max
    imap = StateIndexMap(m, k_max)
    kmat = lmat.entries - assemble_L0(m, k_max).entries
    w = np.sqrt(x_weights(imap))
    k_norm = float(np.linalg.norm((kmat * w[:, None]) / w[None, :], 2))

    cols, rows, e_branches, y_branches = _branch_basis(m, k_max)
    n_e = len(e_branches)
    k_coord = rows @ kmat @ cols
    a = k_coord[:n_e, :n_e]
    b = k_coord[:n_e, n_e:]
    c = k_coord[n_e:, :n_e]
    d = k_coord[n_e:, n_e:]

    lam_y = np.array([float(label[1]) for label in y_branches])
    resolvent = 1.0 / (1.0 - lam_y)
    inv_lambda = np.diag(resolvent).astype(complex)
    kappa = float(np.max(np.abs(resolvent)))

    blocks = PerturbationBlocks(
        m=m, k_max=k_max, epsilon=lmat.epsilon,
        e_branches=e_branches, y_branches=y_branches,
        basis_columns=cols, basis_rows=rows,
        a=a, b=b, c=c, d=d, lam_y=lam_y, inv_lambda=inv_lambda,
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
    inv_l, a, b, c, d = (blocks.inv_lambda, blocks.a, blocks.b,
                         blocks.c, blocks.d)
    m_cur = inv_l @ c
    history = []
    for it in range(1, max_iter + 1):
        m_new = inv_l @ (c + d @ m_cur - m_cur @ a - m_cur @ (b @ m_cur))
        defect = float(np.linalg.norm(m_new - m_cur, 2))
        history.append(defect)
        m_cur = m_new
        if defect <= tol * max(1.0, float(np.linalg.norm(m_cur, 2))):
            fixed_image = inv_l @ (c + d @ m_cur - m_cur @ a
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
        m_map = blocks.inv_lambda @ blocks.c
    else:
        m_map = graph.matrix
    n_e = blocks.dim_e
    return np.eye(n_e, dtype=complex) + blocks.a + blocks.b @ m_map
