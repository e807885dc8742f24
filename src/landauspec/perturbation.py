"""Invariant-subspace reduction of the perturbed operator near lambda = 1.

The truncated operator L = L0 + K is rewritten in the exact eigenbasis of
L0 (the per-degree branch vectors).  E denotes the lambda = 1 eigenspace
of the chosen mode: the stream vector at degree 1 plus the radial pair at
degree 2 for m in {0, +-1}, and the degree-2 radial pair alone for
|m| = 2.  Y is everything else, at m = 0 including the isolated degree-0
member branch_frame(0).  In these coordinates

    L = [[I + A, B], [C, Lambda + D]]

with Lambda diagonal (integers different from 1).  The basis is block
diagonal: one exact Stokes branch frame per degree and family (columns
the branch vectors, rows their exact Fraction inverse) on the flat
indices of stokes_spectrum.frame_slots, rounded to floats once in
branch_frame's cache, and applied frame by frame, never formed.  Nothing
is orthonormalized, so Lambda is read off the branch labels and
(I - Lambda)^{-1} is diagonal.  The frame grows ill-conditioned with k
(4.5e5 at k = 96, 5e8 at k = 1000), but because the inverse is exact
rather than computed, each rounded inverse times its rounded frame is
within 5e-14 of I up to k = 1000.  A graph map M: E -> Y with
(I - Lambda) M = C + D M - M A - M B M makes span{(u, M u)} invariant,
and the spectrum of L near 1 is that of the reduced matrix I + A + B M.
M is found by Picard iteration from M0 = (I - Lambda)^{-1} C, applied as
a row scaling by the resolvent vector 1/(1 - lambda); the iteration
contracts when the weighted norm of K times the largest resolvent factor
max|1/(1 - lambda)| is below 1/4, which split_blocks checks when strict
(the default) and skips otherwise.

The blocks are formed in real arithmetic.  `OperatorMatrix.entries` is
the stream-scaled real form S^-1 L S with S = diag(i on psi and psi', 1
elsewhere), so K_r = S^-1 K S is the entries of L minus those of L0
(`operators.k_entries`, from L0's cached pattern), copied once.  The
strict check reads K's norm off that copy before anything is applied to
it.  Every rounded inverse maps K_r's rows and then every rounded frame
its columns, in place in that one real n x n copy at the frame's own flat
indices, so branch i of a frame sits at the index of its slot i; E and Y
are index arrays into it, and nothing is permuted.  Every frame lives on
stream slots only or on non-stream slots only, so the stream branches
sit exactly on the stream slots, the branch scaling S_b is S itself, and
the branch coordinates of K are S (rows K_r columns) S^-1, read at the
branches' indices.  Each factor of the re-phasing is 1, i or -i, which
rounds nothing: an entry between a stream and a non-stream branch is
purely imaginary, every other entry purely real.  Only the thin blocks
A, B and C, n_e rows or columns wide, are re-phased into complex
arrays.  D stays in the real copy, and the graph solve applies it as
S_y (D_r (S_y^-1 M)) with one real product per step, so no complex
n x n matrix is ever formed.

The E basis is normalized so that reduced-matrix entries are directly
comparable with hand calculations done on the unit-amplitude harmonics
(sin theta e^{i phi} and friends); z_coefficient records that scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import k_entries, stream_scale
from .sphbasis import norm_constant
from .statespace import x_weights
from .stokes_spectrum import frame_slots

_Z_SHAPE = {(1, 1): 1.0, (2, 1): 1 / 3, (3, 1): 2 / 3, (2, 2): 1 / 3}


def z_coefficient(k, m):
    """Coefficient of the unit-amplitude harmonic of degree k, order m
    (sin^|m| theta times a cosine polynomial, times e^{i m phi}) on the
    orthonormal basis row used by the projections here."""
    if m == 0:
        return norm_constant(k, 0)
    shape = _Z_SHAPE[(k, abs(m))]
    sign = (-1.0) ** m if m > 0 else 1.0
    return sign * shape * norm_constant(k, abs(m))


@dataclass
class PerturbationBlocks:
    """The blocks of K in branch coordinates.  a, b and c are complex, with
    E normalized to the unit-amplitude harmonics.  D stays real: coords is
    K's real branch coordinates at the branches' flat indices, and D is its
    y_index rows and columns re-phased by y_phase, S at those indices,
    applied through d_times."""

    m: int
    k_max: int
    epsilon: float
    e_branches: tuple
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    coords: np.ndarray = field(repr=False)
    y_index: np.ndarray = field(repr=False)
    y_phase: np.ndarray = field(repr=False)
    resolvent: np.ndarray = field(repr=False)

    def d_times(self, mat):
        """D times a complex n_y x k matrix, as p (D_r (p* mat)) with p the
        phase and D_r the real block of coords: one real product of coords
        with the real and imaginary parts side by side and zero E rows, so
        neither a complex nor a copied n_y x n_y matrix is made."""
        x = np.zeros((self.coords.shape[0], mat.shape[1]), dtype=complex)
        x[self.y_index] = self.y_phase.conj()[:, None] * mat
        image = (self.coords @ x.view(float)).view(complex)
        return self.y_phase[:, None] * image[self.y_index]

    @property
    def inv_lambda(self):
        """(I - Lambda)^{-1} as a dense diagonal; the solves scale rows by
        the resolvent vector instead."""
        return np.diag(self.resolvent).astype(complex)

    @property
    def dim_e(self):
        return len(self.e_branches)


@dataclass
class GraphMap:
    matrix: np.ndarray = field(repr=False)
    iterations: int
    defect: float


def _weighted_k_norm(kmat, imap):
    """The X-weighted operator norm of K from its stream-scaled real entries
    (the scaling is unitary, so the norm is K's own), read on its nonzero
    rows: K's image fills only phi', psi' and radial_star, and its zero
    rows add nothing to the norm but would make the SVD four times
    slower at k_max 96."""
    w = np.sqrt(x_weights(imap))
    live = kmat.any(axis=1)
    weighted = kmat[live] * w[live, None]
    weighted /= w
    return float(np.linalg.norm(weighted, 2))


def split_blocks(lmat, m, strict=True):
    """Branch-coordinate block decomposition of an assembled operator.

    With strict (the default) checks the contraction budget first: the
    weighted operator norm of K times kappa = max |1/(1 - lambda)| over the
    complement must stay below 1/4 for the graph fixed point to be
    guaranteed.  strict=False skips the check and its norm, and gives the
    blocks anyway (the Picard solve may still converge in practice)."""
    if m != lmat.m:
        raise ValueError(f"operator is assembled at m = {lmat.m}, not {m}")
    slots = list(frame_slots(m, lmat.k_max))
    # E first, in frame order: degree-1 stream, then degree-2 gradient
    labels, perm = zip(*sorted(
        (((k, lam, frame.family), i) for k, frame, idx in slots
         for lam, i in zip(frame.lams, idx)),
        key=lambda branch: branch[0][1] != 1))
    n_e = sum(lam == 1 for _, lam, _ in labels)
    e, y = np.array(perm[:n_e]), np.array(perm[n_e:])
    resolvent = np.array([1.0 / (1.0 - lam) for _, lam, _ in labels[n_e:]])

    kmat = k_entries(lmat)
    if strict:
        k_norm = _weighted_k_norm(kmat, lmat.index_map)
        kappa = float(np.abs(resolvent).max())
        if k_norm * kappa >= 0.25:
            raise ValueError(
                f"contraction budget violated: ||K||_X = {k_norm:.3f} times "
                f"kappa = {kappa:.3f} is {k_norm * kappa:.3f} >= 0.25 at "
                f"m = {m}, k_max = {lmat.k_max}, eps = {lmat.epsilon}; "
                f"pass strict=False to proceed without the guarantee")

    # rows K columns, frame by frame and in place in the copy of the
    # entries: every inverse maps K's rows at its frame's indices, then
    # every frame maps the columns there, so branch i of a frame sits at
    # the frame's flat index idx[i]
    for _, frame, idx in slots:
        kmat[idx] = frame.float_inv @ kmat[idx]
    for _, frame, idx in slots:
        kmat[:, idx] = kmat[:, idx] @ frame.float_rows
    # the thin blocks in complex: E normalized to the unit-amplitude
    # harmonics, then re-phased by S_b = S, as the stream branches sit on
    # the stream slots
    a, b, c = (kmat[np.ix_(rows, cols)].astype(complex)
               for rows, cols in ((e, e), (e, y), (y, e)))
    scale = np.array([z_coefficient(k, m) for k, *_ in labels[:n_e]])
    a /= scale[:, None]
    a *= scale
    b /= scale[:, None]
    c *= scale
    phase = stream_scale(lmat.index_map)
    for block, rows, cols in ((a, e, e), (b, e, y), (c, y, e)):
        block *= phase[rows, None]
        block *= phase[cols].conj()
    return PerturbationBlocks(
        m=m, k_max=lmat.k_max, epsilon=lmat.epsilon,
        e_branches=tuple(labels[:n_e]), a=a, b=b, c=c, coords=kmat,
        y_index=y, y_phase=phase[y], resolvent=resolvent)


def solve_graph(blocks, tol=1e-12, max_iter=200):
    """Picard iteration for the graph map, started at (I-Lambda)^{-1} C;
    D is applied through the real coordinates (`PerturbationBlocks.d_times`)."""
    r, a, b, c = blocks.resolvent[:, None], blocks.a, blocks.b, blocks.c

    def picard(mat):
        return r * (c + blocks.d_times(mat) - mat @ a - mat @ (b @ mat))

    m_cur = r * c
    history = []
    for it in range(1, max_iter + 1):
        m_new = picard(m_cur)
        defect = float(np.linalg.norm(m_new - m_cur, 2))
        history.append(defect)
        m_cur = m_new
        if defect <= tol * max(1.0, float(np.linalg.norm(m_cur, 2))):
            final = float(np.linalg.norm(picard(m_cur) - m_cur, 2))
            return GraphMap(matrix=m_cur, iterations=it, defect=final)
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
