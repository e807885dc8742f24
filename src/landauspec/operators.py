"""Assembly of the linearized operators per Fourier mode.

L0 is the linearization at zero field.  In potential variables it couples
nothing across degrees; the per-degree action on (phi, psi, phi', psi',
radial, radial_star), writing kk = k(k+1), is

    phi    -> -phi'
    psi    -> -psi'
    phi'   -> -2 kk phi - phi' + 3 radial + radial_star
    psi'   -> -kk psi - psi'
    radial -> -kk phi + radial
    radial_star -> 3 kk phi - (3 + kk) radial - 2 radial_star

which packages (xi, xi', th, th*) -> (-xi', -xi' + Lap xi - grad(q - 2 th),
-th* - q, th* + 3 q + Lap th) with q = -(div xi + th + th*) eliminated.
Each of its 13 terms is one row of a coupling table, set on every degree
both its slots admit; degree zero reaches radial_star alone, where
th* -> th* + 3q with q = -th* is the isolated eigenvalue -2.

K carries the frozen background profile (V tangential, F radial) of
`landau.background_on_grid`.  Its image fills only (phi', psi', radial_star):

    tangent T = -(V d_theta + max(dV, V cot)) xi - F xi'   componentwise:
      T_theta = -V d_theta(xi_theta) - dV xi_theta - F xi'_theta
      T_phi   = -V d_theta(xi_phi) - V cot(theta) xi_phi - F xi'_phi
    scalar  G = -V d_theta(th) - xi_theta dF + 2 V xi_theta
                + 2 th F - th* F - q F

with phi'-row = invLap(div T), psi'-row = invLap(curl T), and the projection
of G feeding the radial_star row.  One pipeline computes K on a block of
flat states: nodal synthesis (table rows times coefficients), the
pointwise integrand, then the weak-form projections of `sphbasis` on the
whole block, with invLap a product with -1/(k(k+1)) (`solve_poisson`
divides, which rounds differently).  `apply_K` feeds it one state;
`assemble_K` feeds it every unit column on the default Gauss rule of k_max
(`sphbasis.legendre_values`).  The profiles are rational in cos(theta), so
what that rule and the truncation miss is caught after the fact by a
spectral tail monitor.

L is real up to the phase of the stream slots: every block is real or
purely imaginary, and the imaginary blocks are exactly the couplings
between (psi, psi') and the other four slots.  With D = diag(i on psi and
psi', 1 elsewhere) (`stream_scale`), `OperatorMatrix.entries` holds the
stream-scaled D^-1 L D as a contiguous float64 array.  L0 is real as
written; K's pipeline and tail monitor work in the complex basis of the
states, and `assemble_K` converts its matrix once; L is the sum of the two.
Each factor of the scaling is 1, i or -i, which rounds nothing, so the
imaginary part a conversion drops must be exactly 0.0, and anything else
is an error naming its size.  Every eigensolve runs on the entries, in
real LAPACK; their eigenvalues are those of L, and a real matrix has them
in exact conjugate pairs.  The states and the operator file keep the
complex basis: `complex_entries` is the matrix D A D^-1 that
`save_operator` writes and `OperatorMatrix.apply_flat` multiplies a
complex state by, and `load_operator` converts it back with the same
check, so the round trip is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import os

import numpy as np

from .landau import LandauProfile, background_on_grid
from .sphbasis import legendre_values, project, project_div_curl
from .statespace import (
    COMPONENTS,
    STREAM_SLOTS,
    StateIndexMap,
    state_from_flat,
)


def stream_scale(imap):
    """The diagonal of D: i on the stream slots, 1 elsewhere."""
    scale = np.ones(imap.dim, dtype=complex)
    for name in STREAM_SLOTS:
        scale[imap.sl(name)] = 1j
    return scale


@dataclass
class OperatorMatrix:
    """An assembled operator; entries is its stream-scaled real form
    D^-1 L D in float64."""

    m: int
    k_max: int
    epsilon: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.index_map.dim,) * 2
        if self.entries.dtype != np.float64:
            raise ValueError(f"operator entries have dtype "
                             f"{self.entries.dtype}, expected the float64 "
                             f"stream-scaled form")
        if self.entries.shape != shape:
            raise ValueError(f"operator entries have shape "
                             f"{self.entries.shape}, but (m, k_max) = "
                             f"({self.m}, {self.k_max}) indexes {shape}")

    @property
    def index_map(self):
        return StateIndexMap(self.m, self.k_max)

    @property
    def dim(self):
        return self.entries.shape[0]

    def apply_flat(self, flat):
        """D A D^-1 times a complex flat state, on `complex_entries`, the
        matrix the operator file holds, so the image is bit for bit that
        of L in the complex basis; D (A (D^-1 x)) sums the same terms in
        another order."""
        return complex_entries(self) @ flat

    def apply_state(self, state):
        return state_from_flat(self.m, self.k_max,
                               self.apply_flat(state.to_flat()))


def _stream_scaled_real(mat, imap, source):
    """D^-1 M D of a complex matrix M in the basis of the states, as a
    contiguous float64 array.  D^-1 M D multiplies entry (i, j) by
    conj(D_i) D_j: i when only column j is a stream slot, -i when only row
    i is, and 1 otherwise.  So each entry is the real part of M's, or minus
    or plus its imaginary part, read block by block over the runs of
    stream and other slots; the part it drops must be exactly zero, and
    adding 0.0 turns each zero into +0.0, as the complex product did."""
    stream = stream_scale(imap).imag > 0.0
    bounds = [0, *(np.flatnonzero(np.diff(stream)) + 1), stream.size]
    runs = [(slice(a, b), bool(stream[a])) for a, b in zip(bounds, bounds[1:])]
    out = np.empty(mat.shape)
    dropped = []
    for cols, col_stream in runs:  # column-major, the order of the file
        for rows, row_stream in runs:
            block = mat[rows, cols]
            kept, drop = block.real, block.imag
            if row_stream != col_stream:
                kept, drop = drop, kept
            if drop.any():
                dropped.append(np.abs(drop).max())
            np.multiply(kept, -1.0 if col_stream > row_stream else 1.0,
                        out=out[rows, cols])
    if dropped:
        raise ValueError(f"{source} is not real in the stream scaling: it "
                         f"has an imaginary part of size "
                         f"{float(np.max(dropped)):.3e}")
    if not np.isfinite(out).all():
        raise ValueError(f"{source} has a non-finite entry")
    out += 0.0
    return out


def complex_entries(opmat):
    """The operator in the complex basis of the states, D A D^-1, as a
    complex128 array.  Every factor is 1, i or -i, which rounds nothing;
    adding 0.0 turns each zero part into +0.0, as in L0 + K summed in that
    basis."""
    scale = stream_scale(opmat.index_map)
    mat = opmat.entries * scale[:, None]
    mat *= scale.conj()[None, :]
    mat += 0.0
    return mat


# (row, column, a, b) per term of the L0 action above: entry a + b k(k+1)
_L0_COUPLINGS = (
    ("phi", "phi_prime", -1, 0),
    ("psi", "psi_prime", -1, 0),
    ("phi_prime", "phi", 0, -2),
    ("phi_prime", "phi_prime", -1, 0),
    ("phi_prime", "radial", 3, 0),
    ("phi_prime", "radial_star", 1, 0),
    ("psi_prime", "psi", 0, -1),
    ("psi_prime", "psi_prime", -1, 0),
    ("radial", "phi", 0, -1),
    ("radial", "radial", 1, 0),
    ("radial_star", "phi", 0, 3),
    ("radial_star", "radial", -3, -1),
    ("radial_star", "radial_star", -2, 0),
)


def assemble_L0(m, k_max):
    if k_max < max(abs(m), 2):
        raise ValueError(f"k_max = {k_max} too small for the L0 assembly at m = {m}")
    imap = StateIndexMap(m, k_max)
    mat = np.zeros((imap.dim, imap.dim))
    for row, col, a, b in _L0_COUPLINGS:
        ks = np.arange(max(imap.k_lo(row), imap.k_lo(col)), k_max + 1)
        mat[imap.index(row, ks), imap.index(col, ks)] = a + b * ks * (ks + 1)
    return OperatorMatrix(m=m, k_max=k_max, epsilon=0.0, entries=mat)


def _k_integrand(bg, xi, dxi, xip, th, dth, ths, div_xi):
    """Pointwise (T_theta, T_phi, G) of K from the synthesized tangent pairs
    xi, d_theta xi, xi' and the radial scalars, one column per state; the
    background arrays in bg are single columns that broadcast against them."""
    (xi_t, xi_p), (dxi_t, dxi_p), (xip_t, xip_p) = xi, dxi, xip
    q = -(div_xi + th + ths)
    t_theta = -bg["V"] * dxi_t - bg["dV"] * xi_t - bg["F"] * xip_t
    t_phi = -bg["V"] * dxi_p - bg["V_cot"] * xi_p - bg["F"] * xip_p
    g = (-bg["V"] * dth - bg["dF"] * xi_t + 2.0 * bg["V"] * xi_t
         + bg["F"] * (2.0 * th - ths - q))
    return t_theta, t_phi, g


def _k_columns(x, epsilon, table):
    """Images under K of the flat states in the columns of x (dim x ncols):
    nodal synthesis of every component, the K integrand, then the weak-form
    projections with the inverse Laplacian applied as a product."""
    imap = StateIndexMap(table.m, table.k_max)
    am = abs(table.m)

    def rows(arr, name):
        # the per-degree rows of a table-shaped array that name's slots use
        return arr[imap.k_lo(name) - am:]

    def nodal(kind, name, weight=1.0):
        # (n_nodes x ncols) values of one component through one table
        return (rows(getattr(table, kind), name).T * weight) @ x[imap.sl(name)]

    ks = imap.degrees("phi").astype(float)  # the primed pair shares them
    kk = ks * (ks + 1.0)
    xi = (nodal("dtheta", "phi") - 1j * nodal("m_sin", "psi"),
          1j * nodal("m_sin", "phi") + nodal("dtheta", "psi"))
    dxi = (nodal("d2theta", "phi") - 1j * nodal("dm_sin", "psi"),
           1j * nodal("dm_sin", "phi") + nodal("d2theta", "psi"))
    xip = (nodal("dtheta", "phi_prime") - 1j * nodal("m_sin", "psi_prime"),
           1j * nodal("m_sin", "phi_prime") + nodal("dtheta", "psi_prime"))
    bg = {key: val[:, None]
          for key, val in background_on_grid(epsilon, table.grid).items()}
    t_theta, t_phi, g = _k_integrand(
        bg, xi, dxi, xip, nodal("val", "radial"), nodal("dtheta", "radial"),
        nodal("val", "radial_star"), nodal("val", "phi", -kk))

    div, curl = project_div_curl(t_theta, t_phi, table)
    # times -1/(k(k+1)); solve_poisson divides instead and rounds differently
    inv_lap = (-1.0 / kk)[:, None]
    out = np.zeros((imap.dim, x.shape[1]), dtype=complex)
    out[imap.sl("phi_prime")] = rows(div.coeffs, "phi_prime") * inv_lap
    out[imap.sl("psi_prime")] = rows(curl.coeffs, "psi_prime") * inv_lap
    out[imap.sl("radial_star")] = rows(project(g, table).coeffs, "radial_star")
    return out


def apply_K(state, epsilon, table):
    """Matrix-free application of K to one state."""
    image = _k_columns(state.to_flat()[:, None], epsilon, table)
    return state_from_flat(state.m, state.k_max, image[:, 0])


def _tail_mass_ratio(kmat, imap):
    """Fraction of a probe image's coefficient mass in the last decile of
    degrees.  The probe puts a unit coefficient in the lowest admissible slot
    of every component; a healthy truncation leaves its image's tail empty."""
    probe = np.zeros(imap.dim, dtype=complex)
    for name in COMPONENTS:
        probe[imap.index(name, imap.k_lo(name))] = 1.0
    image = kmat @ probe
    cut = imap.k_max - max(1, imap.k_max // 10)
    total = 0.0
    tail = 0.0
    for name in COMPONENTS:
        block = image[imap.sl(name)]
        ks = imap.degrees(name)
        total += float(np.sum(np.abs(block) ** 2))
        tail += float(np.sum(np.abs(block[ks > cut]) ** 2))
    if total == 0.0:
        return 0.0
    return np.sqrt(tail / total)


def assemble_K(m, k_max, epsilon):
    LandauProfile(epsilon)  # domain check
    table = legendre_values(k_max, m)
    imap = StateIndexMap(m, k_max)
    kmat = _k_columns(np.eye(imap.dim), epsilon, table)

    tail = _tail_mass_ratio(kmat, imap)
    if tail > 1e-10:
        raise ValueError(
            f"truncation k_max = {k_max} under-resolves the eps = {epsilon} "
            f"background (tail mass {tail:.2e} in the last degree decile)"
        )
    return OperatorMatrix(m=m, k_max=k_max, epsilon=epsilon,
                          entries=_stream_scaled_real(kmat, imap, "K"))


def assemble_L(m, k_max, epsilon):
    l0 = assemble_L0(m, k_max)
    if epsilon == 0.0:
        return l0
    k = assemble_K(m, k_max, epsilon)
    return OperatorMatrix(m=m, k_max=k_max, epsilon=epsilon,
                          entries=l0.entries + k.entries)


def save_operator(opmat, bin_path, sidecar_path):
    """Column-major complex binary of D A D^-1 plus JSON sidecar; bit-exact
    round trip."""
    tmp = str(bin_path) + ".tmp"
    complex_entries(opmat).ravel(order="F").tofile(tmp)
    os.replace(tmp, bin_path)
    doc = {
        "m": int(opmat.m),
        "k_max": int(opmat.k_max),
        "epsilon": float(opmat.epsilon),
        "index_map": opmat.index_map.describe(),
        "dim": int(opmat.dim),
        "dtype": "complex128",
        "order": "column-major",
    }
    tmp = str(sidecar_path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    os.replace(tmp, sidecar_path)


def load_operator(bin_path, sidecar_path):
    with open(sidecar_path) as fh:
        doc = json.load(fh)
    imap = StateIndexMap(int(doc["m"]), int(doc["k_max"]))
    expected = {"dtype": "complex128", "order": "column-major",
                "dim": imap.dim}
    for name, value in expected.items():
        if doc.get(name) != value:
            raise ValueError(f"sidecar field {name!r} is {doc.get(name)!r}, "
                             f"expected {value!r}")
    dim = imap.dim
    raw = np.fromfile(bin_path, dtype=np.complex128)
    if raw.size != dim * dim:
        raise ValueError(f"matrix file holds {raw.size} entries, expected {dim * dim}")
    entries = _stream_scaled_real(raw.reshape((dim, dim), order="F"), imap,
                                  f"operator file {os.fspath(bin_path)!r}")
    return OperatorMatrix(m=imap.m, k_max=imap.k_max,
                          epsilon=float(doc["epsilon"]), entries=entries)
