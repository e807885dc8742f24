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
of G feeding the radial_star row.

L is real up to the phase of the stream slots: every block is real or
purely imaginary, and the imaginary blocks are exactly the couplings
between (psi, psi') and the other four slots.  With D = diag(i on psi and
psi', 1 elsewhere) (`stream_scale`), `OperatorMatrix.entries` holds the
stream-scaled D^-1 L D as a contiguous float64 array, and K is computed
in that form from the start.  Writing psi = i psi_r on the stream slots,
xi_theta, its slopes, T_theta, G and div T are real, while xi_phi, T_phi
and curl T each carry exactly one factor i; that factor stays implicit
(the phi component enters `sphbasis.project_div_curl` divided by i, and
the curl comes back so) and cancels where D^-1 scales the psi' row.  One
pipeline, `_k_columns`, maps a block of stream-scaled flat states to
their images under D^-1 K D: nodal synthesis (table rows times
coefficients), the pointwise integrand, then the weak-form projections of
`sphbasis` on the whole block, with invLap a product with -1/(k(k+1))
(`solve_poisson` divides, which rounds differently).  A real block gives
a float64 image with no complex temporaries.  `assemble_K` feeds it every
unit column on the default Gauss rule of k_max (`sphbasis.legendre_values`,
one shared table per (k_max, m)); `apply_K` scales a complex state by
D^-1 before and by D after.  The profiles are rational in cos(theta), so
what that rule and the truncation miss is caught after the fact by a
spectral tail monitor.

L0 is real as written and does not depend on eps: its entries are one
read-only (rows, cols, values) pattern per (m, k_max), built once, which
`assemble_L0` scatters into zeros and `assemble_L` adds into K's fresh
entries in place.  Every eigensolve runs on the entries, in real LAPACK;
their eigenvalues are those of L, and a real matrix has them in exact
conjugate pairs.  The states and the operator file keep the complex
basis.  `OperatorMatrix.apply_flat` multiplies a complex state as
D (A (D^-1 x)), with two real products.  `complex_entries` forms the
matrix D A D^-1 for `save_operator` alone, and `load_operator` converts
it back, checking that the imaginary part it drops is exactly 0.0; each
factor of the scaling is 1, i or -i, which rounds nothing, so the round
trip is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
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
        """D A D^-1 times a complex flat state, as D (A (D^-1 x)): one real
        product for each of the real and imaginary parts, so no complex
        matrix is formed."""
        scale = stream_scale(self.index_map)
        x = flat * scale.conj()
        return scale * (self.entries @ x.real + 1j * (self.entries @ x.imag))

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
    complex128 array: the matrix the operator file holds.  Every factor is
    1, i or -i, which rounds nothing; adding 0.0 turns each zero part into
    +0.0."""
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


@functools.lru_cache(maxsize=None)
def _l0_scatter(k_max, layout):
    """(rows, cols, values) of the coupling table on a slot layout, one
    (lowest degree, flat offset) pair per component, as read-only arrays."""
    slots = dict(zip(COMPONENTS, layout))
    parts = []
    for row, col, a, b in _L0_COUPLINGS:
        (lo_r, off_r), (lo_c, off_c) = slots[row], slots[col]
        ks = np.arange(max(lo_r, lo_c), k_max + 1)
        parts.append((off_r + ks - lo_r, off_c + ks - lo_c,
                      (a + b * ks * (ks + 1)).astype(float)))
    pattern = tuple(np.concatenate(arrs) for arrs in zip(*parts))
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def _l0_pattern(m, k_max):
    """L0's entries as (rows, cols, values), built once per slot layout, so
    once per (|m|, k_max).  The layout is read through the index map on
    every call, so a miss goes through private names only and a call
    tracer sees the same public calls whether or not the pattern was
    already built."""
    if k_max < max(abs(m), 2):
        raise ValueError(f"k_max = {k_max} too small for the L0 assembly at m = {m}")
    imap = StateIndexMap(m, k_max)
    return _l0_scatter(k_max, tuple((imap.k_lo(name), imap.sl(name).start)
                                    for name in COMPONENTS))


def assemble_L0(m, k_max):
    rows, cols, values = _l0_pattern(m, k_max)
    dim = StateIndexMap(m, k_max).dim
    mat = np.zeros((dim, dim))
    mat[rows, cols] = values
    return OperatorMatrix(m=m, k_max=k_max, epsilon=0.0, entries=mat)


def k_entries(lmat):
    """K of an assembled operator in the stream-scaled real form: a copy of
    its entries with L0's pattern taken out, byte for byte the entries
    minus those of `assemble_L0`."""
    rows, cols, values = _l0_pattern(lmat.m, lmat.k_max)
    kmat = lmat.entries.copy()
    kmat[rows, cols] -= values
    return kmat


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
    """Images under D^-1 K D of the stream-scaled flat states in the
    columns of x (dim x ncols): nodal synthesis of every component, the K
    integrand, then the weak-form projections with the inverse Laplacian
    applied as a product.  The phi components of the tangent pairs, T_phi
    and the curl are carried divided by i, so a real block stays real."""
    imap = StateIndexMap(table.m, table.k_max)
    am = abs(table.m)

    def rows(arr, name):
        # the per-degree rows of a table-shaped array that name's slots use
        return arr[imap.k_lo(name) - am:]

    def nodal(kind, name, weight=1.0):
        # (n_nodes x ncols) values of one component through one table
        return (rows(getattr(table, kind), name).T * weight) @ x[imap.sl(name)]

    def tangent(d, msin, phi, psi):
        # (xi_theta, xi_phi / i) of grad(phi) + grad_perp(i psi)
        return (nodal(d, phi) + nodal(msin, psi),
                nodal(msin, phi) + nodal(d, psi))

    ks = imap.degrees("phi").astype(float)  # the primed pair shares them
    kk = ks * (ks + 1.0)
    bg = {key: val[:, None]
          for key, val in background_on_grid(epsilon, table.grid).items()}
    t_theta, t_phi, g = _k_integrand(
        bg, tangent("dtheta", "m_sin", "phi", "psi"),
        tangent("d2theta", "dm_sin", "phi", "psi"),
        tangent("dtheta", "m_sin", "phi_prime", "psi_prime"),
        nodal("val", "radial"), nodal("dtheta", "radial"),
        nodal("val", "radial_star"), nodal("val", "phi", -kk))

    div, curl = project_div_curl(t_theta, t_phi, table)
    # times -1/(k(k+1)); solve_poisson divides instead and rounds differently
    inv_lap = (-1.0 / kk)[:, None]
    out = np.zeros(x.shape, dtype=np.result_type(x, float))
    out[imap.sl("phi_prime")] = rows(div.coeffs, "phi_prime") * inv_lap
    out[imap.sl("psi_prime")] = rows(curl.coeffs, "psi_prime") * inv_lap
    out[imap.sl("radial_star")] = rows(project(g, table).coeffs, "radial_star")
    return out


def apply_K(state, epsilon, table):
    """Matrix-free application of K to one state: D^-1 on the way into the
    stream-scaled pipeline and D on the way out, both exact."""
    scale = stream_scale(state.index_map)
    image = _k_columns((state.to_flat() * scale.conj())[:, None], epsilon,
                       table)
    return state_from_flat(state.m, state.k_max, image[:, 0] * scale)


def _tail_mass_ratio(kmat, imap):
    """Fraction of a probe image's coefficient mass in the last decile of
    degrees.  The probe puts a unit coefficient in the lowest admissible slot
    of every component; a healthy truncation leaves its image's tail empty.
    kmat is D^-1 K D, so it is applied to D^-1 probe, held as its real and
    imaginary parts, two real columns; the image has the moduli of K probe
    entry by entry."""
    probe = np.zeros((imap.dim, 2))
    for name in COMPONENTS:
        part = int(name in STREAM_SLOTS)  # D^-1 probe is -i there
        probe[imap.index(name, imap.k_lo(name)), part] = 1.0
    mass = np.sum((kmat @ probe) ** 2, axis=1)
    cut = imap.k_max - max(1, imap.k_max // 10)
    total = 0.0
    tail = 0.0
    for name in COMPONENTS:
        block = mass[imap.sl(name)]
        ks = imap.degrees(name)
        total += float(np.sum(block))
        tail += float(np.sum(block[ks > cut]))
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
    if not np.isfinite(kmat).all():
        raise ValueError("K has a non-finite entry")
    kmat += 0.0  # -0.0 to +0.0: L0 added in place equals the dense sum
    return OperatorMatrix(m=m, k_max=k_max, epsilon=epsilon, entries=kmat)


def assemble_L(m, k_max, epsilon):
    """L = L0 + K in the stream-scaled real form: L0's cached pattern added
    into K's fresh entries in place, bit for bit the sum of the two
    matrices because K holds no -0.0."""
    if epsilon == 0.0:
        return assemble_L0(m, k_max)
    rows, cols, values = _l0_pattern(m, k_max)
    entries = assemble_K(m, k_max, epsilon).entries
    entries[rows, cols] += values
    return OperatorMatrix(m=m, k_max=k_max, epsilon=epsilon, entries=entries)


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
