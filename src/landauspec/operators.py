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
the curl comes back so) and cancels where D^-1 scales the psi' row.

K's pipeline has two synthesis front ends over one back end.  The back
end is the pointwise integrand, `_k_integrand`, and `_k_project`: the
weak-form projections of `sphbasis` on a whole block, with invLap a
product with -1/(k(k+1)) (`solve_poisson` divides, which rounds
differently).  `_k_columns` maps any block of stream-scaled flat states
to their images under D^-1 K D by nodal synthesis as products (table rows
times coefficients); a real block gives a float64 image with no complex
temporaries.  `assemble_K` evaluates the background once and runs the
back end on the unit columns, in blocks of at most _K_BLOCK_COLUMNS (192),
on the default Gauss rule of k_max (`sphbasis.legendre_values`, one
shared table per (k_max, m)).  A unit column's nodal values are its
degree's table rows, so they are read off the table with no product: the
integrand runs once per component on its rows, and each block is
projected straight into its columns of one zeroed matrix.  A column's
image does not depend on the other columns of its block, so the entries
are those of one `_k_columns` pass over the identity, while no identity
block is formed and the temporaries scale with the block width rather
than with the dimension.  The profiles are rational in cos(theta), so
what that rule and the truncation miss is caught after the fact by a
spectral tail monitor.

L0 is real as written and does not depend on eps: its entries are one
read-only (rows, cols, values) pattern per (m, k_max), built once, which
`assemble_L0` scatters into zeros and `assemble_L` adds into K's fresh
entries in place.  Every eigensolve runs on the entries, in real LAPACK;
their eigenvalues are those of L, and a real matrix has them in exact
conjugate pairs.  The states keep the complex basis:
`OperatorMatrix.apply_flat` multiplies a complex state as D (A (D^-1 x)),
with two real products.  The operator file holds the entries as they
are, float64 in row-major order, and its sidecar names the stream slots
that D multiplies by i, so `save_operator` writes the array itself and
`load_operator` reads it back with one `np.fromfile`: the round trip is
bit-exact.  Both check that the operator holds L at its eps (the
sidecar's, on load), which the dimension cannot tell: K's pipeline on the
tail monitor's two-column probe at that eps must match the entries times
the probe less L0's pattern times it.  So only L round-trips, and a file
whose sidecar names another eps does not load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import json
import os

import numpy as np

from .landau import LandauProfile, background_on_grid
from .sphbasis import (
    TAIL_TOLERANCE,
    legendre_values,
    project,
    project_div_curl,
)
from .statespace import (
    COMPONENTS,
    STREAM_SLOTS,
    StateIndexMap,
    json_field,
    state_from_flat,
)


def stream_scale(imap):
    """The diagonal of D: i on the stream slots, 1 elsewhere."""
    scale = np.ones(imap.dim, dtype=complex)
    for name in STREAM_SLOTS:
        scale[imap.sl(name)] = 1j
    return scale


def reflection_signs(imap):
    """The diagonal of S, the reflection x3 -> -x3 on a mode block, which
    maps the background at eps to the one at -eps, so L(-eps) = S L(eps) S.
    A degree-k harmonic of order m picks up (-1)^(k+m), and the stream
    slots, a pseudo-scalar, one more sign."""
    signs = np.empty(imap.dim)
    for name in COMPONENTS:
        parity = -1.0 if name in STREAM_SLOTS else 1.0
        signs[imap.sl(name)] = parity * (-1.0) ** (imap.degrees(name) + imap.m)
    return signs


@dataclass
class OperatorMatrix:
    """An assembled operator; entries is its stream-scaled real form
    D^-1 L D in float64."""

    m: int
    k_max: int
    epsilon: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the map is built once; (m, k_max) are not reassigned after this
        self._index_map = StateIndexMap(self.m, self.k_max)
        shape = (self._index_map.dim,) * 2
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
        return self._index_map

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
    (lowest degree, flat offset) pair per component, as read-only arrays;
    built once per layout."""
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


def _l0_pattern(imap):
    """L0's entries on an index map as (rows, cols, values), built once per
    slot layout, so once per (|m|, k_max).  The layout is read through the
    map on every call, so a miss goes through private names only and a
    call tracer sees the same public calls whether or not the pattern was
    already built."""
    m, k_max = imap.m, imap.k_max
    if k_max < max(abs(m), 2):
        raise ValueError(f"k_max = {k_max} too small for the L0 assembly at m = {m}")
    return _l0_scatter(k_max, tuple((imap.k_lo(name), imap.sl(name).start)
                                    for name in COMPONENTS))


def assemble_L0(m, k_max):
    imap = StateIndexMap(m, k_max)
    rows, cols, values = _l0_pattern(imap)
    mat = np.zeros((imap.dim, imap.dim))
    mat[rows, cols] = values
    return OperatorMatrix(m=m, k_max=k_max, epsilon=0.0, entries=mat)


def k_entries(lmat):
    """K of an assembled operator in the stream-scaled real form: a copy of
    its entries with L0's pattern taken out, byte for byte the entries
    minus those of `assemble_L0`."""
    rows, cols, values = _l0_pattern(lmat.index_map)
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


def _k_columns(x, bg, table, imap):
    """Images under D^-1 K D of the stream-scaled flat states, indexed by
    imap, in the columns of x, against the background arrays bg of
    `landau.background_on_grid` on the table's grid: nodal synthesis of
    every component (table rows times coefficients), the K integrand, then
    `_k_project`.  The phi components of the tangent pairs, T_phi and the
    curl are carried divided by i, so a real block stays real.  It takes
    any block; `assemble_K` reads its unit columns' nodal values off the
    table instead."""
    am = abs(table.m)

    def rows(arr, name):
        # the per-degree rows of a table-shaped array that name's slots use
        return arr[imap.k_lo(name) - am:]

    def nodal(kind, name):
        # (n_nodes x ncols) values of one component through one table
        return rows(getattr(table, kind), name).T @ x[imap.sl(name)]

    def tangent(d, msin, phi, psi):
        # (xi_theta, xi_phi / i) of grad(phi) + grad_perp(i psi)
        return (nodal(d, phi) + nodal(msin, psi),
                nodal(msin, phi) + nodal(d, psi))

    ks = imap.degrees("phi").astype(float)
    t_theta, t_phi, g = _k_integrand(
        {key: val[:, None] for key, val in bg.items()},
        tangent("dtheta", "m_sin", "phi", "psi"),
        tangent("d2theta", "dm_sin", "phi", "psi"),
        tangent("dtheta", "m_sin", "phi_prime", "psi_prime"),
        nodal("val", "radial"), nodal("dtheta", "radial"),
        nodal("val", "radial_star"),
        (rows(table.val, "phi").T * -(ks * (ks + 1.0))) @ x[imap.sl("phi")])
    out = np.zeros(x.shape, dtype=np.result_type(x, float))
    _k_project(t_theta, t_phi, g, table, imap, out)
    return out


def _unit_terms(name, table, k0, count):
    """The arguments of `_k_integrand` after bg for the unit columns of one
    component at degrees k0 .. k0 + count - 1.  A unit column's nodal
    values are its degree's table rows, so each term is a (nodes x count)
    view of one table, and a term the component does not fill is the
    scalar 0.0."""
    first = k0 - abs(table.m)
    val, d, ms, d2, dms = (arr[first:first + count].T for arr in (
        table.val, table.dtheta, table.m_sin, table.d2theta, table.dm_sin))
    zero = (0.0, 0.0)
    # (xi, d_theta xi, xi', th, d_theta th, th*, div xi), a tangent pair
    # being (xi_theta, xi_phi / i) of grad(phi) or of grad_perp(i psi)
    if name == "phi":
        ks = np.arange(k0, k0 + count, dtype=float)
        div_xi = val * -(ks * (ks + 1.0))
        return (d, ms), (d2, dms), zero, 0.0, 0.0, 0.0, div_xi
    if name == "psi":
        return (ms, d), (dms, d2), zero, 0.0, 0.0, 0.0, 0.0
    if name == "phi_prime":
        return zero, zero, (d, ms), 0.0, 0.0, 0.0, 0.0
    if name == "psi_prime":
        return zero, zero, (ms, d), 0.0, 0.0, 0.0, 0.0
    if name == "radial":
        return zero, zero, zero, val, d, 0.0, 0.0
    return zero, zero, zero, 0.0, 0.0, val, 0.0


def _k_project(t_theta, t_phi, g, table, imap, out):
    """Write into the phi', psi' and radial_star rows of out, indexed by
    imap, the images of the states whose pointwise K integrand
    (T_theta, T_phi / i, G) fills the columns of the nodal blocks: the
    weak-form projections of `sphbasis`, with invLap a product with
    -1/(k(k+1)) (`solve_poisson` divides, which rounds differently).  The
    other rows of out are the caller's zeros."""
    am = abs(table.m)

    def rows(field, name):
        # the degrees of a projected block that name's slots use
        return field.coeffs[imap.k_lo(name) - am:]

    ks = imap.degrees("phi_prime").astype(float)  # psi_prime shares them
    inv_lap = (-1.0 / (ks * (ks + 1.0)))[:, None]
    div, curl = project_div_curl(t_theta, t_phi, table)
    out[imap.sl("phi_prime")] = rows(div, "phi_prime") * inv_lap
    out[imap.sl("psi_prime")] = rows(curl, "psi_prime") * inv_lap
    out[imap.sl("radial_star")] = rows(project(g, table), "radial_star")


def _probe(imap):
    """D^-1 times the probe with a unit coefficient in the lowest admissible
    slot of every component, held as its real and imaginary parts: two
    real columns.  A stream-scaled operator applied to it gives the moduli
    of the operator times the probe, entry by entry."""
    probe = np.zeros((imap.dim, 2))
    for name in COMPONENTS:
        part = int(name in STREAM_SLOTS)  # D^-1 probe is -i there
        probe[imap.sl(name).start, part] = 1.0
    return probe


def _tail_mass_ratio(kmat, imap):
    """Fraction of the probe image's coefficient mass in the last decile of
    degrees; a healthy truncation leaves its tail empty.  kmat is
    D^-1 K D."""
    mass = np.sum((kmat @ _probe(imap)) ** 2, axis=1)
    total = mass.sum()
    if total == 0.0:
        return 0.0
    degrees = np.concatenate([imap.degrees(name) for name in COMPONENTS])
    cut = imap.k_max - max(1, imap.k_max // 10)
    return float(np.sqrt(mass[degrees > cut].sum() / total))


# Unit columns per pass of the K pipeline in `assemble_K`.  An operator of
# this dimension or less (k_max <= 31 at every |m| <= 2) is one block; a
# larger one keeps its temporaries at this width instead of its dimension.
_K_BLOCK_COLUMNS = 192


def assemble_K(m, k_max, epsilon):
    """K in the stream-scaled real form, under the tail monitor.  Its unit
    columns go through K's pipeline in blocks of at most
    _K_BLOCK_COLUMNS: each component's columns in a block take their
    nodal values off the table rows (`_unit_terms`), one `_k_integrand`
    call per component writes its integrand into the block's nodal
    arrays, and one `_k_project` call projects the whole block into the
    block's columns of the entries."""
    LandauProfile(epsilon)  # domain check
    table = legendre_values(k_max, m)
    imap = StateIndexMap(m, k_max)
    bg = {key: val[:, None]
          for key, val in background_on_grid(epsilon, table.grid).items()}
    n = imap.dim
    kmat = np.zeros((n, n))
    for start in range(0, n, _K_BLOCK_COLUMNS):
        stop = min(start + _K_BLOCK_COLUMNS, n)
        t_theta, t_phi, g = (np.empty((table.grid.n_nodes, stop - start))
                             for _ in range(3))
        for name in COMPONENTS:
            sl = imap.sl(name)
            lo, hi = max(sl.start, start), min(sl.stop, stop)
            if lo >= hi:
                continue
            cols = slice(lo - start, hi - start)
            k0 = imap.k_lo(name) + lo - sl.start
            t_theta[:, cols], t_phi[:, cols], g[:, cols] = _k_integrand(
                bg, *_unit_terms(name, table, k0, hi - lo))
        # one projection at the block's width: narrower products (one per
        # component, say) round differently from `_k_columns`
        _k_project(t_theta, t_phi, g, table, imap, kmat[:, start:stop])

    tail = _tail_mass_ratio(kmat, imap)
    if tail > TAIL_TOLERANCE:
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
    in place into the entries of the fresh K that `assemble_K` returns,
    which becomes L; bit for bit the sum of the two matrices because K
    holds no -0.0."""
    if epsilon == 0.0:
        return assemble_L0(m, k_max)
    lmat = assemble_K(m, k_max, epsilon)
    rows, cols, values = _l0_pattern(lmat.index_map)
    lmat.entries[rows, cols] += values
    return lmat


def save_operator(opmat, bin_path, sidecar_path):
    """The entries as they are (float64 D^-1 L D, row-major) and a JSON
    sidecar that names the stream slots; bit-exact round trip.  Only L at
    its eps is written, as only that loads: K alone, say, raises first."""
    _check_epsilon(opmat.entries, opmat.index_map, opmat.epsilon,
                   "the operator to save does not hold L at its epsilon")
    tmp = str(bin_path) + ".tmp"
    opmat.entries.tofile(tmp)
    os.replace(tmp, bin_path)
    doc = {
        "m": int(opmat.m),
        "k_max": int(opmat.k_max),
        "epsilon": float(opmat.epsilon),
        "index_map": opmat.index_map.describe(),
        "dim": int(opmat.dim),
        "dtype": "float64",
        "order": "row-major",
        "stream_slots": list(STREAM_SLOTS),
    }
    tmp = str(sidecar_path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    os.replace(tmp, sidecar_path)


# The largest gap, relative to max |L|, that `save_operator` and
# `load_operator` accept between the K of an operator's entries and K
# assembled at its eps, both on the probe.  Rounding leaves below 3e-18 (|m| <= 2, k_max 12-96,
# eps 0-0.8); eps 1% off leaves above 3e-8, and 0.3 for 0.05 above 2e-5.
_EPSILON_TOLERANCE = 1e-12


def _check_epsilon(entries, imap, epsilon, failure):
    """Check that stream-scaled entries hold L at epsilon: K's pipeline
    run on the probe at epsilon against the entries times the probe less
    L0's pattern times it.  Reads the entries in one product and two
    reductions, with no copy of them; a mismatch raises ValueError,
    failure first."""
    probe = _probe(imap)
    table = legendre_values(imap.k_max, imap.m)
    want = _k_columns(probe, background_on_grid(epsilon, table.grid), table,
                      imap)
    rows, cols, values = _l0_pattern(imap)
    got = entries @ probe
    np.subtract.at(got, rows, values[:, None] * probe[cols])
    gap = float(np.abs(got - want).max())
    bound = _EPSILON_TOLERANCE * float(max(entries.max(), -entries.min()))
    if not gap <= bound:
        raise ValueError(f"{failure} {epsilon!r}: its K on the probe is "
                         f"{gap:.3e} from K at that epsilon, above "
                         f"{bound:.3e} ({_EPSILON_TOLERANCE:.0e} max|L|)")


def load_operator(bin_path, sidecar_path):
    """The operator that `save_operator` wrote, after checking the
    sidecar's fields against its (m, k_max) and the file's byte size.  The
    entries are read with one `np.fromfile` into the array returned; a
    non-finite one is named by its row and column, and the entries must
    then hold L at the sidecar's epsilon."""
    with open(sidecar_path) as fh:
        doc = json.load(fh)
    epsilon = json_field(doc, "epsilon", float)
    imap = StateIndexMap(json_field(doc, "m", int),
                         json_field(doc, "k_max", int))
    dim = imap.dim
    expected = {"dtype": "float64", "order": "row-major",
                "stream_slots": list(STREAM_SLOTS), "dim": dim,
                "index_map": imap.describe()}
    for name, value in expected.items():
        if doc.get(name) != value:
            raise ValueError(f"sidecar field {name!r} is {doc.get(name)!r}, "
                             f"expected {value!r}")
    # checked before reading: fromfile drops a partial trailing item
    size = os.path.getsize(bin_path)
    want = 8 * dim * dim  # float64
    if size != want:
        raise ValueError(f"matrix file {os.fspath(bin_path)!r} holds {size} "
                         f"bytes, expected {want} (float64, dim {dim})")
    source = f"operator file {os.fspath(bin_path)!r}"
    entries = np.fromfile(bin_path, np.float64).reshape(dim, dim)
    finite = np.isfinite(entries)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(f"{source} has a non-finite entry at row {i}, "
                         f"column {j}")
    _check_epsilon(entries, imap, epsilon,
                   f"{source} does not hold L at the sidecar's epsilon")
    return OperatorMatrix(m=imap.m, k_max=imap.k_max,
                          epsilon=epsilon, entries=entries)
