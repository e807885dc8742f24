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

K carries the frozen background profile (V tangential, F radial).  Its image
has only (phi', psi', radial_star) rows:

    tangent T = -(V d_theta + max(dV, V cot)) xi - F xi'   componentwise:
      T_theta = -V d_theta(xi_theta) - dV xi_theta - F xi'_theta
      T_phi   = -V d_theta(xi_phi) - V cot(theta) xi_phi - F xi'_phi
    scalar  G = -V d_theta(th) - xi_theta dF + 2 V xi_theta
                + 2 th F - th* F - q F

with phi'-row = invLap(div T), psi'-row = invLap(curl T), and the projection
of G feeding the radial_star row.  Evaluation is pointwise on a Gauss grid
followed by exact projections on the default Gauss rule of k_max
(`sphbasis.legendre_values`); the profiles are rational in cos(theta), so
what that rule and the truncation miss is caught after the fact by a
spectral tail monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import os

import numpy as np

from .landau import LandauProfile, eval_profiles
from .sphbasis import (
    legendre_values,
    laplacian,
    project,
    project_div_curl,
    solve_poisson,
    synthesize,
    tangent_field,
    tangent_field_dtheta,
)
from .statespace import (
    COMPONENTS,
    StateIndexMap,
    state_from_flat,
    zero_state,
)


@dataclass
class OperatorMatrix:
    m: int
    k_max: int
    epsilon: float
    entries: np.ndarray = field(repr=False)

    @property
    def index_map(self):
        return StateIndexMap(self.m, self.k_max)

    @property
    def dim(self):
        return self.entries.shape[0]

    def apply_state(self, state):
        return state_from_flat(self.m, self.k_max,
                               self.entries @ state.to_flat())


def l0_degree_block(k):
    """The 6x6 action of L0 on degree k >= 1, component order as COMPONENTS."""
    kk = float(k * (k + 1))
    b = np.zeros((6, 6))
    i = {name: j for j, name in enumerate(COMPONENTS)}
    b[i["phi"], i["phi_prime"]] = -1.0
    b[i["psi"], i["psi_prime"]] = -1.0
    b[i["phi_prime"], i["phi"]] = -2.0 * kk
    b[i["phi_prime"], i["phi_prime"]] = -1.0
    b[i["phi_prime"], i["radial"]] = 3.0
    b[i["phi_prime"], i["radial_star"]] = 1.0
    b[i["psi_prime"], i["psi"]] = -kk
    b[i["psi_prime"], i["psi_prime"]] = -1.0
    b[i["radial"], i["phi"]] = -kk
    b[i["radial"], i["radial"]] = 1.0
    b[i["radial_star"], i["phi"]] = 3.0 * kk
    b[i["radial_star"], i["radial"]] = -(3.0 + kk)
    b[i["radial_star"], i["radial_star"]] = -2.0
    return b


def assemble_L0(m, k_max):
    if k_max < max(abs(m), 2):
        raise ValueError(f"k_max = {k_max} too small for the L0 assembly at m = {m}")
    imap = StateIndexMap(m, k_max)
    mat = np.zeros((imap.dim, imap.dim), dtype=complex)
    for k in range(max(abs(m), 1), k_max + 1):
        block = l0_degree_block(k)
        slots = [(name, imap.index(name, k))
                 for name in COMPONENTS if imap.k_lo(name) <= k]
        for rname, ridx in slots:
            for cname, cidx in slots:
                mat[ridx, cidx] = block[COMPONENTS.index(rname),
                                        COMPONENTS.index(cname)]
    if m == 0:
        # Degree zero survives only in radial_star: th* -> th* + 3q with
        # q = -th*, hence the isolated eigenvalue -2.
        mat[imap.index("radial_star", 0), imap.index("radial_star", 0)] = -2.0
    return OperatorMatrix(m=m, k_max=k_max, epsilon=0.0, entries=mat)


def background_on_grid(epsilon, grid):
    """Profile arrays used by K: V, F, their derivatives, and V cot(theta)
    evaluated without the pole-singular quotient."""
    prof = eval_profiles(LandauProfile(epsilon), grid.theta)
    c = grid.x
    v_cot = -2.0 * epsilon * c / (1.0 - epsilon * c)
    return {"V": prof["V"], "F": prof["F"], "dV": prof["dV_dtheta"],
            "dF": prof["dF_dtheta"], "V_cot": v_cot}


def _k_integrand(bg, xi, dxi, xip, th, dth, ths, div_xi):
    """Pointwise (T_theta, T_phi, G) of K from the synthesized tangent pairs
    xi, d_theta xi, xi' and the radial scalars; the background arrays in bg
    broadcast against them (one state, or one column per basis state)."""
    (xi_t, xi_p), (dxi_t, dxi_p), (xip_t, xip_p) = xi, dxi, xip
    q = -(div_xi + th + ths)
    t_theta = -bg["V"] * dxi_t - bg["dV"] * xi_t - bg["F"] * xip_t
    t_phi = -bg["V"] * dxi_p - bg["V_cot"] * xi_p - bg["F"] * xip_p
    g = (-bg["V"] * dth - bg["dF"] * xi_t + 2.0 * bg["V"] * xi_t
         + bg["F"] * (2.0 * th - ths - q))
    return t_theta, t_phi, g


def apply_K(state, epsilon, table):
    """Matrix-free application of K to one state (pointwise pipeline)."""
    bg = background_on_grid(epsilon, table.grid)
    xi_t, xi_p = tangent_field(state.phi, state.psi, table)
    dxi_t, dxi_p = tangent_field_dtheta(state.phi, state.psi, table)
    xip_t, xip_p = tangent_field(state.phi_prime, state.psi_prime, table)
    th = synthesize(state.radial, table)
    dth = synthesize(state.radial, table, "dtheta")
    ths = synthesize(state.radial_star, table)
    div_xi = synthesize(laplacian(state.phi), table)
    t_theta, t_phi, g = _k_integrand(bg, (xi_t, xi_p), (dxi_t, dxi_p),
                                     (xip_t, xip_p), th, dth, ths, div_xi)

    div_t, curl_t = project_div_curl(t_theta, t_phi, table)
    out = zero_state(state.m, state.k_max)
    out.phi_prime.coeffs[:] = solve_poisson(div_t).coeffs
    out.psi_prime.coeffs[:] = solve_poisson(curl_t).coeffs
    out.radial_star.coeffs[:] = project(g, table).coeffs
    return out


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
    grid = table.grid
    imap = StateIndexMap(m, k_max)
    n = grid.n_nodes
    am = abs(m)

    # Pointwise synthesis of every flat basis column at once: each (n x dim)
    # array holds one pointwise quantity for all columns.
    z = lambda: np.zeros((n, imap.dim), dtype=complex)
    xi_t, xi_p, dxi_t, dxi_p = z(), z(), z(), z()
    xip_t, xip_p = z(), z()
    th, dth, ths, div_xi = z(), z(), z(), z()

    def rows(name):
        lo = imap.k_lo(name)
        return slice(lo - am, k_max - am + 1)

    for name in ("phi", "psi"):
        r = rows(name)
        sl = imap.sl(name)
        if name == "phi":
            xi_t[:, sl] = table.dtheta[r].T
            xi_p[:, sl] = 1j * table.m_sin[r].T
            dxi_t[:, sl] = table.d2theta[r].T
            dxi_p[:, sl] = 1j * table.dm_sin[r].T
            ks = imap.degrees(name).astype(float)
            div_xi[:, sl] = table.val[r].T * (-ks * (ks + 1.0))
        else:
            xi_t[:, sl] = -1j * table.m_sin[r].T
            xi_p[:, sl] = table.dtheta[r].T
            dxi_t[:, sl] = -1j * table.dm_sin[r].T
            dxi_p[:, sl] = table.d2theta[r].T
    xip_t[:, imap.sl("phi_prime")] = table.dtheta[rows("phi_prime")].T
    xip_p[:, imap.sl("phi_prime")] = 1j * table.m_sin[rows("phi_prime")].T
    xip_t[:, imap.sl("psi_prime")] = -1j * table.m_sin[rows("psi_prime")].T
    xip_p[:, imap.sl("psi_prime")] = table.dtheta[rows("psi_prime")].T
    th[:, imap.sl("radial")] = table.val[rows("radial")].T
    dth[:, imap.sl("radial")] = table.dtheta[rows("radial")].T
    ths[:, imap.sl("radial_star")] = table.val[rows("radial_star")].T

    col = lambda a: a[:, None]
    bg = {key: col(val) for key, val in background_on_grid(epsilon, grid).items()}
    t_theta, t_phi, g = _k_integrand(bg, (xi_t, xi_p), (dxi_t, dxi_p),
                                     (xip_t, xip_p), th, dth, ths, div_xi)

    wt = grid.w
    norm2 = col(table.norms**2)
    div_c = ((table.dtheta * wt) @ (-t_theta) + (table.m_sin * wt) @ (1j * t_phi)) / norm2
    curl_c = ((table.dtheta * wt) @ (-t_phi) + (table.m_sin * wt) @ (-1j * t_theta)) / norm2
    g_c = (table.val * wt) @ g / norm2

    kmat = np.zeros((imap.dim, imap.dim), dtype=complex)
    ks = imap.degrees("phi_prime").astype(float)
    inv_lap = -1.0 / (ks * (ks + 1.0))
    kmat[imap.sl("phi_prime")] = div_c[rows("phi_prime")] * col(inv_lap)
    kmat[imap.sl("psi_prime")] = curl_c[rows("psi_prime")] * col(inv_lap)
    kmat[imap.sl("radial_star")] = g_c[rows("radial_star")]

    tail = _tail_mass_ratio(kmat, imap)
    if tail > 1e-10:
        raise ValueError(
            f"truncation k_max = {k_max} under-resolves the eps = {epsilon} "
            f"background (tail mass {tail:.2e} in the last degree decile)"
        )
    return OperatorMatrix(m=m, k_max=k_max, epsilon=epsilon, entries=kmat)


def assemble_L(m, k_max, epsilon):
    l0 = assemble_L0(m, k_max)
    if epsilon == 0.0:
        return l0
    k = assemble_K(m, k_max, epsilon)
    return OperatorMatrix(m=m, k_max=k_max, epsilon=epsilon,
                          entries=l0.entries + k.entries)


def save_operator(opmat, bin_path, sidecar_path):
    """Column-major complex binary plus JSON sidecar; bit-exact round trip."""
    tmp = str(bin_path) + ".tmp"
    np.asfortranarray(opmat.entries).ravel(order="F").tofile(tmp)
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
    expected = {"dtype": "complex128", "order": "column-major",
                "dim": StateIndexMap(int(doc["m"]), int(doc["k_max"])).dim}
    for name, value in expected.items():
        if doc.get(name) != value:
            raise ValueError(f"sidecar field {name!r} is {doc.get(name)!r}, "
                             f"expected {value!r}")
    dim = int(doc["dim"])
    raw = np.fromfile(bin_path, dtype=np.complex128)
    if raw.size != dim * dim:
        raise ValueError(f"matrix file holds {raw.size} entries, expected {dim * dim}")
    entries = raw.reshape((dim, dim), order="F")
    return OperatorMatrix(m=int(doc["m"]), k_max=int(doc["k_max"]),
                          epsilon=float(doc["epsilon"]), entries=entries)
