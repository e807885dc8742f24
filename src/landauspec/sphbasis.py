"""Associated Legendre tables, quadrature, and surface calculus on S^2.

Everything here works one Fourier mode at a time: a scalar field of mode m is
sum_k c_k Pbar_k^m(cos theta) e^(i m phi), where Pbar_k^m = P_k^m / N_km is
normalized so that the Pbar are orthonormal in L^2([-1, 1], dx).  P_k^m
carries the Condon-Shortley phase (-1)^m.

Derivative and 1/sin(theta) tables are built from order-shift identities
rather than pointwise division, so nothing degenerates at nodes near the
poles:

    d/dtheta P_k^m = [ P_k^(m+1) - (k+m)(k-m+1) P_k^(m-1) ] / 2
    2m P_k^m / sin(theta) = -[ P_(k-1)^(m+1) + (k+m-1)(k+m) P_(k-1)^(m-1) ]

with P_k^(-m) = (-1)^m (k-m)!/(k+m)! P_k^m closing the order range.

Synthesis at the nodes is a product with a table's rows (coeffs @ dtheta
gives d/dtheta of the field); `project` and `project_div_curl` go back.
They are the one place in the library where nodal values become
coefficients (the only readers of the quadrature weights and the table
norms), and they take a block of columns as readily as one field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools

import numpy as np


def default_node_count(k_max):
    """Default Gauss-Legendre node count: exact for the products that arise
    in the operator assemblies, with headroom for the rational eps-profiles."""
    return 2 * k_max + 16


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre rule in x = cos(theta) on [-1, 1]."""

    n_nodes: int
    x: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def build(cls, n_nodes):
        """The rule with n_nodes nodes, built once per node count: every
        caller shares one grid, whose nodes and weights are read-only."""
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        x.flags.writeable = w.flags.writeable = False
        return cls(n_nodes=n_nodes, x=x, w=w)

    @property
    def theta(self):
        return np.arccos(self.x)

    @property
    def sin_theta(self):
        return np.sqrt(1.0 - self.x * self.x)


def legendre_raw(k_max, m, x):
    """Unnormalized P_k^m(x) for k = 0..k_max at points x, order m >= 0.

    Rows with k < m are zero.  Upward three-term recurrence in k (the stable
    direction), seeded by the double-factorial diagonal term.
    """
    if m < 0:
        raise ValueError("legendre_raw expects m >= 0")
    x = np.asarray(x, dtype=float)
    out = np.zeros((k_max + 1, x.size))
    if m > k_max:
        return out
    sin_pow = (1.0 - x * x) ** (m / 2.0)
    dfact = 1.0
    for j in range(1, 2 * m, 2):
        dfact *= j
    out[m] = (-1) ** m * dfact * sin_pow
    if m + 1 <= k_max:
        out[m + 1] = x * (2 * m + 1) * out[m]
    for k in range(m + 1, k_max):
        out[k + 1] = ((2 * k + 1) * x * out[k] - (k + m) * out[k - 1]) / (k - m + 1)
    return out


def _raw_signed(k_max, mu, x):
    """P_k^mu for signed order mu, via the factorial reflection for mu < 0."""
    if mu >= 0:
        return legendre_raw(k_max, mu, x)
    mu = -mu
    tab = legendre_raw(k_max, mu, x)
    fac = np.zeros(k_max + 1)
    for k in range(mu, k_max + 1):
        r = 1.0
        for j in range(k - mu + 1, k + mu + 1):
            r *= j
        fac[k] = (-1) ** mu / r
    return tab * fac[:, None]


def norm_constant(k, m):
    """N_km with integral of (P_k^m)^2 over [-1,1] equal to N_km^2."""
    m = abs(m)
    r = 1.0
    for j in range(k - m + 1, k + m + 1):
        r *= j
    return np.sqrt(2.0 * r / (2 * k + 1))


@dataclass(frozen=True)
class LegendreTable:
    """Normalized-Legendre value and derivative tables at quadrature nodes.

    Arrays are shaped (n_degrees, n_nodes) with rows k = |m| .. k_max:
      val      Pbar_k^m
      dtheta   d/dtheta Pbar_k^m
      m_sin    m Pbar_k^m / sin(theta)        (zero for m = 0)
      d2theta  d^2/dtheta^2 Pbar_k^m
      dm_sin   d/dtheta ( m Pbar_k^m / sin )  (zero for m = 0)
    norms holds the discrete L^2 norms of the val rows (all ~1).
    """

    m: int
    k_max: int
    grid: QuadratureGrid
    val: np.ndarray = field(repr=False)
    dtheta: np.ndarray = field(repr=False)
    m_sin: np.ndarray = field(repr=False)
    d2theta: np.ndarray = field(repr=False)
    dm_sin: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)

    @property
    def k_min(self):
        return abs(self.m)

    def row(self, k):
        return k - self.k_min


def legendre_values(k_max, m, grid=None):
    """Build the LegendreTable for signed order m on the given grid, or on
    the default Gauss rule of k_max: the one quadrature every assembly and
    state construction in the library uses."""
    am = abs(m)
    if am > k_max:
        raise ValueError(f"|m| = {am} exceeds k_max = {k_max}")
    if grid is None:
        grid = QuadratureGrid.build(default_node_count(k_max))
    x = grid.x
    raws = {mu: _raw_signed(k_max, mu, x) for mu in range(am - 2, am + 3)}

    nk = k_max - am + 1
    val = np.zeros((nk, x.size))
    dth = np.zeros((nk, x.size))
    msin = np.zeros((nk, x.size))
    d2 = np.zeros((nk, x.size))
    dmsin = np.zeros((nk, x.size))

    def dtheta_raw(mu, k):
        # d/dtheta P_k^mu via the order-shift identity.
        if k < 0:
            return 0.0
        return 0.5 * (raws[mu + 1][k] - (k + mu) * (k - mu + 1) * raws[mu - 1][k])

    for k in range(am, k_max + 1):
        i = k - am
        n_km = norm_constant(k, am)
        val[i] = raws[am][k] / n_km
        dth[i] = dtheta_raw(am, k) / n_km
        a_up = (k + am + 1) * (k - am)
        a_dn = (k + am) * (k - am + 1)
        a_dn2 = (k + am - 1) * (k - am + 2)
        d2[i] = 0.25 * (
            raws[am + 2][k]
            - (a_up + a_dn) * raws[am][k]
            + a_dn * a_dn2 * raws[am - 2][k]
        ) / n_km
        if am > 0 and k >= 1:
            c_dn = (k + am - 1) * (k + am)
            msin[i] = -0.5 * (raws[am + 1][k - 1] + c_dn * raws[am - 1][k - 1]) / n_km
            dmsin[i] = -0.5 * (
                dtheta_raw(am + 1, k - 1) + c_dn * dtheta_raw(am - 1, k - 1)
            ) / n_km

    if m < 0:
        sign = (-1.0) ** am
        val *= sign
        dth *= sign
        d2 *= sign
        # m_sin and dm_sin carry the signed m, which flips once more.
        msin *= -sign
        dmsin *= -sign

    norms = np.sqrt((val * val) @ grid.w)
    return LegendreTable(m=m, k_max=k_max, grid=grid, val=val, dtheta=dth,
                         m_sin=msin, d2theta=d2, dm_sin=dmsin, norms=norms)


@dataclass
class ModalField:
    """Coefficients c_k of a mode-m scalar over degrees k = |m| .. k_max,
    along the first axis; a projected block keeps its column axis."""

    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    @property
    def k_min(self):
        return abs(self.m)

    @property
    def k_max(self):
        return self.k_min + self.coeffs.shape[0] - 1

    def coeff(self, k):
        return self.coeffs[k - self.k_min]

    def copy(self):
        return ModalField(self.m, self.coeffs.copy())


def zero_field(m, k_max):
    return ModalField(m, np.zeros(k_max - abs(m) + 1, dtype=complex))


def project(values, table):
    """Analysis transform: nodal values of a mode-m scalar -> ModalField.
    Values shaped (nodes, columns) project column by column."""
    if table.grid.n_nodes < table.k_max + 1:
        raise ValueError(
            f"{table.grid.n_nodes} nodes cannot resolve degree {table.k_max}"
        )
    values = np.asarray(values, dtype=complex)
    norm2 = (table.norms**2).reshape(-1, *[1] * (values.ndim - 1))
    coeffs = (table.val * table.grid.w) @ values / norm2
    return ModalField(table.m, coeffs)


def laplacian(field):
    """Surface Laplacian, diagonal in this basis: (Delta f)_k = -k(k+1) f_k."""
    ks = np.arange(abs(field.m), abs(field.m) + field.coeffs.size)
    return ModalField(field.m, -ks * (ks + 1.0) * field.coeffs)


def solve_poisson(rhs):
    """Invert the surface Laplacian on mean-zero data.

    The k = 0 output coefficient is set to zero; for m = 0 the input must not
    have one (the kernel of Delta).
    """
    ks = np.arange(abs(rhs.m), abs(rhs.m) + rhs.coeffs.size)
    coeffs = rhs.coeffs.copy()
    if rhs.m == 0:
        scale = 1.0 + np.linalg.norm(coeffs)
        if abs(coeffs[0]) > 1e-10 * scale:
            raise ValueError(
                f"mean component {coeffs[0]!r} is not invertible by the Laplacian"
            )
        coeffs[0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ks > 0, coeffs / (-ks * (ks + 1.0)), 0.0)
    return ModalField(rhs.m, out)


def project_div_curl(xi_theta, xi_phi, table):
    """Weak-form projections of the surface divergence and curl.

    Integration by parts against Pbar_k^m moves the derivative off the field:
        (div xi)_k  = sum_i w_i [ -xi_theta dtheta_k + i xi_phi m_sin_k ]
        (curl xi)_k = sum_i w_i [ -xi_phi dtheta_k - i xi_theta m_sin_k ]
    Boundary terms vanish (sin(theta) factor).  Exact for band-limited fields.
    Fields shaped (nodes, columns) project column by column.
    """
    wt = table.grid.w
    norm2 = (table.norms**2).reshape(-1, *[1] * (np.ndim(xi_theta) - 1))
    div_c = ((table.dtheta * wt) @ (-xi_theta) + (table.m_sin * wt) @ (1j * xi_phi))
    curl_c = ((table.dtheta * wt) @ (-xi_phi) + (table.m_sin * wt) @ (-1j * xi_theta))
    return (ModalField(table.m, div_c / norm2),
            ModalField(table.m, curl_c / norm2))
