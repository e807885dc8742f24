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
norms), and they take a block of columns as readily as one field.  A
tangent field enters them with its phi component divided by i, the
stream scaling of the states, so a real block projects to real
coefficients.

The tables on the default rule of k_max depend on (k_max, m) alone, so
`legendre_values` builds each of them once and shares it read-only.

The truncation is chosen here too: `default_k_max(epsilon, m)` is the
k_max at which the eps-background's coefficients have decayed below
TAIL_TOLERANCE, the tail monitor's threshold, with a margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math

import numpy as np

# the largest relative coefficient mass a truncation may leave in its tail:
# the threshold of the assembly's tail monitor, and the target of
# `default_k_max`
TAIL_TOLERANCE = 1e-10


def default_node_count(k_max):
    """Default Gauss-Legendre node count: exact for the products that arise
    in the operator assemblies, with headroom for the rational eps-profiles."""
    return 2 * k_max + 16


def default_k_max(epsilon, m):
    """Truncation for the background of parameter eps in mode m.

    The profiles have a pole at cos(theta) = 1/eps, so the coefficients of
    the operator decay like rho^-k, with the Bernstein-ellipse rate
    rho^-1 = |eps| / (1 + sqrt(1 - eps^2)).  The rule takes the
    ceil(log(TAIL_TOLERANCE) / log(rho^-1)) degrees that this decay needs,
    counted from the lowest degree max(|m|, 1) that the tail monitor's
    probe fills, plus a margin of 5.  At eps = 0 the decay term is its
    limit 1, so the result grows with |eps| from a floor of
    6 + max(|m|, 1).  The margin is one degree more than the tail monitor
    needs anywhere on |eps| <= 0.3 for |m| <= 2: there the rule less one
    degree also passes the monitor.
    """
    e = abs(float(epsilon))
    if not e < 1.0:
        raise ValueError(f"no truncation resolves the background at "
                         f"eps = {epsilon!r}; |eps| must be below 1")
    decay = 1
    if e > 0.0:
        log_rate = math.log(e) - math.log1p(math.sqrt(1.0 - e * e))
        decay = max(1, math.ceil(math.log(TAIL_TOLERANCE) / log_rate))
    return decay + max(abs(m), 1) + 5


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Gauss-Legendre rule in x = cos(theta) on [-1, 1], compared and
    hashed by identity, so a built grid keys the table cache."""

    n_nodes: int
    x: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def build(cls, n_nodes):
        """The rule with n_nodes nodes, built once per node count and
        shared; its nodes and weights are read-only."""
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
    return _legendre_raw(k_max, m, x)


def _legendre_raw(k_max, m, x):
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
        return _legendre_raw(k_max, mu, x)
    mu = -mu
    tab = _legendre_raw(k_max, mu, x)
    fac = np.zeros(k_max + 1)
    for k in range(mu, k_max + 1):
        r = 1.0
        for j in range(k - mu + 1, k + mu + 1):
            r *= j
        fac[k] = (-1) ** mu / r
    return tab * fac[:, None]


def norm_constant(k, m):
    """N_km with integral of (P_k^m)^2 over [-1,1] equal to N_km^2."""
    return _norm_constant(k, m)


def _norm_constant(k, m):
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
    """The LegendreTable for signed order m on the default Gauss rule of
    k_max, the one quadrature every assembly and state construction in the
    library uses, or built fresh on the given grid.

    The default table is built once per (k_max, m) and shared.  The arrays
    of every table are read-only, like the grid's nodes.  A miss goes
    through private names only, so a call tracer sees the same public
    calls whether or not the table was already built."""
    am = abs(m)
    if am > k_max:
        raise ValueError(f"|m| = {am} exceeds k_max = {k_max}")
    if grid is not None:
        return _build_table(k_max, m, grid)
    return _default_table(k_max, m,
                          QuadratureGrid.build(default_node_count(k_max)))


@functools.lru_cache(maxsize=None)
def _default_table(k_max, m, grid):
    """legendre_values' cached builder of the table on the default rule."""
    return _build_table(k_max, m, grid)


def _build_table(k_max, m, grid):
    am = abs(m)
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
        n_km = _norm_constant(k, am)
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
    for arr in (val, dth, msin, d2, dmsin, norms):
        arr.flags.writeable = False
    return LegendreTable(m=m, k_max=k_max, grid=grid, val=val, dtheta=dth,
                         m_sin=msin, d2theta=d2, dm_sin=dmsin, norms=norms)


@dataclass
class ModalField:
    """Coefficients c_k of a mode-m scalar over degrees k = |m| .. k_max,
    along the first axis; a projected block keeps its column axis."""

    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        # real coefficients, as a stream-scaled block has, stay real
        coeffs = np.asarray(self.coeffs)
        if not np.iscomplexobj(coeffs):
            coeffs = coeffs.astype(float, copy=False)
        self.coeffs = coeffs

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
    Values shaped (nodes, columns) project column by column; real values
    give real coefficients."""
    if table.grid.n_nodes < table.k_max + 1:
        raise ValueError(
            f"{table.grid.n_nodes} nodes cannot resolve degree {table.k_max}"
        )
    values = np.asarray(values)
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


def project_div_curl(xi_theta, xi_phi_over_i, table):
    """Weak-form projections of the surface divergence and curl of the
    tangent field (xi_theta, i xi_phi_over_i); the curl comes back divided
    by i as well.

    Integration by parts against Pbar_k^m moves the derivative off the field:
        (div xi)_k      = sum_i w_i [ -xi_theta dtheta_k - u m_sin_k ]
        (curl xi)_k / i = sum_i w_i [ -u dtheta_k - xi_theta m_sin_k ]
    with u = xi_phi_over_i.
    Boundary terms vanish (sin(theta) factor).  Exact for band-limited fields.
    The factor i is the stream scaling of the states: xi = grad(phi) +
    grad_perp(i psi) with real phi and psi is real in this form, so a real
    block projects to real coefficients.  A complex caller passes
    -1j * xi_phi and multiplies the curl by 1j, both exact.
    Fields shaped (nodes, columns) project column by column.
    """
    wt = table.grid.w
    norm2 = (table.norms**2).reshape(-1, *[1] * (np.ndim(xi_theta) - 1))
    dtheta, m_sin = table.dtheta * wt, table.m_sin * wt
    div_c = dtheta @ (-xi_theta) + m_sin @ (-xi_phi_over_i)
    curl_c = dtheta @ (-xi_phi_over_i) + m_sin @ (-xi_theta)
    return (ModalField(table.m, div_c / norm2),
            ModalField(table.m, curl_c / norm2))
