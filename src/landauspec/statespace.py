"""State representation for the linearized problem, one Fourier mode at a time.

A state bundles six modal scalars: the potential and stream function (phi,
psi) of the tangent field xi = grad(phi) + grad_perp(psi), the same pair
(phi', psi') for the scaled radial derivative xi', the radial velocity
component (here "radial"), and the modified radial derivative
radial_star = radial' - q.  The pressure trace q is never stored; it is
recovered from the constraint div xi + radial + radial_star + q = 0.

Structurally absent slots (degrees k < |m|, the k = 0 potential gauge slot,
and the k = 0 mean of radial when m = 0) are excluded from the flat indexing
used by the eigensolves.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .sphbasis import ModalField, zero_field

COMPONENTS = ("phi", "psi", "phi_prime", "psi_prime", "radial", "radial_star")

# the stream function pair: closed under the zero-background operator, and
# the slots whose scaling by i makes the linearized operator real
STREAM_SLOTS = ("psi", "psi_prime")

# Sobolev weight exponents of the X inner product, slot by slot: the pairing
# of degree-k coefficients carries (k(k+1))^s with
#   potentials       s = 3   (Laplacian of the potential, measured in H^1)
#   primed potentials s = 2  (Laplacian measured in L^2)
#   radial           s = 2   (H^2)
#   radial_star      s = 1   (H^1), k = 0 slot weighted 1
_X_EXPONENT = {"phi": 3, "psi": 3, "phi_prime": 2, "psi_prime": 2,
               "radial": 2, "radial_star": 1}


def component_k_min(name, m):
    """Lowest admissible degree of a component at mode m."""
    am = abs(m)
    if name in ("phi", "psi", "phi_prime", "psi_prime"):
        return max(am, 1)
    if name == "radial":
        return max(am, 1) if m == 0 else am
    if name == "radial_star":
        return am
    raise ValueError(f"unknown component {name!r}")


@dataclass(frozen=True)
class StateIndexMap:
    """Bijection between (component, degree) slots and flat vector indices."""

    m: int
    k_max: int

    def __post_init__(self):
        if self.k_max < max(abs(self.m), 1):
            raise ValueError(f"k_max = {self.k_max} too small for m = {self.m}")
        # (lowest degree, flat offset) of each component and the dimension,
        # computed once
        lows = [component_k_min(c, self.m) for c in COMPONENTS]
        offsets = list(itertools.accumulate(
            (self.k_max - lo + 1 for lo in lows), initial=0))
        object.__setattr__(self, "_slots", dict(
            zip(COMPONENTS, zip(lows, offsets))))
        object.__setattr__(self, "_dim", offsets[-1])

    def k_lo(self, name):
        return self._slots[name][0]

    def count(self, name):
        return self.k_max - self.k_lo(name) + 1

    @property
    def dim(self):
        return self._dim

    def index(self, name, k):
        """Flat index of degree k of a component; k may be an array."""
        lo, off = self._slots[name]
        scalar = isinstance(k, (int, np.integer))
        k_min, k_top = (k, k) if scalar else (np.min(k), np.max(k))
        if not lo <= k_min <= k_top <= self.k_max:
            raise ValueError(f"degree {k} not admissible for {name} at m={self.m}")
        return off + k - lo

    def degrees(self, name):
        return np.arange(self.k_lo(name), self.k_max + 1)

    def sl(self, name):
        off = self._slots[name][1]
        return slice(off, off + self.count(name))

    def describe(self):
        return {c: [int(self.k_lo(c)), int(self.k_max)] for c in COMPONENTS}


@dataclass
class StateVector:
    """Six modal components sharing one mode m and truncation k_max."""

    m: int
    phi: ModalField
    psi: ModalField
    phi_prime: ModalField
    psi_prime: ModalField
    radial: ModalField
    radial_star: ModalField

    def __post_init__(self):
        fields = self.components()
        k_max = fields["phi"].k_max
        for name, f in fields.items():
            if f.m != self.m or f.k_max != k_max:
                raise ValueError(f"component {name} disagrees on (m, k_max)")
        # the map is built once; (m, k_max) are not reassigned after this
        self._index_map = StateIndexMap(self.m, k_max)
        # Structurally absent slots must be zero.
        scale = 1.0 + max(np.max(np.abs(f.coeffs)) for f in fields.values())
        for name, f in fields.items():
            lo = self._index_map.k_lo(name)
            head = f.coeffs[: lo - f.k_min]
            if head.size and np.max(np.abs(head)) > 1e-13 * scale:
                raise ValueError(
                    f"component {name} has mass below its admissible degree {lo}"
                )
            f.coeffs[: lo - f.k_min] = 0.0

    def components(self):
        return {"phi": self.phi, "psi": self.psi,
                "phi_prime": self.phi_prime, "psi_prime": self.psi_prime,
                "radial": self.radial, "radial_star": self.radial_star}

    @property
    def k_max(self):
        return self.phi.k_max

    @property
    def index_map(self):
        return self._index_map

    def to_flat(self):
        imap = self.index_map
        out = np.zeros(imap.dim, dtype=complex)
        for name, f in self.components().items():
            lo = imap.k_lo(name)
            out[imap.sl(name)] = f.coeffs[lo - f.k_min:]
        return out


def zero_state(m, k_max):
    return StateVector(m, *(zero_field(m, k_max) for _ in COMPONENTS))


def state_from_flat(m, k_max, vec):
    st = zero_state(m, k_max)
    imap = st.index_map
    vec = np.asarray(vec, dtype=complex)
    if vec.size != imap.dim:
        raise ValueError(f"flat vector length {vec.size}, expected {imap.dim}")
    for name, f in st.components().items():
        lo = imap.k_lo(name)
        f.coeffs[lo - f.k_min:] = vec[imap.sl(name)]
    return st


def x_weights(imap):
    """Diagonal of the X inner product in flat indexing."""
    w = np.zeros(imap.dim)
    for name in COMPONENTS:
        ks = imap.degrees(name).astype(float)
        kk = ks * (ks + 1.0)
        kk[kk == 0.0] = 1.0
        w[imap.sl(name)] = kk ** _X_EXPONENT[name]
    return w


def x_inner(a, b):
    """The X inner product, linear in a, conjugate-linear in b."""
    if a.m != b.m or a.k_max != b.k_max:
        raise ValueError("states live on different (m, k_max)")
    w = x_weights(a.index_map)
    return complex(np.sum(w * a.to_flat() * np.conj(b.to_flat())))


def x_norm(a):
    return float(np.sqrt(x_inner(a, a).real))


def state_to_json_dict(state):
    return {
        "m": int(state.m),
        "k_max": int(state.k_max),
        "components": {
            name: [[float(c.real), float(c.imag)] for c in f.coeffs]
            for name, f in state.components().items()
        },
    }


def _json_entry(doc, key):
    if not isinstance(doc, dict):
        raise ValueError(f"file document must be a JSON object, got a "
                         f"{type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"file has no field {key!r}")
    return doc[key]


def is_json_number(value, kind):
    """A JSON integer (kind int) or finite JSON number (kind float): no
    bool, NaN, Infinity or int beyond the float range (abs is exact)."""
    return (not isinstance(value, bool) and isinstance(value, (int, kind))
            and (kind is int or abs(value) <= sys.float_info.max))


def json_field(doc, key, kind):
    """``doc[key]`` of a document read from a file, checked to be a JSON
    integer (``kind`` int) or a JSON number (``kind`` float) and returned as
    ``kind``; a bool is neither, nor is the NaN or Infinity that Python's
    json module reads, and a fraction is never truncated."""
    value = _json_entry(doc, key)
    if not is_json_number(value, kind):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"file field {key!r} must be {what}, got {value!r}")
    return kind(value)


def state_from_json_dict(doc):
    m = json_field(doc, "m", int)
    k_max = json_field(doc, "k_max", int)
    StateIndexMap(m, k_max)  # rejects an (m, k_max) that has no state
    size = k_max - abs(m) + 1
    components = _json_entry(doc, "components")
    fields = []
    for name in COMPONENTS:
        # the length is checked before an array of it is allocated
        pairs = _json_entry(components, name)
        if not isinstance(pairs, list) or len(pairs) != size:
            got = (f"a list of {len(pairs)}" if isinstance(pairs, list)
                   else repr(pairs))
            raise ValueError(f"component {name!r} must be a list of "
                             f"{size} [re, im] pairs, got {got}")
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and all(
                    is_json_number(part, float) for part in pair)):
                raise ValueError(f"component {name!r} entry {i} must be an "
                                 f"[re, im] pair of finite numbers, got "
                                 f"{pair!r}")
        fields.append(ModalField(m, np.array(
            [complex(re, im) for re, im in pairs], dtype=complex)))
    return StateVector(m, *fields)


def save_state_json(state, path):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state_to_json_dict(state), fh, indent=1)
    os.replace(tmp, path)


def load_state_json(path):
    with open(path) as fh:
        return state_from_json_dict(json.load(fh))
