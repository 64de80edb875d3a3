"""Radial test potentials and their discrete p-energies.

A radial profile is a scalar shape ``t -> h(t)`` equal to 1 up to the
inner radius and 0 beyond the outer radius.  Composed with the distance
from a center node it yields an admissible condenser potential whose
energy upper-bounds the capacity.  Two shapes cover the three exponent
regimes:

* a power shape driven by the exponent ``(p - q) / (p - 1)`` (used both
  below and above the critical exponent, with the appropriate dimension
  plugged in), and
* a logarithmic shape for the critical case ``p = q``.

Energies come in two discrete forms: the edge form sums
``edge_mass * |du/len|^p`` over edges (this is the solver's objective),
the node form sums ``mass * lip^p`` with the node Lipschitz surrogate
``lip(x) = max incident |du| / len``.

The edge quotients and node maxima of a field come from the space
(``DiscreteSpace._edge_quotients``): a grid of ``build_euclidean_grid``
computes them by axis slabs of the node values, with no gather of edge
ends and no ``np.maximum.at``, and every other space gathers and scatters.

A radial field is flat inside the inner ball and beyond the outer radius,
so about half of its edge quotients are exact zeros.  The powers at
p != 2 skip them, and the dyadic shells bin the open ring's nodes alone,
in node order.  Every kernel gives the plain formulas' values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import REGIME_TOL
from .spaces import _check_exponent, _check_finite, _check_radii

__all__ = [
    "RadialProfile",
    "power_profile",
    "log_profile",
    "PotentialField",
    "field_from_values",
    "radialize",
    "EnergySplit",
    "p_energy",
    "ShellEnergies",
    "dyadic_shell_energy",
]


class RadialProfile:
    """Piecewise radial shape: 1 on [0, r], interpolating on (r, R), 0 beyond.

    Instances are callable on scalars or arrays; ``deriv`` evaluates the
    derivative of the interpolating branch (zero outside the open ring).
    """

    def __init__(self, kind, r, R, value_fn, deriv_fn):
        _check_radii(r, R)
        self.kind = kind
        self.r = float(r)
        self.R = float(R)
        self._value = value_fn
        self._deriv = deriv_fn

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        below = t <= self.r
        ring = t < self.R
        ring ^= below  # r < R, so the ball lies in t < R; NaN is in neither
        out = np.asarray(below, dtype=float)
        out[ring] = np.clip(self._value(t[ring]), 0.0, 1.0)
        return out if out.ndim else float(out)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        ring = (t > self.r) & (t < self.R)
        out[ring] = self._deriv(t[ring])
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"RadialProfile({self.kind}, r={self.r:g}, R={self.R:g})"


def power_profile(r, R, p, q) -> RadialProfile:
    """Power-law ring profile for exponent p against dimension q.

    On the ring the shape is ``(t^a - R^a) / (r^a - R^a)`` with
    ``a = (p - q) / (p - 1)``; for p < q it decays like the fundamental
    radial solution, for p > q it is the increasing-exponent analogue.
    At a tie within ``bounds.REGIME_TOL`` it is its a -> 0 limit, ``log_profile``.
    """
    _check_exponent(p)
    _check_radii(r, R)
    _check_finite(q, "dimension q")
    if abs(p - q) <= REGIME_TOL:
        return log_profile(r, R)
    a = (p - q) / (p - 1.0)
    denom = r**a - R**a

    def value(t):
        return (t**a - R**a) / denom

    def deriv(t):
        return a * t ** (a - 1.0) / denom

    return RadialProfile("power", r, R, value, deriv)


def log_profile(r, R) -> RadialProfile:
    """Logarithmic ring profile log(R/t) / log(R/r), the critical-case shape."""
    _check_radii(r, R)
    scale = np.log(R / r)

    def value(t):
        return np.log(R / t) / scale

    def deriv(t):
        return -1.0 / (t * scale)

    return RadialProfile("log", r, R, value, deriv)


@dataclass
class PotentialField:
    """Node potential with derived edge and node gradient surrogates.

    u      : node values
    g_edge : |u_i - u_j| / length per edge
    lip    : per node, the largest incident edge quotient
    """

    u: np.ndarray
    g_edge: np.ndarray
    lip: np.ndarray


def field_from_values(space, u) -> PotentialField:
    """Wrap node values, computing edge quotients and node Lipschitz bounds."""
    u = np.asarray(u, dtype=float)
    if u.shape != (space.n_nodes,):
        raise ValueError("u must have one value per node")
    _check_finite(u, "u")
    return PotentialField(u, *space._edge_quotients(u))


def radialize(space, center, profile) -> PotentialField:
    """Compose a radial profile with the distance from a center node."""
    return field_from_values(space, profile(space.distances_from(center)))


def _power(x, p):
    """``x ** p`` elementwise, bit for bit, without numpy's slow path on
    zero bases.

    About half the edge quotients of a radialized ring are exact zeros;
    they stay +0.0 uncomputed.  At p = 2 numpy squares, as ``x ** 2.0``
    does, which costs less than the mask.  NaN, infinite and negative
    entries go through numpy as in ``x ** p``.
    """
    if p == 2:
        return np.square(x)
    return np.power(x, p, out=np.zeros_like(x), where=x != 0)


@dataclass
class EnergySplit:
    """Edge-form and node-form discrete p-energies of one field."""

    edge: float
    node: float


def p_energy(space, field, p) -> EnergySplit:
    """Discrete p-energy of a potential field, both forms.

    The edge form is the solver's objective and the reported value in all
    capacity comparisons; the node form (Lipschitz surrogate) is the one
    that partitions exactly over node sets.
    """
    _check_exponent(p)
    edge = float((space.edge_masses() * _power(field.g_edge, p)).sum())
    node = float((space.mass * _power(field.lip, p)).sum())
    return EnergySplit(edge, node)


@dataclass
class ShellEnergies:
    """Node-form energy of a ring split over dyadic shells."""

    k0: int
    counts: np.ndarray
    energies: np.ndarray

    @property
    def total(self) -> float:
        return float(self.energies.sum())


def dyadic_shell_energy(space, field, center, r, R, p) -> ShellEnergies:
    """Split the node-form ring energy over dyadic shells [2^k r, 2^(k+1) r).

    The shell count is k0 = floor(log2(R / r)); shell k collects ring nodes
    with 2^k r <= d < min(2^(k+1) r, R) (shell 0 starts strictly above r).
    The shell energies sum exactly to the node-form energy of the open ring.
    """
    _check_exponent(p)
    _check_radii(r, R)
    k0 = int(np.floor(np.log2(R / r)))
    while 2.0 ** (k0 + 1) * r <= R:
        k0 += 1
    while 2.0**k0 * r > R:
        k0 -= 1
    d = space.distances_from(center)
    ring = np.flatnonzero((d > r) & (d < R))
    contrib = space.mass[ring] * _power(field.lip[ring], p)
    shell_of = np.clip(np.floor(np.log2(d[ring] / r)).astype(int), 0, k0)
    # bincount adds each shell's terms in node order, as np.add.at does
    counts = np.bincount(shell_of, minlength=k0 + 1)
    energies = np.bincount(shell_of, weights=contrib, minlength=k0 + 1)
    return ShellEnergies(k0, counts, energies)
