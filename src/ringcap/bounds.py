"""Closed-form two-sided capacity estimates for metric rings.

For a ring with inner radius r, outer radius R, exponent p and pointwise
dimension q at the center, the capacity admits matching lower and upper
envelopes whose shape switches at the critical exponent p = q:

* below (1 < p < q): both sides scale like ``mu(B) / r^p``;
* critical (p = q): both sides carry the factor ``log(R/r)^(1-q)``;
* above (p > q): both sides follow ``|(2R)^a - r^a|^(1-p)`` with
  ``a = (p - q)/(p - 1)``, approaching a positive constant as r -> 0.

Each envelope is a scale statement: it pins the exponents of r, R and the
ball mass but holds only up to a multiplicative structure constant, which
is normalized to 1 here.  All remaining factors are written out exactly,
so values are reproducible numbers rather than order estimates.  A
pointwise Riesz-type potential of the gradient completes the module.
``regime``, both envelopes, ``estimate_ring`` and ``riesz_potential``
check p, r, R, q_center and a given q_local by the NaN-safe input rules
defined in ``spaces``.  ``REGIME_TOL`` decides the tie p = q for the
package: ``regime`` calls it critical, ``profiles.power_profile`` is the
log shape there, and the below-regime upper envelope raises at q_local = p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import _check_dimension, _check_exponent, _check_positive, _check_radii

__all__ = [
    "regime",
    "lower_bound",
    "upper_bound",
    "RegimeEstimate",
    "estimate_ring",
    "riesz_potential",
]

REGIME_TOL = 1e-9


def regime(p, q_center) -> str:
    """Classify the exponent against the pointwise dimension.

    Returns "below", "critical" or "above"; ties within ``REGIME_TOL`` are
    critical.
    """
    _check_exponent(p)
    _check_dimension(q_center, "pointwise dimension")
    if abs(p - q_center) <= REGIME_TOL:
        return "critical"
    return "below" if p < q_center else "above"


def _checked_regime(r, R, p, q_center, mass_inner, q_local=None):
    """The regime of a checked ring, and its q_local (default q_center)."""
    _check_radii(r, R)
    if not mass_inner >= 0:
        raise ValueError("inner ball mass must be nonnegative")
    which = regime(p, q_center)
    q_local = q_center if q_local is None else q_local
    _check_dimension(q_local, "local dimension q_local")
    return which, q_local


# Each branch constant is written once, in _lower or _upper, so the envelopes
# and the ``constants`` that estimate_ring reports cannot drift apart.


def _lower(which, r, R, p, q_center, mass_inner):
    """Branch constant and value of the lower envelope."""
    gap = 1.0 - r / R
    if which == "below":
        c = (1.0 - 2.0 ** (-(q_center - p) / (p - 1.0))) ** (p - 1.0)
        return c, c * gap ** (p * (p - 1.0)) * mass_inner / r**p
    if which == "critical":
        q = q_center
        c = mass_inner / r**q
        return c, c * gap ** (q * (q - 1.0)) * np.log(R / r) ** (1.0 - q)
    a = (p - q_center) / (p - 1.0)
    c = (mass_inner / r**q_center) * (2.0**a - 1.0) ** (p - 1.0)
    return c, c * gap ** (p * (p - 1.0)) * abs((2.0 * R) ** a - r**a) ** (1.0 - p)


def _upper(which, r, R, p, q_center, mass_inner, q_local):
    """Branch constant and value of the upper envelope."""
    if which == "below":
        if abs(p - q_local) <= REGIME_TOL:
            raise ValueError("below-regime upper envelope is infinite at q_local = p")
        c = abs(1.0 - (R / r) ** ((p - q_local) / (p - 1.0))) ** (-p)
        return c, c * mass_inner / r**p
    if which == "critical":
        c = mass_inner / r**q_center
        return c, c * np.log(R / r) ** (1.0 - q_center)
    a = (p - q_center) / (p - 1.0)
    c = (2.0**a - 1.0) ** (-1.0)
    return c, c * abs((2.0 * R) ** a - r**a) ** (1.0 - p)


def lower_bound(r, R, p, q_center, mass_inner) -> float:
    """Lower capacity envelope of the ring (structure constant 1).

    ``mass_inner`` is the measure of the inner ball B(center, r).  The
    below and above branches vanish as r -> R because of the
    ``(1 - r/R)^(p(p-1))`` factor; the critical branch carries
    ``(1 - r/R)^(q(q-1))`` and ``log(R/r)^(1-q)``.
    """
    which, _ = _checked_regime(r, R, p, q_center, mass_inner)
    return _lower(which, r, R, p, q_center, mass_inner)[1]


def upper_bound(r, R, p, q_center, mass_inner, q_local=None) -> float:
    """Upper capacity envelope of the ring (structure constant 1).

    The below branch is driven by the local dimension ``q_local`` (default:
    ``q_center``) through the exponent ``(p - q)/(p - 1)``; the critical
    branch by ``log(R/r)^(1-q)``; the above branch is the pure radial term
    ``|(2R)^a - r^a|^(1-p)`` without a mass factor.  The below branch
    raises where q_local ties with p within ``REGIME_TOL``.
    """
    which, q_local = _checked_regime(r, R, p, q_center, mass_inner, q_local)
    return _upper(which, r, R, p, q_center, mass_inner, q_local)[1]


@dataclass
class RegimeEstimate:
    """Both envelopes of one ring plus the constants that entered them."""

    regime: str
    lower: float
    upper: float
    r: float
    R: float
    p: float
    q_center: float
    q_local: float
    mass_inner: float
    constants: dict


def estimate_ring(r, R, p, q_center, mass_inner, q_local=None) -> RegimeEstimate:
    """Evaluate both envelopes and record the branch constants."""
    which, q_local = _checked_regime(r, R, p, q_center, mass_inner, q_local)
    c_lower, lo = _lower(which, r, R, p, q_center, mass_inner)
    c_upper, hi = _upper(which, r, R, p, q_center, mass_inner, q_local)
    return RegimeEstimate(which, lo, hi, r, R, p, q_center, q_local, mass_inner,
                          {"c_lower": c_lower, "c_upper": c_upper})


def riesz_potential(space, field, node, center, r, p) -> float:
    """Riesz-type potential of the gradient surrogate at one node.

    For a field supported in the open ball B(center, r) and a node x in
    that ball, evaluates

        ( r^(p-1) * sum_y lip(y)^p * d(x,y) / mu(B(x, d(x,y))) * m(y) )^(1/p)

    over ball nodes y != x.  Doubling the field doubles the result.
    """
    _check_exponent(p)
    _check_positive(r, "ball radius r")
    d_center = space.distances_from(center)
    dx = space.distances_from(node)  # checks the id before it indexes a row
    node = int(node)
    if d_center[node] >= r:
        raise ValueError("evaluation node must lie in the open ball")
    support = np.abs(field.u) > 1e-12
    if np.any(support & (d_center >= r)):
        raise ValueError("field must be supported in the open ball")
    ball = np.nonzero(d_center < r)[0]
    ball = ball[ball != node]
    if ball.size == 0:
        return 0.0
    ball_mass_at = space.ball_masses(node, dx[ball])
    _check_positive(ball_mass_at, f"ball masses at node {node}")
    terms = field.lip[ball] ** p * dx[ball] / ball_mass_at * space.mass[ball]
    return float((r ** (p - 1.0) * terms.sum()) ** (1.0 / p))
