"""Dimension estimation from ball masses.

Everything here reduces to counting measure in metric balls:

* the doubling constant ``max mu(B(x, 2r)) / mu(B(x, r))`` over a sample
  set and a log-spaced radius grid, and the local dimension ``log2`` of it;
* pointwise dimension at a node as the log-log slope of ball mass against
  radius;
* a two-sided volume sandwich comparing ball-mass growth against the
  ``(r / r_ref)^q`` envelopes implied by a local and a pointwise exponent;
* Ahlfors regularity ratios ``mu(B(x, r)) / r^q``.

Each estimator reads a node's masses in one ``DiscreteSpace.ball_masses``
sweep and requires all of them positive; the sandwich's reference mass comes
from that sweep too.  Radii below five grid steps are rejected: a ball that
small holds a handful of nodes and its mass carries no geometric
information.  NaN inputs are rejected like any other invalid value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import _check_finite, _check_positive, _check_radius_floor, _radius_floor

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "doubling_constant",
    "local_dimension",
    "pointwise_dimension",
    "VolumeSandwich",
    "check_volume_bounds",
    "AhlforsReport",
    "ahlfors_regularity",
    "DimensionReport",
    "analyze_dimension",
]


@dataclass
class PowerLawFit:
    """Least-squares power law y = exp(intercept) * x**slope.

    ``residual`` is the maximum relative deviation of the fitted curve from
    the data, max |fit - y| / y.
    """

    slope: float
    intercept: float
    residual: float

    def __call__(self, x):
        return np.exp(self.intercept) * np.asarray(x, dtype=float) ** self.slope


def fit_power_law(x, y) -> PowerLawFit:
    """Fit y ~ C x^s by ordinary least squares in log-log coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least two points to fit a power law")
    _check_positive(np.array([x, y]), "power-law data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.exp(slope * lx + intercept - ly)
    return PowerLawFit(float(slope), float(intercept), float(np.abs(resid - 1.0).max()))


def _ball_masses(space, node, radii):  # one sweep, every mass positive
    masses = space.ball_masses(node, radii)
    _check_positive(masses, f"ball masses at node {node}")
    return masses


def _check_sweep(radii, space):  # four or more, increasing over a decade, from 5h
    if radii.size < 4:
        raise ValueError("need at least four radii")
    _check_positive(radii, "radii")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    if radii[-1] < 10.0 * radii[0] * (1.0 - 1e-12):
        raise ValueError("radii must span at least one decade")
    _check_radius_floor(radii[0], space)


def doubling_constant(space, sample_nodes, r_max) -> float:
    """Largest observed ratio mu(B(x, 2r)) / mu(B(x, r)).

    Radii run over a log-spaced grid of 12 radii with ``5h <= r`` and
    ``2r <= r_max``.
    Growing the sample set can only increase the result.
    """
    sample_nodes = np.atleast_1d(np.asarray(sample_nodes, dtype=np.int64))
    if sample_nodes.size == 0:
        raise ValueError("sample node set must be nonempty")
    floor = _radius_floor(space)
    if not 2.0 * floor <= r_max < np.inf:
        raise ValueError(f"r_max must be finite and at least 10 grid steps ({2 * floor:g})")
    radii = np.geomspace(floor, r_max / 2.0, 12)
    best = 0.0
    for x in sample_nodes:
        inner, outer = _ball_masses(space, int(x), [radii, 2.0 * radii])
        best = max(best, float((outer / inner).max()))
    return best


def local_dimension(c_doubling) -> float:
    """Dimension carried by a doubling constant: log2(C).

    A measure with doubling constant C has mass growth exponent at most
    log2(C); C = 1 degenerates to dimension 0.
    """
    if not 1 <= c_doubling < np.inf:
        raise ValueError("doubling constant must be finite and at least 1")
    return float(np.log2(c_doubling))


def pointwise_dimension(space, node, radii) -> PowerLawFit:
    """Power-law fit of ball mass against radius at one node.

    Requires at least four strictly increasing radii spanning a decade,
    none below five grid steps; the slope of the returned fit is the
    pointwise dimension estimate.
    """
    radii = np.asarray(radii, dtype=float)
    _check_sweep(radii, space)
    return fit_power_law(radii, _ball_masses(space, node, radii))


@dataclass
class VolumeSandwich:
    """Result of the two-sided ball-mass comparison at one node."""

    passed: bool
    c_lower: float
    c_upper: float
    worst_lower: float  # largest factor by which the lower envelope exceeds data
    worst_upper: float  # largest factor by which data exceeds the upper envelope
    radii: np.ndarray
    ratios: np.ndarray


def check_volume_bounds(space, node, r_ref, q_local, q_point,
                        radii=None) -> VolumeSandwich:
    """Fit envelope constants and test the two-sided volume comparison.

    With ``ratio(r) = mu(B(x, r)) / mu(B(x, r_ref))`` the test fits
    ``c_lower`` and ``c_upper`` (geometric means) so that ideally

        c_lower (r/r_ref)^q_local  <=  ratio(r)  <=  c_upper (r/r_ref)^q_point

    and passes when neither side is violated by more than 20% at any
    sampled radius.  A measure whose growth genuinely
    deviates from a power law (for example mass clamped to zero on an
    annulus) fails.
    """
    _check_positive(r_ref, "reference radius")
    _check_finite([q_local, q_point], "dimension exponents")
    if radii is None:
        radii = np.geomspace(_radius_floor(space), r_ref, 10)
    radii = np.asarray(radii, dtype=float)
    if not np.all((radii > 0) & (radii <= r_ref * (1 + 1e-12))):
        raise ValueError("radii must lie in (0, r_ref]")
    masses = _ball_masses(space, node, np.append(radii, r_ref))
    ratios = masses[:-1] / masses[-1]
    envelopes = _envelopes(radii / r_ref, ratios, q_local, q_point)
    passed = max(envelopes[2:]) <= 1.2  # neither worst factor above 1.2
    return VolumeSandwich(passed, *envelopes, radii, ratios)


def _envelopes(t, ratios, q_local, q_point):
    """Geometric-mean constants of ``c t^q_local`` and ``c t^q_point``
    against ``ratios``, and the worst factor by which each side is violated."""
    log_t, log_ratios = np.log(t), np.log(ratios)
    c_lower, c_upper = (float(np.exp(np.mean(log_ratios - q * log_t)))
                        for q in (q_local, q_point))
    worst_lower = float((c_lower * t**q_local / ratios).max())
    worst_upper = float((ratios / (c_upper * t**q_point)).max())
    return c_lower, c_upper, worst_lower, worst_upper


@dataclass
class AhlforsReport:
    min_ratio: float
    max_ratio: float

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio


def ahlfors_regularity(space, q, sample_nodes, radii) -> AhlforsReport:
    """Extremes of mu(B(x, r)) / r^q over sample nodes and radii.

    A spread near 1 indicates Ahlfors q-regularity at the tested scales; a
    spread growing as radii shrink indicates the wrong exponent.
    """
    sample_nodes = np.atleast_1d(np.asarray(sample_nodes, dtype=np.int64))
    radii = np.asarray(radii, dtype=float)
    if sample_nodes.size == 0 or radii.size == 0:
        raise ValueError("need nonempty samples and radii")
    _check_positive(radii, "radii")
    _check_finite(q, "dimension exponent q")
    vals = np.array([_ball_masses(space, x, radii) / radii**q for x in sample_nodes.tolist()])
    return AhlforsReport(float(vals.min()), float(vals.max()))


@dataclass
class DimensionReport:
    """Bundle of dimension estimates over a sample set."""

    c_doubling: float
    q_local: float
    q_point: dict
    fit_residual: float
    lower_c: float
    upper_c: float
    radii: np.ndarray
    samples: list  # (node, radius, ball_mass)


def analyze_dimension(space, sample_nodes, r_max, point_nodes=None,
                      n_radii=10) -> DimensionReport:
    """Doubling constant, pointwise dimensions, and volume sandwich in one go.

    ``sample_nodes`` feed the doubling maximum; ``point_nodes`` (default:
    first three samples) get pointwise fits over a decade of radii ending
    at ``r_max``, which therefore must be at least 50 grid steps.
    """
    sample_nodes = np.atleast_1d(np.asarray(sample_nodes, dtype=np.int64))
    if point_nodes is None:
        point_nodes = sample_nodes[:3]
    point_nodes = np.atleast_1d(np.asarray(point_nodes, dtype=np.int64))
    if sample_nodes.size == 0 or point_nodes.size == 0:
        raise ValueError("need nonempty sample and point node sets")
    if not _radius_floor(space) <= r_max / 10.0 < np.inf:
        raise ValueError("r_max must be finite and at least 50 grid steps for a decade span")
    c = doubling_constant(space, sample_nodes, r_max)
    q_local = local_dimension(c)
    radii = np.geomspace(r_max / 10.0, r_max, n_radii)  # radii[-1] is r_max exactly
    _check_sweep(radii, space)
    q_point, samples = {}, []
    worst_resid, lo_c, hi_c = 0.0, np.inf, 0.0
    for x in point_nodes.tolist():
        masses = _ball_masses(space, x, radii)
        fit = fit_power_law(radii, masses)
        q_point[x] = fit.slope
        worst_resid = max(worst_resid, fit.residual)
        lower, upper, _, _ = _envelopes(radii / r_max, masses / masses[-1], q_local, fit.slope)
        lo_c, hi_c = min(lo_c, lower), max(hi_c, upper)
        samples.extend((x, float(r), float(m)) for r, m in zip(radii, masses))
    return DimensionReport(c, q_local, q_point, worst_resid, lo_c, hi_c, radii, samples)

