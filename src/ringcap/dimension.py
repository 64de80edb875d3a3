"""Dimension estimation from ball masses.

Everything here reduces to counting measure in metric balls:

* the doubling constant ``max mu(B(x, 2r)) / mu(B(x, r))`` over a sample
  set and a log-spaced radius grid, and the local dimension ``log2`` of it;
* pointwise dimension at a node as the log-log slope of ball mass against
  radius;
* a two-sided volume sandwich comparing ball-mass growth against the
  ``(r / r_ref)^q`` envelopes implied by a local and a pointwise exponent;
* Ahlfors regularity ratios ``mu(B(x, r)) / r^q``.

Radii below five grid steps are rejected: a ball that small holds a
handful of nodes and its mass carries no geometric information.  NaN
inputs are rejected like any other invalid value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import _check_finite, _check_positive

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


def _radius_floor(space) -> float:
    return 5.0 * space.resolution


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
        inner, outer = space.ball_masses(int(x), [radii, 2.0 * radii])
        if np.any(inner <= 0):
            raise ValueError(f"zero-mass ball at node {int(x)}")
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
    if radii.size < 4:
        raise ValueError("need at least four radii")
    _check_positive(radii, "radii")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    if radii[-1] < 10.0 * radii[0] * (1.0 - 1e-12):
        raise ValueError("radii must span at least one decade")
    if radii[0] < _radius_floor(space) * (1.0 - 1e-12):
        raise ValueError("radii below five grid steps are unreliable")
    masses = space.ball_masses(node, radii)
    if np.any(masses <= 0):
        raise ValueError("empty or massless ball in the radius sweep")
    return fit_power_law(radii, masses)


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
    ref_mass = space.ball_mass(node, r_ref)
    if ref_mass <= 0:
        raise ValueError("reference ball has zero mass")
    masses = space.ball_masses(node, radii)
    if np.any(masses <= 0):
        raise ValueError("zero-mass ball in radius sweep")
    ratios = masses / ref_mass
    t = radii / r_ref
    c_lower = float(np.exp(np.mean(np.log(ratios) - q_local * np.log(t))))
    c_upper = float(np.exp(np.mean(np.log(ratios) - q_point * np.log(t))))
    lower_env = c_lower * t**q_local
    upper_env = c_upper * t**q_point
    worst_lower = float((lower_env / ratios).max())
    worst_upper = float((ratios / upper_env).max())
    passed = worst_lower <= 1.2 and worst_upper <= 1.2
    return VolumeSandwich(passed, c_lower, c_upper, worst_lower, worst_upper,
                          radii, ratios)


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
    lo, hi = np.inf, 0.0
    for x in sample_nodes:
        masses = space.ball_masses(int(x), radii)
        if np.any(masses <= 0):
            raise ValueError(f"zero-mass ball at node {int(x)}")
        vals = masses / radii**q
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return AhlforsReport(lo, hi)


@dataclass
class DimensionReport:
    """Bundle of dimension estimates over a sample set."""

    c_doubling: float
    q_local: float
    q_point: dict = field(default_factory=dict)
    fit_residual: float = 0.0
    lower_c: float = np.nan
    upper_c: float = np.nan
    radii: np.ndarray = None
    samples: list = field(default_factory=list)  # (node, radius, ball_mass)


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
    if not 10.0 * _radius_floor(space) <= r_max < np.inf:
        raise ValueError("r_max must be finite and at least 50 grid steps for a decade span")
    c = doubling_constant(space, sample_nodes, r_max)
    q_local = local_dimension(c)
    radii = np.geomspace(r_max / 10.0, r_max, n_radii)
    report = DimensionReport(c, q_local, radii=radii)
    worst_resid = 0.0
    lo_c, hi_c = np.inf, 0.0
    for x in point_nodes:
        fit = pointwise_dimension(space, int(x), radii)
        report.q_point[int(x)] = fit.slope
        worst_resid = max(worst_resid, fit.residual)
        sandwich = check_volume_bounds(space, int(x), r_max, q_local, fit.slope,
                                       radii=radii)
        lo_c = min(lo_c, sandwich.c_lower)
        hi_c = max(hi_c, sandwich.c_upper)
        masses = space.ball_masses(int(x), radii)
        report.samples.extend(
            (int(x), float(r), float(m)) for r, m in zip(radii, masses)
        )
    report.fit_residual = worst_resid
    report.lower_c = lo_c
    report.upper_c = hi_c
    return report

