"""Singular functions: discrete analogues of p-harmonic Green functions.

A singular function with pole x0 on a domain is built from the condenser
potential u of (closed ball B(x0, rho), domain) by the normalization

    G = cap^(1 / (1 - p)) * u,

which makes the level-set capacity identity

    cap({G >= b}, {G > a}) * (b - a)^(p - 1) = 1

hold exactly in the continuum.  On a grid the identity survives up to a
bounded band, and the pole value max G scales with resolution in a
regime-dependent way: growing like a power of 1/h below the critical
exponent, like log(1/h) at it, and staying bounded above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import regime
from .dimension import fit_power_law
from .solver import CapacityResult, Condenser, solve_condenser
from .spaces import _check_exponent, _check_positive, _edge_components

__all__ = [
    "SingularFunction",
    "build_green",
    "LevelSetReport",
    "check_level_sets",
    "TrendReport",
    "blowup_trend",
    "MaxPrincipleReport",
    "maximum_principle_check",
]


@dataclass
class SingularFunction:
    """Normalized condenser potential with its pole data."""

    values: np.ndarray
    center: int
    p: float
    rho: float
    cap_inner: float
    domain: np.ndarray
    result: CapacityResult
    plate: np.ndarray  # node ids of the pole plate, the closed ball B(center, rho)

    @property
    def max_value(self) -> float:
        return float(self.values.max())


def build_green(space, domain, center, p, rho=None, tol=1e-6) -> SingularFunction:
    """Construct the singular function with pole ``center`` on ``domain``.

    ``rho`` is the radius of the inner plate standing in for the pole;
    the default, three grid steps, keeps the plate a few nodes wide at
    every resolution so the normalizing capacity stays stable.
    """
    _check_exponent(p)
    if rho is None:
        rho = 3.0 * space.resolution
    _check_positive(rho, "pole radius")
    plate = space.closed_ball(center, rho)
    # the solve checks the condenser; the pole lies in its plate, so a plate
    # inside the domain puts the pole there too
    cond = Condenser(plate, domain)
    res = solve_condenser(space, cond, p, tol=tol)
    cap = res.value
    if cap <= 0:
        raise ValueError("condenser capacity vanished; domain has no boundary")
    values = cap ** (1.0 / (1.0 - p)) * res.u
    return SingularFunction(values, int(center), float(p), float(rho), cap, cond.domain,
                            res, plate)


@dataclass
class LevelSetReport:
    """Capacity identity checks across level-set pairs.

    ``entries`` rows are (a, b, capacity, ratio) with ratio =
    cap * (b - a)^(p - 1), or (a, b, None, None) for pairs whose level
    sets were empty on the grid; those are listed in ``notices``.
    ``results`` holds the ``CapacityResult`` of each entry's solve, or
    None for a skipped pair.
    """

    entries: list
    notices: list
    band: float
    passed: bool
    results: list


def check_level_sets(space, sf: SingularFunction, pairs, tol=1e-6,
                     band_limit=4.0) -> LevelSetReport:
    """Test cap({G >= b}, {G > a}) * (b - a)^(p-1) across value pairs.

    The pair (0, max G) reproduces the defining condenser up to the
    discrete plate, so its ratio is forced to 1; other pairs must stay in
    a band of width ``band_limit`` around it.

    A level condenser with the pole's own plate and domain, as the pair
    (0, max G) has unless plateau nodes widen its plate, is the pole
    condenser: if the pole's solve, ``sf.result``, converged within ``tol``,
    the pair takes it and is not solved again.  Every other level condenser
    is solved from clip((G - a) / (b - a), 0, 1), which is already close to
    its minimizer.  Convergence is judged against the cold-start gradient,
    as in every solve, so the guess does not move the target.
    """
    g = sf.values
    pole = sf.result
    reuse = pole.converged and pole.residual < tol
    entries, notices, ratios, results = [], [], [], []
    for a, b in pairs:
        a, b = float(a), float(b)
        if not 0.0 <= a < b:
            raise ValueError("need 0 <= a < b in each level pair")
        upper = np.nonzero(g >= b * (1.0 - 1e-12))[0]
        lower = np.nonzero(g > a)[0]
        if upper.size == 0 or lower.size == upper.size:
            notices.append(f"level {b:g} above the pole value; pair skipped" if upper.size == 0
                           else f"levels {a:g}..{b:g} leave no free nodes; pair skipped")
            entries.append((a, b, None, None))
            results.append(None)
            continue
        if reuse and np.array_equal(lower, sf.domain) and np.array_equal(upper, sf.plate):
            res = pole
        else:
            res = solve_condenser(space, Condenser(upper, lower), sf.p, tol=tol,
                                  x0=np.clip((g - a) / (b - a), 0.0, 1.0))
        ratio = res.value * (b - a) ** (sf.p - 1.0)
        entries.append((a, b, res.value, ratio))
        results.append(res)
        ratios.append(ratio)
    if ratios:
        band = float(max(ratios) / min(ratios))
        passed = band <= band_limit
    else:
        band, passed = np.inf, False
    return LevelSetReport(entries, notices, band, passed, results)


@dataclass
class TrendReport:
    """Pole values across resolutions with regime-appropriate fits."""

    regime: str
    resolutions: np.ndarray
    max_values: np.ndarray
    power_slope: float  # slope of log(max G) against log(1/h)
    log_slope: float    # slope of max G against log(1/h)
    log_residual: float
    bounded_change: float  # relative spread of max G across levels
    converged: np.ndarray  # whether the pole solve at each level converged

    @property
    def bounded(self) -> bool:
        return self.bounded_change <= 0.1


def _check_ladder(hs):
    """The grid steps of a refinement ladder: at least three, decreasing."""
    if len(hs) < 3:
        raise ValueError("need at least three resolution levels")
    if not np.all(np.diff(hs) < 0):
        raise ValueError("resolution levels must be strictly refining")


def blowup_trend(levels, p, q_center, tol=1e-6) -> TrendReport:
    """Track the pole value of the singular function as the grid refines.

    ``levels`` is a sequence of (space, domain, center) triples ordered by
    decreasing resolution; at least three are required.  Each level gets
    :func:`build_green`'s default pole plate of three grid steps, so the
    construction shrinks with h.
    """
    levels = list(levels)
    hs = np.array([space.resolution for space, _, _ in levels])
    _check_ladder(hs)
    gmax, converged = np.zeros(hs.size), np.zeros(hs.size, dtype=bool)
    for k, (space, domain, center) in enumerate(levels):
        sf = build_green(space, domain, center, p, tol=tol)
        gmax[k], converged[k] = sf.max_value, sf.result.converged
    which = regime(p, q_center)
    inv = 1.0 / hs
    power = fit_power_law(inv, gmax)
    log_slope, log_icept = np.polyfit(np.log(inv), gmax, 1)
    fitted = log_slope * np.log(inv) + log_icept
    spread = gmax.max() - gmax.min()
    log_residual = float(np.abs(gmax - fitted).max() / max(spread, 1e-300))
    bounded_change = float(spread / max(abs(gmax).max(), 1e-300))
    return TrendReport(which, hs, gmax, power.slope, float(log_slope),
                       log_residual, bounded_change, converged)


@dataclass
class MaxPrincipleReport:
    worst_excess: float      # max over interior nodes of G - max(neighbor G)
    min_component_value: float
    positive_ok: bool
    passed: bool


def maximum_principle_check(space, sf: SingularFunction) -> MaxPrincipleReport:
    """No interior node of a singular function may top all its neighbors.

    Interior means: in the domain but outside the pole plate; an excess up
    to 1e-9 max(1, max G) passes as rounding.  Also checks strict
    positivity on the pole's connected component of the domain.
    """
    g = sf.values
    n = space.n_nodes
    in_domain = np.zeros(n, dtype=bool)
    in_domain[sf.domain] = True
    interior = in_domain.copy()
    interior[sf.plate] = False

    nbr_max = space._neighbour_max(g)
    ei, ej = space.edges[:, 0], space.edges[:, 1]
    has_nbr = nbr_max > -np.inf
    check = interior & has_nbr
    scale = max(1.0, sf.max_value)
    worst = float((g[check] - nbr_max[check]).max()) if check.any() else -np.inf

    labels = _edge_components(n, space.edges, in_domain[ei] & in_domain[ej])
    comp = in_domain & (labels == labels[sf.center])
    min_val = float(g[comp].min())
    positive_ok = min_val > 0.0
    passed = worst <= 1e-9 * scale and positive_ok
    return MaxPrincipleReport(worst, min_val, positive_ok, passed)
