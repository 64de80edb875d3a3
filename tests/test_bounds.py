"""Closed-form ring bounds, the pointwise potential, singleton limits, and
the input rules of spaces that every layer checks."""

import inspect
import math

import numpy as np
import pytest

from conftest import origin_node
from oracles import chain_capacity, radial_ring_capacity
from ringcap import (
    DiscreteSpace,
    RadialProfile,
    ahlfors_regularity,
    analyze_dimension,
    build_double_cone,
    build_euclidean_grid,
    build_glued_balls,
    build_green,
    build_heisenberg_grid,
    check_volume_bounds,
    doubling_constant,
    dyadic_shell_energy,
    estimate_ring,
    field_from_values,
    fit_power_law,
    local_dimension,
    log_profile,
    lower_bound,
    p_energy,
    pointwise_dimension,
    power_profile,
    radialize,
    regime,
    relative_capacity,
    riesz_potential,
    ring_condenser,
    singleton_capacity_limit,
    solve_condenser,
    upper_bound,
)


# ----------------------------------------------------------------------
# regime classification
# ----------------------------------------------------------------------

def test_regime_decisions():
    assert regime(2.0, 3.0) == "below"
    assert regime(4.0, 2.0) == "above"
    assert regime(2.0, 2.0) == "critical"
    # fitted dimensions land near the tie; snap within tolerance
    assert regime(2.0, 2.0 + 1e-12) == "critical"
    assert regime(2.0, 2.0 - 1e-12) == "critical"
    assert regime(2.0, 2.0 + 1e-6) == "below"


def test_regime_validation():
    with pytest.raises(ValueError):
        regime(1.0, 2.0)
    with pytest.raises(ValueError):
        regime(2.0, 0.5)
    with pytest.raises(ValueError):
        regime(2.0, math.inf)


# ----------------------------------------------------------------------
# closed forms, arithmetic pinned by hand
# ----------------------------------------------------------------------

def test_critical_lower_bound_value():
    # (mass / r^q) (1 - r/R)^(q(q-1)) (log R/r)^(1-q) at q = 2, R = e^2 r
    expected = math.pi * (1.0 - math.e**-2) ** 2 / 2.0
    assert lower_bound(1.0, math.e**2, 2.0, 2.0, math.pi) == pytest.approx(expected, rel=1e-12)


def test_critical_upper_bound_value():
    assert upper_bound(1.0, math.e**2, 2.0, 2.0, math.pi) == pytest.approx(math.pi / 2, rel=1e-12)


def test_critical_upper_bound_unit_log():
    # r = R/e makes the log factor exactly one
    mass = 2.31
    r = 0.4
    val = upper_bound(r, math.e * r, 3.0, 3.0, mass)
    assert val == pytest.approx(mass / r**3, rel=1e-12)


def test_below_lower_bound_value():
    # q = 3, p = 2: prefactor (1 - 2^(-1))^1 = 1/2, shape (1 - r/R)^2 mass/r^2
    mass = 4.0 * math.pi / 3.0 * 1e-3
    expected = 0.5 * (1.0 - 0.25) ** 2 * mass / 0.01
    assert lower_bound(0.1, 0.4, 2.0, 3.0, mass) == pytest.approx(expected, rel=1e-12)


def test_below_upper_bound_value():
    # |1 - (R/r)^((p-q)/(p-1))|^(-p) mass / r^p
    r, R, p, q, mass = 0.1, 0.4, 2.0, 3.0, 0.7
    expected = abs(1.0 - 4.0 ** ((2.0 - 3.0) / 1.0)) ** -2.0 * mass / r**2
    assert upper_bound(r, R, p, q, mass) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("gap", [0.0, 5e-10, -5e-10])
def test_below_upper_bound_rejects_a_local_dimension_tied_with_p(gap):
    # (R/r)^0 = 1 leaves 0^(-p): no finite envelope within REGIME_TOL of p = q_local
    with pytest.raises(ValueError, match="q_local = p"):
        upper_bound(0.1, 0.4, 2.0, 3.0, 0.7, q_local=2.0 + gap)
    with pytest.raises(ValueError, match="q_local = p"):
        estimate_ring(0.1, 0.4, 2.0, 3.0, 0.7, q_local=2.0 + gap)
    assert math.isfinite(upper_bound(0.1, 0.4, 2.0, 3.0, 0.7, q_local=2.0 + 1e-6))


def test_above_bounds_and_small_r_limit():
    # p = 4, q = 2: exponent a = 2/3; the upper branch carries no mass factor
    p, q, R = 4.0, 2.0, 1.0
    a = (p - q) / (p - 1.0)
    limit = (2.0**a - 1.0) ** -1.0 * (2.0 * R) ** (a * (1.0 - p))
    assert upper_bound(1e-12, R, p, q, 123.0) == pytest.approx(limit, rel=1e-6)
    assert limit > 0
    r, mass = 0.25, 0.0625
    expected_lo = (mass / r**q) * (2.0**a - 1.0) ** (p - 1.0) \
        * (1.0 - r / R) ** (p * (p - 1.0)) \
        * abs((2.0 * R) ** a - r**a) ** (1.0 - p)
    assert lower_bound(r, R, p, q, mass) == pytest.approx(expected_lo, rel=1e-12)


def test_below_lower_vanishes_at_closing_ring():
    vals = [lower_bound(r, 0.4, 2.0, 3.0, 0.1) for r in (0.2, 0.3, 0.39, 0.3999)]
    assert vals[-1] < 1e-6 * vals[0]


def test_estimate_bundles_the_same_numbers():
    r, R, p, q, mass = 0.1, 0.8, 2.0, 3.0, 0.004
    est = estimate_ring(r, R, p, q, mass, q_local=2.5)
    assert est.regime == "below"
    assert est.lower == lower_bound(r, R, p, q, mass)
    assert est.upper == upper_bound(r, R, p, q, mass, q_local=2.5)
    assert {"c_lower", "c_upper"} <= est.constants.keys()
    assert est.mass_inner == mass


def test_upper_dominates_lower_everywhere():
    for p in (1.5, 2.0, 2.6, 4.0):
        for q in (2.0, 3.0):
            for x in (0.03, 0.1, 0.3):
                r, R = x, 1.0
                mass = r**q
                assert upper_bound(r, R, p, q, mass) >= lower_bound(r, R, p, q, mass)


def test_bound_validation():
    with pytest.raises(ValueError):
        lower_bound(0.5, 0.4, 2.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        upper_bound(0.5, 0.4, 2.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        lower_bound(0.1, 0.4, 2.0, 3.0, -1.0)


# ----------------------------------------------------------------------
# monotonicity, asserted where the formulas are monotone
# ----------------------------------------------------------------------

def test_upper_bound_monotone_in_both_radii():
    # Ahlfors-model mass r^q; outer radius fixed, then inner radius fixed
    for p in (1.5, 2.0, 3.2):
        for q in (2.0, 3.0):
            if abs(p - q) < 1e-9:
                continue
            rs = np.geomspace(0.02, 0.45, 8)
            ups = [upper_bound(r, 1.0, p, q, r**q) for r in rs]
            assert np.all(np.diff(ups) >= -1e-12 * np.abs(ups[:-1]))
            Rs = np.geomspace(0.5, 8.0, 8)
            ups_R = [upper_bound(0.2, R, p, q, 0.2**q) for R in Rs]
            assert np.all(np.diff(ups_R) <= 1e-12 * np.abs(ups_R[:-1]))


def test_lower_bound_monotone_in_r_for_wide_rings():
    # The (1 - r/R)^(p(p-1)) prefactor turns the lower bound around as the
    # ring closes.  Below the critical exponent the mass growth r^(q-p)
    # wins up to a quarter of the outer radius; at the critical exponent
    # the mass term is flat and the turnaround comes sooner, so the window
    # stops at an eighth.  Above the critical exponent the sign of the
    # slope depends on (p, q) and no window is asserted.
    for p, q, r_top in ((1.5, 2.0, 0.25), (1.5, 3.0, 0.25), (2.0, 3.0, 0.25),
                        (2.0, 2.0, 0.125), (3.0, 3.0, 0.125)):
        rs = np.geomspace(0.02, r_top, 8)
        los = [lower_bound(r, 1.0, p, q, r**q) for r in rs]
        assert np.all(np.diff(los) >= -1e-12 * np.abs(los[:-1]))


def test_branch_values_track_critical_branch_on_log_scale():
    """Near the critical exponent the regime branches stay within an
    envelope polynomial in log(R/r) of the critical value.

    The lower branches (and the below-side upper) also satisfy a flat
    factor-10 match at the tested offsets; the above-side upper carries a
    (2^a - 1)^(-1) factor that genuinely blows up as p -> q+ and only
    obeys the logarithmic envelope.
    """
    q = 2.0
    for ratio in (4.0, 16.0, 64.0):
        r, R = 0.2, 0.2 * ratio
        mass = r**q
        eps = 0.5 / math.log2(ratio)
        lo_c = lower_bound(r, R, q, q, mass)
        hi_c = upper_bound(r, R, q, q, mass)
        for p in (q - eps, q + eps):
            lo = lower_bound(r, R, p, q, mass)
            hi = upper_bound(r, R, p, q, mass)
            assert 0.1 <= lo / lo_c <= 10.0
            assert abs(math.log(hi / hi_c)) <= 3.0 * math.log(ratio)
        hi_below = upper_bound(r, R, q - 1.0 / math.log2(ratio), q, mass)
        assert 0.1 <= hi_below / hi_c <= 10.0


# ----------------------------------------------------------------------
# pointwise potential
# ----------------------------------------------------------------------

def test_potential_on_three_nodes_by_enumeration(line3):
    # nodes at -1, 0, 1 with masses 1/2, 1, 1/2; peak field at the center.
    # Both neighbor terms contribute lip^2 * d / mu(B(x, d)) * m(y)
    #   = 1 * 1 / 1 * (1/2), so the sum is 1 and the value is sqrt(r).
    c = origin_node(line3)
    u = np.zeros(3)
    u[c] = 1.0
    fld = field_from_values(line3, u)
    val = riesz_potential(line3, fld, c, c, 1.5, 2.0)
    assert val == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_potential_is_positively_homogeneous(line3):
    c = origin_node(line3)
    u = np.zeros(3)
    u[c] = 1.0
    one = riesz_potential(line3, field_from_values(line3, u), c, c, 1.5, 2.0)
    two = riesz_potential(line3, field_from_values(line3, 2.0 * u), c, c, 1.5, 2.0)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_potential_of_zero_field(line3):
    c = origin_node(line3)
    fld = field_from_values(line3, np.zeros(3))
    assert riesz_potential(line3, fld, c, c, 1.5, 2.0) == 0.0


def test_potential_validation(grid2):
    c = origin_node(grid2)
    far = grid2.nearest_node([1.0, 1.0])
    u = np.zeros(grid2.n_nodes)
    u[c] = 1.0
    fld = field_from_values(grid2, u)
    with pytest.raises(ValueError):
        riesz_potential(grid2, fld, far, c, 0.5, 2.0)  # evaluation point outside
    u2 = np.ones(grid2.n_nodes)
    with pytest.raises(ValueError):
        riesz_potential(grid2, field_from_values(grid2, u2), c, c, 0.5, 2.0)
    with pytest.raises(ValueError):
        riesz_potential(grid2, fld, c, c, 0.5, 1.0)


def test_potential_controls_center_value_with_stable_constant():
    # kappa fitted on the coarse grid transfers to the finer grid within x2
    def kappas(h):
        sp = build_euclidean_grid(2, 1.05, h)
        c = sp.nearest_node([0.0, 0.0])
        d = sp.distances_from(c)
        out = []
        for u in (np.clip(1 - d / 0.8, 0, None),
                  np.clip(1 - (d / 0.8) ** 2, 0, None),
                  np.clip(2 * (1 - d / 0.8), 0, 1)):
            fld = field_from_values(sp, u)
            out.append(abs(u[c]) / riesz_potential(sp, fld, c, c, 0.8, 2.0))
        return out
    kappa = max(kappas(0.1))
    assert all(k <= 2.0 * kappa for k in kappas(0.05))


# ----------------------------------------------------------------------
# singleton limits
# ----------------------------------------------------------------------

def test_singleton_line_reaches_positive_limit(line_fine):
    c = origin_node(line_fine)
    out = singleton_capacity_limit(line_fine, c, 2.0, 1.0, [0.2, 0.1, 0.05])
    # two chains of length R - r in series with unit-density cells
    for r, v in zip(out.radii, out.capacities):
        exact = 2.0 * chain_capacity(1.0 - r, 0.01, 2.0)
        assert v == pytest.approx(exact, rel=1e-6)
        assert exact == pytest.approx(2.0 / (1.0 - r), rel=1e-12)
    assert out.decreasing
    assert out.limit_estimate == pytest.approx(2.0 / 0.95, rel=1e-6)


def test_singleton_plane_decays_like_inverse_log(grid2_fine):
    c = origin_node(grid2_fine)
    out = singleton_capacity_limit(grid2_fine, c, 2.0, 1.0, [0.4, 0.2, 0.1],
                                   tol=1e-8)
    for r, v in zip(out.radii, out.capacities):
        assert v == pytest.approx(radial_ring_capacity(2, r, 1.0, 2.0), rel=0.03)
    assert out.decreasing
    assert out.limit_estimate == out.capacities[-1]


def test_singleton_validation(line_fine):
    c = origin_node(line_fine)
    with pytest.raises(ValueError):
        singleton_capacity_limit(line_fine, c, 2.0, 1.0, [0.2])
    with pytest.raises(ValueError):
        singleton_capacity_limit(line_fine, c, 2.0, 1.0, [0.2, 0.2])
    with pytest.raises(ValueError):
        singleton_capacity_limit(line_fine, c, 2.0, 0.1, [0.2, 0.15])
    with pytest.raises(ValueError):
        singleton_capacity_limit(line_fine, c, 2.0, 1.0, [0.2, 0.04])  # under 5h


def test_the_five_step_floor_is_one_rule(line_fine):
    # both entry points judge their smallest radius by one rule in spaces:
    # five grid steps exactly is accepted, the float just below it is not
    c = origin_node(line_fine)
    floor = 5.0 * line_fine.resolution
    below = math.nextafter(floor, 0.0)
    assert pointwise_dimension(line_fine, c, [floor, 0.1, 0.2, 0.5]).slope > 0
    out = singleton_capacity_limit(line_fine, c, 2.0, 1.0, [0.1, floor])
    assert out.radii[-1] == floor and out.converged.all()
    with pytest.raises(ValueError, match="below five grid steps"):
        pointwise_dimension(line_fine, c, [below, 0.1, 0.2, 0.5])
    with pytest.raises(ValueError, match="inner radii below five grid steps"):
        singleton_capacity_limit(line_fine, c, 2.0, 1.0, [0.1, below])


def test_potential_rejects_a_coincident_node():
    # nodes 1 and 2 share x = 0.1, so B(x_1, d(x_1, x_2)) = B(x_1, 0) is
    # empty; the potential must raise instead of reading the total mass
    coords = np.array([[0.0], [0.1], [0.1], [0.2], [0.3]])
    edges = [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]]
    sp = DiscreteSpace(coords, np.ones(5), edges, np.full(5, 0.1), "euclidean", 0.1)
    fld = field_from_values(sp, np.array([1.0, 0.5, 0.5, 0.25, 0.0]))
    with pytest.raises(ValueError, match="ball masses at node 1 must be finite and positive"):
        riesz_potential(sp, fld, 1, 0, 0.35, 2.0)


# ----------------------------------------------------------------------
# input rules: every entry point rejects what the rules in spaces reject
# ----------------------------------------------------------------------

# Each entry point takes the checked arguments by keyword, their valid
# values as defaults, on a coarse plane ``s`` (h = 0.05) around its node
# ``c``; the radii are r = 0.2 and R = 0.6 wherever both appear.
RULE_ENTRY_POINTS = {
    "regime": lambda s, c, p=3.0, q_center=2.0: regime(p, q_center),
    "lower_bound": lambda s, c, r=0.2, R=0.6, p=3.0: lower_bound(r, R, p, 2.0, 1.0),
    "upper_bound": lambda s, c, q_local=3.0: upper_bound(0.2, 0.6, 1.5, 2.0, 1.0, q_local),
    "estimate_ring": lambda s, c, r=0.2, R=0.6, p=3.0, q_center=2.0, q_local=2.0: (
        estimate_ring(r, R, p, q_center, 1.0, q_local)),
    "riesz_potential": lambda s, c, r=0.2, p=3.0: riesz_potential(
        s, field_from_values(s, np.zeros(s.n_nodes)), c, c, r, p),
    "RadialProfile": lambda s, c, r=0.2, R=0.6: RadialProfile(
        "flat", r, R, np.zeros_like, np.zeros_like),
    "power_profile": lambda s, c, r=0.2, R=0.6, p=1.5, q=2.0: power_profile(r, R, p, q),
    "log_profile": lambda s, c, r=0.2, R=0.6: log_profile(r, R),
    "p_energy": lambda s, c, p=3.0: p_energy(
        s, radialize(s, c, log_profile(0.2, 0.6)), p),
    "dyadic_shell_energy": lambda s, c, r=0.2, R=0.6, p=3.0: dyadic_shell_energy(
        s, radialize(s, c, log_profile(0.2, 0.6)), c, r, R, p),
    "ring_condenser": lambda s, c, r=0.2, R=0.6: ring_condenser(s, c, r, R),
    "solve_condenser": lambda s, c, p=3.0, tol=1e-6: solve_condenser(
        s, ring_condenser(s, c, 0.2, 0.6), p, tol=tol),
    "relative_capacity": lambda s, c, r=0.2, R=0.6, p=3.0, tol=1e-6: relative_capacity(
        s, c, r, R, p, tol=tol),
    "build_green": lambda s, c, p=3.0, rho=0.2: build_green(
        s, s.ball(c, 0.6), c, p, rho=rho),
    "ball": lambda s, c, radius=0.2: s.ball(c, radius),
    "closed_ball": lambda s, c, radius=0.2: s.closed_ball(c, radius),
    "ball_mass": lambda s, c, radius=0.2: s.ball_mass(c, radius),
    "distances_from": lambda s, c, node=0: s.distances_from(node),
    "distance": lambda s, c, i=0, j=1: s.distance(i, j),
    "build_euclidean_grid": lambda s, c, h=0.1, half_extent=0.2: build_euclidean_grid(
        1, half_extent, h),
    "build_heisenberg_grid": lambda s, c, h=0.1, half_extent=0.2, t_step=0.005,
                                   t_half_extent=0.04: build_heisenberg_grid(
        half_extent, h, t_half_extent, t_step),
    "build_double_cone": lambda s, c, h=0.1, half_extent=0.2: build_double_cone(
        2, half_extent, h),
    "build_glued_balls": lambda s, c, h=0.5, segment_length=1.0: build_glued_balls(
        2, h, segment_length),
    "doubling_constant": lambda s, c, r_max=0.5: doubling_constant(s, [c], r_max),
    "local_dimension": lambda s, c, c_doubling=2.0: local_dimension(c_doubling),
    "pointwise_dimension": lambda s, c, r_min=0.25: pointwise_dimension(
        s, c, [r_min, 0.5, 1.0, 2.5]),
    "check_volume_bounds": lambda s, c, r_ref=0.5, q_local=2.0, q_point=2.0: (
        check_volume_bounds(s, c, r_ref, q_local, q_point)),
    "ahlfors_regularity": lambda s, c, q=2.0, r_min=0.25: ahlfors_regularity(
        s, q, [c], [r_min, 0.5]),
    "analyze_dimension": lambda s, c, r_max=2.5: analyze_dimension(s, [c], r_max),
    "fit_power_law": lambda s, c, x=2.0, y=2.0: fit_power_law([1.0, x], [1.0, y]),
}
# the invalid value at the boundary of each rule, beside NaN and both
# infinities (None: no boundary); an entry whose bound differs names its own
RULE_BOUNDARY = {"p": 1.0, "r": 0.0, "R": 0.2, "tol": 0.0, "rho": 0.0, "q": None,
                 "radius": -5e-324, "node": -1, "i": -1, "j": -1, "h": 0.0,
                 "half_extent": math.nextafter(0.1, 0.0), "t_step": 0.0,
                 "t_half_extent": math.nextafter(0.005, 0.0),
                 "segment_length": math.nextafter(0.5, 0.0),
                 "r_max": math.nextafter(0.5, 0.0), "c_doubling": math.nextafter(1.0, 0.0),
                 "r_min": 0.0, "r_ref": 0.0, "q_local": None, "q_point": None,
                 "q_center": math.nextafter(1.0, 0.0),
                 "x": 0.0, "y": 0.0}
ENTRY_BOUNDARY = {("build_heisenberg_grid", "half_extent"): 0.1,
                  ("upper_bound", "q_local"): math.nextafter(1.0, 0.0),
                  ("estimate_ring", "q_local"): math.nextafter(1.0, 0.0),
                  ("analyze_dimension", "r_max"): math.nextafter(2.5, 0.0)}
VALID_INF = {"radius"}  # a ball of infinite radius is the reachable space
RULE_MESSAGE = {"radius": "radius must be nonnegative", "node": "node ids out of range",
                "i": "node ids out of range", "j": "node ids out of range"}
RULE_CASES = [
    (entry, arg, value)
    for entry, fn in RULE_ENTRY_POINTS.items()
    for arg in inspect.signature(fn).parameters if arg not in ("s", "c")
    for value in (math.nan, math.inf, -math.inf,
                  ENTRY_BOUNDARY.get((entry, arg), RULE_BOUNDARY[arg]))
    if value is not None and not (value == math.inf and arg in VALID_INF)
]


@pytest.fixture(scope="module")
def rule_plane():
    sp = build_euclidean_grid(2, 0.65, 0.05)
    return sp, origin_node(sp)


@pytest.mark.parametrize("entry", RULE_ENTRY_POINTS)
def test_rule_entry_points_accept_their_defaults(rule_plane, entry):
    RULE_ENTRY_POINTS[entry](*rule_plane)


@pytest.mark.parametrize("entry,arg,value", RULE_CASES)
def test_rule_entry_points_reject_invalid_input(rule_plane, entry, arg, value):
    # the message is the rule's own, not that of a later step that tripped
    with pytest.raises(ValueError, match=RULE_MESSAGE.get(arg, "must be finite")):
        RULE_ENTRY_POINTS[entry](*rule_plane, **{arg: value})


def test_ball_queries_take_an_infinite_radius(rule_plane):
    s, c = rule_plane
    everything = np.arange(s.n_nodes)
    assert np.array_equal(s.ball(c, math.inf), everything)
    assert np.array_equal(s.closed_ball(c, math.inf), everything)
    assert s.ball_mass(c, math.inf) == pytest.approx(s.total_mass, rel=1e-12)
