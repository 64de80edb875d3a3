"""Singular (Green-type) functions: construction, levels, trends."""

import dataclasses

import numpy as np
import pytest

from conftest import origin_node
from oracles import chain_capacity
from ringcap import (
    Condenser,
    DiscreteSpace,
    blowup_trend,
    build_euclidean_grid,
    build_green,
    check_level_sets,
    green,
    maximum_principle_check,
    solve_condenser,
)


@pytest.fixture(scope="module")
def line_green(line_fine):
    c = origin_node(line_fine)
    domain = np.nonzero(line_fine.distances_from(c) < 1.0)[0]
    return line_fine, domain, c, build_green(line_fine, domain, c, 2.0)


@pytest.fixture(scope="module")
def plane_green():
    g = build_euclidean_grid(2, 1.05, 0.04)
    c = g.nearest_node([0.0, 0.0])
    domain = np.nonzero(g.distances_from(c) < 1.0)[0]
    return g, domain, c, build_green(g, domain, c, 2.0)


def test_line_pole_value_is_exact(line_green):
    line, domain, c, sf = line_green
    # the harmonic case normalizes by the capacity itself, and two unit
    # chains from the plate edge at rho to the ground at 1 give 2/(1 - rho)
    assert sf.rho == pytest.approx(0.03)
    cap = 2.0 * chain_capacity(1.0 - sf.rho, 0.01, 2.0)
    assert sf.cap_inner == pytest.approx(cap, rel=1e-9)
    assert sf.max_value == pytest.approx((1.0 - sf.rho) / 2.0, abs=1e-9)


def test_vanishes_outside_and_positive_inside(plane_green):
    g, domain, c, sf = plane_green
    outside = np.setdiff1d(np.arange(g.n_nodes), domain)
    assert np.all(sf.values[outside] == 0.0)
    rep = maximum_principle_check(g, sf)
    assert rep.passed
    assert rep.positive_ok
    assert rep.min_component_value > 0
    assert rep.worst_excess <= 1e-9


def test_scattered_neighbour_maxima_are_the_per_node_maxima(cone2):
    # the double cone records no grid layout, so its maxima are scattered
    assert cone2._grid_shape is None
    u = np.random.default_rng(3).uniform(-1.0, 1.0, cone2.n_nodes)
    want = np.full(cone2.n_nodes, -np.inf)
    for i, j in cone2.edges.tolist():
        want[i] = max(want[i], u[j])
        want[j] = max(want[j], u[i])
    assert cone2._neighbour_max(u).tobytes() == want.tobytes()


def test_scattered_neighbour_maxima_equal_the_slabs_bit_for_bit(monkeypatch):
    sp = build_euclidean_grid(2, 0.55, 0.05)
    u = np.random.default_rng(4).uniform(-1.0, 1.0, sp.n_nodes)
    slabs = sp._neighbour_max(u)
    monkeypatch.setattr(sp, "_grid_shape", None)
    assert sp._neighbour_max(u).tobytes() == slabs.tobytes()


def _interior_node(g, sf, radius):
    """A node of the domain outside the pole plate, about ``radius`` from the pole."""
    node = g.nearest_node(g.coords[sf.center] + [radius, 0.0])
    assert node in sf.domain and node not in sf.plate
    return node


def test_a_spiked_interior_value_fails_the_maximum_principle(plane_green):
    g, domain, c, sf = plane_green
    k = _interior_node(g, sf, 0.5)
    spiked = sf.values.copy()
    spiked[k] = g._neighbour_max(sf.values)[k] + 0.25
    rep = maximum_principle_check(g, dataclasses.replace(sf, values=spiked))
    assert not rep.passed and rep.positive_ok
    assert rep.worst_excess == spiked[k] - g._neighbour_max(spiked)[k]
    assert rep.worst_excess == pytest.approx(0.25, rel=1e-12)


def test_a_zero_on_the_pole_component_fails_positivity(plane_green):
    g, domain, c, sf = plane_green
    zeroed = sf.values.copy()
    zeroed[_interior_node(g, sf, 0.5)] = 0.0
    rep = maximum_principle_check(g, dataclasses.replace(sf, values=zeroed))
    assert not rep.positive_ok and not rep.passed
    assert rep.min_component_value == 0.0


def test_defining_pair_ratio_is_one(plane_green):
    g, domain, c, sf = plane_green
    rep = check_level_sets(g, sf, [(0.0, sf.max_value)])
    (a, b, cap, ratio), = rep.entries
    assert ratio == pytest.approx(1.0, abs=1e-9)
    assert cap == pytest.approx(sf.cap_inner, rel=1e-9)
    # the pair's condenser is the pole's own, so it takes the pole's solve
    res, = rep.results
    assert res is sf.result


def test_defining_pair_solves_when_its_condenser_or_tolerance_differs(plane_green):
    # a chain 0..1 and, apart from it, the pair {11, 12}, which the pole's
    # plate reaches at node 11 and the domain holds whole: node 12 is a
    # plateau at the pole value, so the pair's plate is wider than the pole's
    xs = np.concatenate([np.linspace(0.0, 1.0, 11), [0.01, 0.02]])
    edges = [[k, k + 1] for k in range(10)] + [[11, 12]]
    lengths = np.abs(np.diff(xs[np.array(edges)], axis=1))[:, 0]
    sp = DiscreteSpace(xs[:, None], np.full(13, 0.1), edges, lengths,
                       "euclidean", 0.1)
    sf = build_green(sp, np.nonzero(xs < 0.95)[0], 0, 2.0, rho=0.015)
    assert sf.result.diagnostics["plateau_nodes"] == 1
    rep = check_level_sets(sp, sf, [(0.0, sf.max_value)])
    res, = rep.results
    assert res is not sf.result and rep.entries[0][3] == pytest.approx(1.0, abs=1e-9)
    # the pole's own condenser, asked for a residual its solve did not reach
    g, domain, c, sf = plane_green
    tight = sf.result.residual / 2.0
    res, = check_level_sets(g, sf, [(0.0, sf.max_value)], tol=tight).results
    assert res is not sf.result and res.residual < tight
    assert res.value == pytest.approx(sf.cap_inner, rel=1e-9)


def test_level_pairs_stay_in_band(plane_green):
    g, domain, c, sf = plane_green
    m = sf.max_value
    pairs = [(0.0, m), (0.1 * m, 0.5 * m), (0.2 * m, 0.8 * m),
             (0.3 * m, 0.6 * m), (0.5 * m, 0.9 * m)]
    rep = check_level_sets(g, sf, pairs)
    assert rep.passed and rep.band <= 4.0
    assert len(rep.entries) == 5 and not rep.notices
    # the same data against a hair-thin band must fail
    tight = check_level_sets(g, sf, pairs, band_limit=1.05)
    assert not tight.passed


def test_unreachable_levels_are_skipped_with_notice(plane_green):
    g, domain, c, sf = plane_green
    m = sf.max_value
    rep = check_level_sets(g, sf, [(0.0, 2.0 * m), (0.1 * m, 0.5 * m)])
    assert len(rep.notices) == 1
    assert rep.entries[0][2] is None
    assert rep.passed  # judged on the surviving pair


def test_levels_all_above_the_pole_value_fail_with_a_notice_each(plane_green):
    g, domain, c, sf = plane_green
    m = sf.max_value
    rep = check_level_sets(g, sf, [(0.0, 2.0 * m), (0.5 * m, 3.0 * m)])
    assert rep.band == np.inf and not rep.passed
    assert len(rep.notices) == 2 and all("above the pole value" in n for n in rep.notices)
    assert [entry[2:] for entry in rep.entries] == [(None, None), (None, None)]
    assert rep.results == [None, None]


def test_a_domain_without_boundary_has_no_green_function(grid2):
    # the whole space as domain leaves no boundary to hold u at 0
    c = origin_node(grid2)
    with pytest.raises(ValueError, match="condenser capacity vanished"):
        build_green(grid2, np.arange(grid2.n_nodes), c, 2.0)


def test_level_pair_validation(plane_green):
    g, domain, c, sf = plane_green
    with pytest.raises(ValueError):
        check_level_sets(g, sf, [(0.5, 0.2)])
    with pytest.raises(ValueError):
        check_level_sets(g, sf, [(-0.1, 0.2)])


def test_pole_plate_must_fit_in_domain(line_fine):
    c = origin_node(line_fine)
    domain = np.nonzero(line_fine.distances_from(c) < 1.0)[0]
    with pytest.raises(ValueError):
        build_green(line_fine, domain, c, 2.0, rho=1.5)
    far = line_fine.nearest_node([1.1])
    with pytest.raises(ValueError):
        build_green(line_fine, domain, far, 2.0)


@pytest.mark.parametrize("bad", ["n", "-1"])
def test_out_of_range_ids_are_rejected(line_fine, bad):
    # a domain id of n raised IndexError, and one of -1 marked node n - 1
    c = origin_node(line_fine)
    domain = np.nonzero(line_fine.distances_from(c) < 1.0)[0]
    bad = line_fine.n_nodes if bad == "n" else -1
    with pytest.raises(ValueError, match="node ids"):
        build_green(line_fine, np.append(domain, bad), c, 2.0)
    with pytest.raises(ValueError, match="node ids out of range"):
        build_green(line_fine, domain, bad, 2.0)


@pytest.mark.parametrize("case", ["spills", "fills"])
def test_green_rejects_a_bad_plate_as_its_solve_does(line_fine, case):
    # the condenser is checked once, by the solve; a plate that spills out
    # of the domain also covers a pole outside it
    c = origin_node(line_fine)
    plate = line_fine.closed_ball(c, 0.1)
    domain = line_fine.ball(c, 0.05) if case == "spills" else plate
    with pytest.raises(ValueError) as green_error:
        build_green(line_fine, domain, c, 2.0, rho=0.1)
    with pytest.raises(ValueError) as solve_error:
        solve_condenser(line_fine, Condenser(plate, domain), 2.0)
    assert str(green_error.value) == str(solve_error.value)


def test_line_trend_is_bounded():
    levels = []
    for h in (0.04, 0.02, 0.01):
        sp = build_euclidean_grid(1, 1.2, h)
        c = sp.nearest_node([0.0])
        levels.append((sp, np.nonzero(sp.distances_from(c) < 1.0)[0], c))
    trend = blowup_trend(levels, 2.0, 1.0)
    assert trend.regime == "above"
    # pole values are exactly (1 - 3h)/2, so the spread stays small
    assert np.allclose(trend.max_values, (1.0 - 3.0 * trend.resolutions) / 2.0,
                       atol=1e-9)
    assert trend.bounded
    change = abs(trend.max_values[-1] - trend.max_values[-2]) / trend.max_values[-2]
    assert change < 0.05


def test_trend_validation():
    sp = build_euclidean_grid(1, 1.2, 0.04)
    c = sp.nearest_node([0.0])
    lvl = (sp, np.nonzero(sp.distances_from(c) < 1.0)[0], c)
    with pytest.raises(ValueError):
        blowup_trend([lvl, lvl], 2.0, 1.0)
    with pytest.raises(ValueError):
        blowup_trend([lvl, lvl, lvl], 2.0, 1.0)  # not strictly refining


def test_unrefined_ladder_fails_before_any_solve(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_condenser(*args, **kwargs)

    monkeypatch.setattr(green, "solve_condenser", counted)
    levels = []
    for h in (0.02, 0.04, 0.01):
        sp = build_euclidean_grid(1, 1.2, h)
        c = sp.nearest_node([0.0])
        levels.append((sp, np.nonzero(sp.distances_from(c) < 1.0)[0], c))
    with pytest.raises(ValueError, match="strictly refining"):
        blowup_trend(levels, 2.0, 1.0)
    assert calls == []
