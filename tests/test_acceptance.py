"""Headline acceptance checks, one test per criterion.

Each test appends a PASS/FAIL line to the scorecard that conftest echoes
after the run.  The capacity sweeps are computed once per session and
shared between criteria as plain floats; each large lattice is freed as
soon as its numbers are extracted, which keeps the peak footprint to a
single space at a time.
"""

import gc
import json

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from oracles import radial_ring_capacity
from ringcap import (
    DiscreteSpace,
    blowup_trend,
    build_euclidean_grid,
    build_glued_balls,
    build_green,
    build_heisenberg_grid,
    check_level_sets,
    cli,
    fit_power_law,
    maximum_principle_check,
    monotonicity_suite,
    relative_capacity,
    verify_metric,
)
from ringcap.bounds import lower_bound, upper_bound
from ringcap.dimension import pointwise_dimension
from ringcap.profiles import log_profile, p_energy, power_profile, radialize
from ringcap.solver import singleton_capacity_limit


def record(num, ok, detail):
    ACCEPTANCE_LINES.append(
        f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def ring_rows(space, center, radii, big_r, p, q, profile):
    """(r, capacity, profile energy, lower, upper) per inner radius."""
    rows = []
    for r in radii:
        r = float(r)
        res = relative_capacity(space, center, r, big_r, p, tol=1e-6)
        assert res.converged
        value = res.value
        res = None
        gc.collect()
        mass = space.ball_mass(center, r)
        field = radialize(space, center, profile(r))
        energy = p_energy(space, field, p).edge
        field = None
        gc.collect()
        rows.append((r, value, energy,
                     lower_bound(r, big_r, p, q, mass),
                     upper_bound(r, big_r, p, q, mass)))
    return rows


@pytest.fixture(scope="session")
def exact_pair():
    """p = 2 rings with classical values: 2pi/log 2 in the plane, 8pi in space."""
    sp = build_euclidean_grid(2, 2.05, 0.02)
    c = sp.nearest_node([0.0, 0.0])
    v2 = relative_capacity(sp, c, 1.0, 2.0, 2.0, tol=1e-6).value
    e2 = p_energy(sp, radialize(sp, c, log_profile(1.0, 2.0)), 2.0).edge
    del sp
    gc.collect()
    sp = build_euclidean_grid(3, 2.1, 0.05)
    c = sp.nearest_node([0.0, 0.0, 0.0])
    v3 = relative_capacity(sp, c, 1.0, 2.0, 2.0, tol=1e-6).value
    e3 = p_energy(sp, radialize(sp, c, power_profile(1.0, 2.0, 2.0, 3.0)),
                  2.0).edge
    del sp
    gc.collect()
    return {"plane": (v2, e2, 2.0 * np.pi / np.log(2.0)),
            "volume": (v3, e3, 8.0 * np.pi)}


@pytest.fixture(scope="session")
def below_sweep():
    """p = 2 in 3-d (p < Q): thin inner balls r = 0.05 .. 0.4 inside R = 0.8."""
    sp = build_euclidean_grid(3, 0.85, 0.02)
    c = sp.nearest_node([0.0, 0.0, 0.0])
    rows = ring_rows(sp, c, [0.05, 0.1, 0.2, 0.4], 0.8, 2.0, 3.0,
                     lambda r: power_profile(r, 0.8, 2.0, 3.0))
    del sp
    gc.collect()
    return rows


@pytest.fixture(scope="session")
def critical_sweep():
    """p = Q = 2 in the plane over two decades of inner radii."""
    sp = build_euclidean_grid(2, 0.85, 0.004)
    c = sp.nearest_node([0.0, 0.0])
    rows = ring_rows(sp, c, np.geomspace(0.4, 0.004, 7), 0.8, 2.0, 2.0,
                     lambda r: log_profile(r, 0.8))
    del sp
    gc.collect()
    return rows


@pytest.fixture(scope="session")
def above_sweep():
    """p = 4 > Q = 2: near-point inner balls, R = 1."""
    sp = build_euclidean_grid(2, 1.05, 0.005)
    c = sp.nearest_node([0.0, 0.0])
    rows = ring_rows(sp, c, [0.02, 0.016, 0.0125, 0.01], 1.0, 4.0, 2.0,
                     lambda r: power_profile(r, 1.0, 4.0, 2.0))
    del sp
    gc.collect()
    return rows


@pytest.fixture(scope="session")
def group_sweep():
    """Harmonic rings on the Heisenberg lattice (Q = 4, so cap ~ r^2)."""
    h = 0.0125
    big_r = 36.0 * h
    sp = build_heisenberg_grid(big_r + 3.0 * h, h,
                               t_half_extent=big_r * big_r / 4.0
                               + 3.0 * h * h / 2.0)
    c = sp.nearest_node([0.0, 0.0, 0.0])
    rows = ring_rows(sp, c, [4.33 * h, 5.6 * h, 7.2 * h, 9.3 * h], big_r,
                     2.0, 4.0, lambda r: power_profile(r, big_r, 2.0, 4.0))
    del sp
    gc.collect()
    return rows


def test_c01_harmonic_ring_capacities_match_closed_forms(exact_pair):
    v2, _, t2 = exact_pair["plane"]
    v3, _, t3 = exact_pair["volume"]
    d2, d3 = v2 / t2 - 1.0, v3 / t3 - 1.0
    ok = abs(d2) <= 0.05 and abs(d3) <= 0.05
    detail = (f"plane {v2:.4f} vs 2pi/log2 ({d2:+.2%}); "
              f"3-d {v3:.3f} vs 8pi ({d3:+.2%}); tolerance 5%")
    assert record(1, ok, detail), detail


def test_c02_thin_inner_ball_capacity_scales_linearly(below_sweep):
    radii = np.array([row[0] for row in below_sweep])
    caps = np.array([row[1] for row in below_sweep])
    # cap ~ r^(Q-p) = r holds only up to the envelopes' (1 - r/R) factors:
    # the exact 3-d ring capacity 4 pi r R / (R - r) = 4 pi R z with
    # z = r / (1 - r/R) is linear in z, while a bare fit against r gives
    # 1.29 over these radii, so fit against z.
    slope = fit_power_law(radii / (1.0 - radii / 0.8), caps).slope
    ok = abs(slope - 1.0) <= 0.1
    oracle = ", ".join(f"{c / radial_ring_capacity(3, r, 0.8, 2.0):.3f}"
                       for r, c in zip(radii, caps))
    detail = (f"capacity ~ z^{slope:.4f}, z = r/(1 - r/R), over r = "
              f"0.05..0.4, want 1.0 +/- 0.1; cap/exact {oracle}")
    assert record(2, ok, detail), detail


def test_c03_critical_capacity_decays_with_the_log_ratio(critical_sweep):
    radii = np.array([row[0] for row in critical_sweep])
    caps = np.array([row[1] for row in critical_sweep])
    slope = fit_power_law(np.log(0.8 / radii), caps).slope
    ok = abs(slope + 1.0) <= 0.1
    detail = f"capacity ~ log(R/r)^{slope:.4f} over two decades, want -1 +/- 0.1"
    assert record(3, ok, detail), detail


def test_c04_supercritical_capacity_has_a_positive_limit(above_sweep):
    caps = np.array([row[1] for row in above_sweep])
    change = abs(caps[-1] - caps[-2]) / caps[-2]
    # r-free limit of the upper envelope: (2^a - 1)^-1 (2R)^(a(1-p))
    a = (4.0 - 2.0) / (4.0 - 1.0)
    term = (2.0 ** a - 1.0) ** -1 * 2.0 ** (a * (1.0 - 4.0))
    ratio = caps[-1] / term
    ok = caps[-1] > 0 and change <= 0.05 and 0.1 <= ratio <= 10.0
    detail = (f"limit {caps[-1]:.4f}, tail change {change:.2%} (<=5%), "
              f"{ratio:.2f}x the envelope's r-free term")
    assert record(4, ok, detail), detail


def test_c05_group_lattice_capacity_scaling(group_sweep):
    radii = np.array([row[0] for row in group_sweep])
    caps = np.array([row[1] for row in group_sweep])
    slope = fit_power_law(radii, caps).slope
    ok = abs(slope - 2.0) <= 0.2
    detail = f"capacity ~ r^{slope:.4f} on the group lattice, want 2 +/- 0.2"
    assert record(5, ok, detail), detail


def test_c06_bounds_sandwich_the_solver_everywhere(
        exact_pair, below_sweep, critical_sweep, above_sweep, group_sweep):
    admissible = all(v <= e * (1.0 + 1e-9)
                     for v, e, _ in exact_pair.values())
    sweeps = {"below": below_sweep, "critical": critical_sweep,
              "above": above_sweep, "group": group_sweep}
    worst = []
    stable = True
    for name, rows in sweeps.items():
        admissible &= all(v <= e * (1.0 + 1e-9) for _, v, e, _, _ in rows)
        ratios = {"v/lo": np.array([v / lo for _, v, _, lo, _ in rows]),
                  "e/hi": np.array([e / hi for _, _, e, _, hi in rows])}
        for label, seq in ratios.items():
            dev = float(np.abs(seq / np.median(seq) - 1.0).max())
            stable &= dev <= 0.25
            if dev > 0.25:
                worst.append(f"{name} {label} {dev:+.0%}")
    ok = admissible and stable
    detail = ("solver <= profile energy everywhere; ratio drift vs bounds "
              + ("within 25%" if stable else "exceeds 25%: " + ", ".join(worst)))
    if not admissible:
        detail = "profile energy fell below the solver; " + detail
    assert record(6, ok, detail), detail


def test_c07_point_capacity_vanishes_in_the_plane_not_on_the_line():
    radii = [2.0 ** -k for k in range(1, 7)]
    sp = build_euclidean_grid(2, 1.05, 0.0025)
    rep = singleton_capacity_limit(sp, sp.nearest_node([0.0, 0.0]), 2.0, 1.0,
                                   radii, tol=1e-6)
    frac = rep.capacities[-1] / rep.capacities[0]
    plane_ok = rep.decreasing and frac < 0.25
    del sp, rep
    gc.collect()
    sp = build_euclidean_grid(1, 1.05, 0.002)
    rep = singleton_capacity_limit(sp, sp.nearest_node([0.0]), 2.0, 1.0,
                                   radii, tol=1e-10)
    line_ok = rep.limit_estimate > 0 and rep.last_relative_change <= 0.05
    ok = plane_ok and line_ok
    detail = (f"plane caps shrink to {frac:.1%} of the first (<25%); line "
              f"limit {rep.limit_estimate:.4f} settled to "
              f"{rep.last_relative_change:.2%} (<=5%)")
    del sp
    gc.collect()
    assert record(7, ok, detail), detail


def test_c08_pointwise_dimensions_of_the_model_spaces():
    sp = build_euclidean_grid(2, 1.3, 0.01, alpha=1.0)
    win = np.geomspace(0.05, 0.5, 6)
    q0 = pointwise_dimension(sp, sp.nearest_node([0.0, 0.0]), win).slope
    qx = pointwise_dimension(sp, sp.nearest_node([0.65, 0.0]), win).slope
    del sp
    gs = build_glued_balls(3, 0.05, 6.0)
    qm = pointwise_dimension(gs, gs.extras["mid_segment"],
                             np.geomspace(0.25, 2.5, 5)).slope
    del gs
    gc.collect()
    hp = build_heisenberg_grid(1.3, 0.025, t_half_extent=0.41, t_step=0.0015,
                               with_edges=False)
    qh = pointwise_dimension(hp, hp.nearest_node([0.0, 0.0, 0.0]),
                             np.geomspace(0.125, 1.25, 6)).slope
    del hp
    gc.collect()
    ok = (abs(q0 - 3.0) <= 0.15 and abs(qx - 2.0) <= 0.1
          and abs(qh - 4.0) <= 0.25 and abs(qm - 1.0) <= 0.15)
    detail = (f"weighted origin {q0:.3f} (3 +/- .15), off-centre {qx:.3f} "
              f"(2 +/- .1), group {qh:.3f} (4 +/- .25), wire {qm:.3f} (1 +/- .15)")
    assert record(8, ok, detail), detail


def test_c09_singular_function_levels_and_blowup():
    levels = []
    for h in (0.04, 0.028, 0.02):
        sp = build_euclidean_grid(2, 1.05, h)
        c = sp.nearest_node([0.0, 0.0])
        levels.append((sp, sp.ball(c, 1.0), c))
    trend = blowup_trend(levels, 2.0, 2.0)
    log_ok = trend.log_residual <= 0.2

    sp, dom, c = levels[-1]
    sf = build_green(sp, dom, c, 2.0)
    m = sf.max_value
    rep = check_level_sets(sp, sf, [(0.0, m), (0.1 * m, 0.5 * m),
                                    (0.2 * m, 0.8 * m), (0.3 * m, 0.6 * m),
                                    (0.5 * m, 0.9 * m)])
    band_ok = rep.passed and rep.band <= 4.0

    lev1 = []
    for h in (0.04, 0.028, 0.02):
        sp = build_euclidean_grid(1, 1.05, h)
        c = sp.nearest_node([0.0])
        lev1.append((sp, sp.ball(c, 1.0), c))
    t1 = blowup_trend(lev1, 2.0, 1.0)
    change = abs(t1.max_values[-1] - t1.max_values[-2]) / t1.max_values[-2]
    one_ok = t1.bounded and change <= 0.1

    ok = log_ok and band_ok and one_ok
    detail = (f"log-growth residual {trend.log_residual:.2%} (<=20%), level "
              f"band {rep.band:.3f} (<=4), 1-d pole change {change:.2%} (<=10%)")
    assert record(9, ok, detail), detail


def test_c10_property_suites_all_pass(tmp_path):
    checks = {}

    grid = build_euclidean_grid(2, 0.6, 0.05)
    wire = build_glued_balls(2, 0.1, 1.0)
    checks["metric"] = (verify_metric(grid, samples=120, seed=3).passed
                        and verify_metric(wire, samples=120, seed=3).passed)

    small = build_euclidean_grid(2, 1.0, 0.05)
    c = small.nearest_node([0.0, 0.0])
    mono = monotonicity_suite(small, 2.0, seed=0, n_pairs=50)
    checks["monotonicity"] = mono.all_pass and len(mono.trials) == 50

    res = relative_capacity(small, c, 0.3, 0.9, 3.0, tol=1e-8)
    trace = res.diagnostics["energy_trace"]
    checks["descent"] = all(b <= a * (1.0 + 1e-12)
                            for a, b in zip(trace, trace[1:]))

    sf = build_green(small, small.ball(c, 0.9), c, 2.0)
    checks["max principle"] = maximum_principle_check(small, sf).passed

    v1 = relative_capacity(small, c, 0.3, 0.9, 2.7, tol=1e-9).value
    scaled = DiscreteSpace(small.coords, 3.0 * small.mass, small.edges,
                           small.edge_lengths, "euclidean", 0.05)
    v3 = relative_capacity(scaled, c, 0.3, 0.9, 2.7, tol=1e-9).value
    checks["measure scaling"] = abs(v3 - 3.0 * v1) <= 1e-12 * v3

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"kind": "euclidean_grid", "n": 2, "half_extent": 0.6,
                  "h": 0.05},
        "task": {"center": [0.0, 0.0], "r": 0.15, "R": 0.5, "p": 2.0,
                 "field_dump": True}}))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        blobs.append((out / "solve.json").read_bytes()
                     + (out / "field.csv").read_bytes())
    checks["determinism"] = blobs[0] == blobs[1]

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    detail = ("metric, monotonicity (50 pairs), descent, max principle, "
              "scaling, determinism all hold" if ok
              else "failing: " + ", ".join(failed))
    assert record(10, ok, detail), detail
