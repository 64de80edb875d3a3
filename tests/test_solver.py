"""Condenser solves: exact oracles, invariants, and degenerate domains."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from conftest import origin_node
from oracles import chain_capacity, radial_ring_capacity
from ringcap import (
    Condenser,
    DiscreteSpace,
    build_euclidean_grid,
    field_from_values,
    log_profile,
    monotonicity_suite,
    p_energy,
    radialize,
    relative_capacity,
    ring_condenser,
    solve_condenser,
    solver,
    spaces,
    verify_sandwich,
)


@pytest.fixture(scope="module")
def patch2():
    """Small plane patch for quick ring solves."""
    return build_euclidean_grid(2, 0.55, 0.05)


def test_point_source_on_line_is_exact(line_fine):
    c = origin_node(line_fine)
    d = line_fine.distances_from(c)
    cond = Condenser(np.array([c]), np.nonzero(d < 1.0)[0])
    res = solve_condenser(line_fine, cond, 2.0, tol=1e-10)
    # two unit-length chains of unit-density cells in series with the source
    assert res.value == pytest.approx(2.0, rel=0.02)
    assert res.value == pytest.approx(2.0 * chain_capacity(1.0, 0.01, 2.0), abs=1e-12)
    assert res.converged


def test_line_ring_matches_series_composition(line_fine):
    c = origin_node(line_fine)
    res = relative_capacity(line_fine, c, 0.25, 1.0, 3.0, tol=1e-10)
    assert res.value == pytest.approx(2.0 * chain_capacity(0.75, 0.01, 3.0), rel=1e-8)


def test_harmonic_case_agrees_with_direct_sparse_solve(patch2):
    c = origin_node(patch2)
    cond = ring_condenser(patch2, c, 0.15, 0.5)
    res = solve_condenser(patch2, cond, 2.0, tol=1e-10)

    # independent assembly: weighted graph Laplacian, reduced system
    n = patch2.n_nodes
    w = patch2.edge_masses() / patch2.edge_lengths**2
    i, j = patch2.edges[:, 0], patch2.edges[:, 1]
    lap = coo_matrix(
        (np.concatenate([w, w, -w, -w]),
         (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i]))),
        shape=(n, n)).tocsr()
    u = np.zeros(n)
    u[cond.inner] = 1.0
    in_domain = np.zeros(n, dtype=bool)
    in_domain[cond.domain] = True
    free = in_domain.copy()
    free[cond.inner] = False
    free_ids = np.nonzero(free)[0]
    rhs = -lap[free_ids][:, ~free].dot(u[~free])
    u[free_ids] = spsolve(lap[free_ids][:, free_ids].tocsc(), rhs)
    direct = float((w * (u[i] - u[j]) ** 2).sum())

    assert res.value == pytest.approx(direct, rel=1e-8)
    assert np.abs(res.u - u).max() < 1e-7


def test_plane_ring_near_radial_oracle(grid2_fine):
    c = origin_node(grid2_fine)
    res = relative_capacity(grid2_fine, c, 0.25, 1.0, 2.0, tol=1e-8)
    assert res.value == pytest.approx(radial_ring_capacity(2, 0.25, 1.0, 2.0), rel=0.03)


def test_capacity_scales_exactly_with_the_measure(patch2):
    c = origin_node(patch2)
    v1 = relative_capacity(patch2, c, 0.15, 0.5, 2.7, tol=1e-9).value
    scaled = DiscreteSpace(patch2.coords, 3.0 * patch2.mass, patch2.edges,
                           patch2.edge_lengths, "euclidean", 0.05)
    v3 = relative_capacity(scaled, c, 0.15, 0.5, 2.7, tol=1e-9).value
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_reported_value_is_the_field_energy(patch2, p):
    c = origin_node(patch2)
    res = relative_capacity(patch2, c, 0.15, 0.5, p, tol=1e-7)
    edge = p_energy(patch2, field_from_values(patch2, res.u), p).edge
    assert res.value == pytest.approx(edge, rel=1e-12)


def plane_ring(grid2_fine, p, r):
    return relative_capacity(grid2_fine, origin_node(grid2_fine), r, 1.0, p)


def warm_ring(patch2):
    cond = ring_condenser(patch2, origin_node(patch2), 0.15, 0.5)
    guess = radialize(patch2, origin_node(patch2), log_profile(0.15, 0.5)).u
    return solve_condenser(patch2, cond, 3.0, tol=1e-7, x0=guess)


def all_plateau(patch2):
    cond = Condenser([origin_node(patch2)], np.arange(patch2.n_nodes))
    return solve_condenser(patch2, cond, 2.0)


@pytest.mark.parametrize("solve", [
    lambda g, patch2: plane_ring(g, 2.0, 0.3),
    lambda g, patch2: plane_ring(g, 3.0, 0.1),
    lambda g, patch2: warm_ring(patch2),
    lambda g, patch2: all_plateau(patch2),  # no free node to solve for
], ids=["p2-r0.3", "p3-r0.1", "warm", "no-free-node"])
def test_value_is_the_last_traced_energy(grid2_fine, patch2, solve):
    res = solve(grid2_fine, patch2)
    assert res.value == res.diagnostics["energy_trace"][-1]


def test_minimizer_stays_in_unit_interval(patch2):
    c = origin_node(patch2)
    res = relative_capacity(patch2, c, 0.15, 0.5, 4.0, tol=1e-7)
    assert res.u.min() >= -1e-9
    assert res.u.max() <= 1.0 + 1e-9


def test_energy_descends_across_reweighting(patch2):
    c = origin_node(patch2)
    res = relative_capacity(patch2, c, 0.15, 0.5, 3.0, tol=1e-8)
    trace = np.asarray(res.diagnostics["energy_trace"])
    assert res.converged and res.iterations >= 3
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1.0))
    assert res.residual <= 1e-8


def test_capacity_stable_under_refinement():
    caps = {}
    for h in (0.015, 0.0075):
        sp = build_euclidean_grid(2, 0.95, h)
        caps[h] = relative_capacity(sp, sp.nearest_node([0.0, 0.0]),
                                    0.3, 0.9, 2.5, tol=1e-7).value
    assert abs(caps[0.015] - caps[0.0075]) / caps[0.0075] < 0.03


def test_whole_space_domain_has_zero_capacity_plateau(patch2):
    c = origin_node(patch2)
    cond = Condenser(np.array([c]), np.arange(patch2.n_nodes))
    res = solve_condenser(patch2, cond, 2.0)
    assert res.value == 0.0
    assert res.converged
    assert res.diagnostics["plateau_nodes"] == patch2.n_nodes - 1
    assert np.all(res.u == 1.0)


def test_whole_space_domain_reports_like_a_ring_solve(patch2):
    # no free node is reached, so the solve skips its loop, but its report
    # has the keys of every other solve
    c = origin_node(patch2)
    res = solve_condenser(patch2, Condenser([c], np.arange(patch2.n_nodes)), 2.0)
    ring = solve_condenser(patch2, ring_condenser(patch2, c, 0.15, 0.5), 2.0)
    assert res.diagnostics.keys() == ring.diagnostics.keys()
    assert res.value == res.diagnostics["energy_trace"][-1]
    assert res.converged and res.diagnostics["stop_reason"] == "converged"
    assert (res.iterations, res.residual, res.diagnostics["cg_iters"]) == (0, 0.0, 0)
    assert res.diagnostics["descent_ok"] and res.diagnostics["range_ok"]
    assert (res.diagnostics["u_min"], res.diagnostics["u_max"]) == (1.0, 1.0)


def test_disconnected_component_is_reported_unreachable():
    # two separate chains; the condenser lives entirely on the first
    xs = np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(5.0, 5.4, 5)])
    edges = [[k, k + 1] for k in range(10)] + [[k, k + 1] for k in range(11, 15)]
    lengths = np.abs(xs[np.array(edges)[:, 0]] - xs[np.array(edges)[:, 1]])
    sp = DiscreteSpace(xs[:, None], np.full(16, 0.1), edges, lengths, "path", 0.1)
    res = solve_condenser(sp, Condenser(np.array([0]), np.arange(16)), 2.0)
    assert res.value == 0.0
    assert res.diagnostics["unreachable_nodes"] == 5
    assert res.diagnostics["plateau_nodes"] == 10
    assert np.all(res.u[11:] == 0.0)


def unit_chain(masses, extra_edges=()):
    """Chain 0 - 1 - ... of unit edges, with optional repeated edges."""
    n = len(masses)
    edges = [[k, k + 1] for k in range(n - 1)] + [list(e) for e in extra_edges]
    return DiscreteSpace(np.arange(n, dtype=float)[:, None], masses, edges,
                         np.ones(len(edges)), "euclidean", 1.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_repeated_edge_acts_as_one_with_summed_conductance(p):
    # conductances 1, 1, 2, 2, 1, 1 in series from node 0 to node 6
    sp = unit_chain(np.ones(7), extra_edges=[(2, 3), (4, 3)])
    res = solve_condenser(sp, Condenser(np.array([0]), np.arange(6)), p,
                          tol=1e-10)
    series = (4.0 + 2.0 * 2.0 ** (-1.0 / (p - 1.0))) ** (1.0 - p)
    assert res.converged
    assert res.value == pytest.approx(series, rel=1e-8)
    assert series == pytest.approx(0.2 if p == 2 else 0.0341137, rel=1e-5)
    # repeating the plate edge (1, 0) too, at a fixed end: 2, 1, 2, 2, 1, 1
    sp = unit_chain(np.ones(7), extra_edges=[(2, 3), (4, 3), (1, 0)])
    res = solve_condenser(sp, Condenser(np.array([0]), np.arange(6)), p,
                          tol=1e-10)
    series = (3.0 + 3.0 * 2.0 ** (-1.0 / (p - 1.0))) ** (1.0 - p)
    assert res.converged
    assert res.value == pytest.approx(series, rel=1e-8)


@pytest.mark.parametrize("h", [0.05, 0.01])  # Jacobi and multilevel
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_edge_orientation_changes_no_bit_of_a_solve(h, p):
    # B has +1 at a free i end and -1 at a free j end.  Reversing an edge
    # negates its row of B and its fixed slope, so B^T W B, the right-hand
    # side and the flows sum the same terms in the same order; a sign in
    # the wrong slot of a row shows as a different solve.
    sp = build_euclidean_grid(2, 0.55, h)
    flipped = sp.edges.copy()
    flipped[::2] = flipped[::2, ::-1]
    solves = []
    for edges in (sp.edges, flipped):
        space = DiscreteSpace(sp.coords, sp.mass, edges, sp.edge_lengths,
                              "euclidean", h)
        solves.append(solve_condenser(space, ring_condenser(space, origin_node(space),
                                                            0.1, 0.5), p))
    a, b = solves
    assert a.converged and b.converged
    assert a.diagnostics["preconditioner"] == ("jacobi" if h == 0.05 else "multilevel")
    assert a.value == b.value
    assert np.array_equal(a.u, b.u)
    assert a.diagnostics["cg_iters"] == b.diagnostics["cg_iters"] > 0


def test_edge_between_massless_nodes_joins_no_components():
    # the edge 2 - 3 has mass 0: {1, 2} sees only the plate, {3} only node 4
    sp = unit_chain(np.array([1.0, 1.0, 0.0, 0.0, 1.0]))
    res = solve_condenser(sp, Condenser(np.array([0]), np.arange(4)), 2.0)
    assert res.value == 0.0 and res.converged
    assert res.diagnostics["plateau_nodes"] == 2
    assert res.diagnostics["unreachable_nodes"] == 1
    assert np.array_equal(res.u, [1.0, 1.0, 1.0, 0.0, 0.0])


def test_components_are_labelled_once_per_space(patch2, monkeypatch):
    calls = []
    original = spaces.connected_components

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spaces, "connected_components", counted)
    sp = DiscreteSpace(patch2.coords, patch2.mass, patch2.edges,
                       patch2.edge_lengths, "euclidean", 0.05)
    c = origin_node(sp)
    first = relative_capacity(sp, c, 0.15, 0.5, 2.0)
    second = relative_capacity(sp, c, 0.2, 0.45, 3.0)
    assert first.converged and second.converged
    assert len(calls) == 1


def test_nonconvergence_is_flagged_not_raised(patch2):
    c = origin_node(patch2)
    res = relative_capacity(patch2, c, 0.15, 0.5, 3.5, tol=1e-12, max_iter=1)
    assert not res.converged
    assert np.isfinite(res.value) and res.value > 0
    assert res.diagnostics["stop_reason"] == "max_iter"


def test_unchanged_iterate_stops_as_stagnated(patch2, monkeypatch):
    def zero_correction(A, b, **kwargs):
        return np.zeros_like(b), 0

    monkeypatch.setattr(solver, "cg", zero_correction)
    res = relative_capacity(patch2, origin_node(patch2), 0.15, 0.5, 3.0)
    assert not res.converged
    assert res.diagnostics["stop_reason"] == "stagnated"
    assert res.iterations <= 2
    assert res.diagnostics["steps"] == []


@pytest.mark.parametrize("p, max_iters, reference", [
    (1.5, 12, 2.718505305651),
    (3.0, 8, 10.109345616710),
    (4.0, 8, 23.364853761701),
])
def test_line_search_takes_few_steps_without_backtracking(patch2, p, max_iters,
                                                          reference):
    # references: the halving-backtrack solver at the same tolerance, which
    # took 26 (p = 1.5) and 19 (p = 4, 18 backtracks) iterations
    res = relative_capacity(patch2, origin_node(patch2), 0.15, 0.5, p, tol=1e-8)
    d = res.diagnostics
    assert res.converged and d["stop_reason"] == "converged"
    assert res.iterations <= max_iters
    assert d["backtracks"] == 0
    assert len(d["steps"]) == res.iterations
    assert all(0 < t <= max(1.0, 1.0 / (p - 1.0)) for t in d["steps"])
    assert d["cg_iters"] > 0
    assert res.value == pytest.approx(reference, rel=1e-6)


def test_harmonic_solve_is_one_full_step(patch2):
    res = relative_capacity(patch2, origin_node(patch2), 0.15, 0.5, 2.0, tol=1e-8)
    # one exact linear solve passes the gradient test; no second system
    assert res.converged and res.iterations == 1
    assert res.diagnostics["steps"] == [1.0]
    assert res.diagnostics["cg_iters"] == 30  # the dropped second iteration ran none


def test_start_from_the_solution_returns_at_once(patch2):
    cond = ring_condenser(patch2, origin_node(patch2), 0.15, 0.5)
    cold = solve_condenser(patch2, cond, 2.0, tol=1e-8)
    warm = solve_condenser(patch2, cond, 2.0, tol=1e-8, x0=cold.u)
    assert warm.converged and warm.diagnostics["stop_reason"] == "converged"
    assert warm.iterations == 1 and warm.diagnostics["cg_iters"] == 0
    assert warm.value == pytest.approx(cold.value, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_warm_start_agrees_with_cold_start(patch2, p):
    c = origin_node(patch2)
    cond = ring_condenser(patch2, c, 0.15, 0.5)
    tol = 1e-7
    cold = solve_condenser(patch2, cond, p, tol=tol)
    guess = radialize(patch2, c, log_profile(0.15, 0.5)).u
    warm = solve_condenser(patch2, cond, p, tol=tol, x0=guess)
    assert cold.converged and warm.converged
    assert warm.value == pytest.approx(cold.value, rel=10 * tol)
    # both residuals are measured against the same cold-start gradient
    assert warm.residual < tol


def ring_space(request, case):
    """Space, centre and radii of a ring on the plane, the group or a path
    metric on the plane's edges."""
    plane = request.getfixturevalue("grid2_fine")
    if case == "gauge":
        space, r, big_r = request.getfixturevalue("heis_graph"), 0.1, 0.35
    elif case == "path":
        space, r, big_r = DiscreteSpace(plane.coords, plane.mass, plane.edges,
                                        plane.edge_lengths, "path", 0.01), 0.2, 1.0
    else:
        space, r, big_r = plane, 0.25, 1.0
    return space, origin_node(space), r, big_r


@pytest.mark.parametrize("case, p", [
    ("plane", 1.5), ("plane", 2.0), ("plane", 3.0), ("plane", 4.0),
    ("gauge", 1.5), ("gauge", 2.0), ("gauge", 3.0), ("path", 1.5), ("path", 2.0),
])
def test_ring_solve_from_the_radial_extremal_agrees_with_a_cold_solve(request,
                                                                      case, p):
    space, c, r, big_r = ring_space(request, case)
    tol = 1e-6
    cold = solve_condenser(space, ring_condenser(space, c, r, big_r), p, tol=tol)
    res = relative_capacity(space, c, r, big_r, p, tol=tol)
    assert cold.converged and res.converged
    assert res.value == pytest.approx(cold.value, rel=10 * tol)
    if p >= 2:  # started cold: the same solve
        assert res.value == cold.value
        assert res.diagnostics["cg_iters"] == cold.diagnostics["cg_iters"]


@pytest.mark.parametrize("p, r, irls, cg", [
    (1.5, 0.1, (13, 9), (105, 64)), (1.5, 0.3, (10, 9), (90, 65)),
    (2.0, 0.1, (1, 1), (13, 13)), (2.0, 0.3, (1, 1), (12, 12)),
    (3.0, 0.1, (5, 5), (47, 47)), (3.0, 0.3, (5, 5), (43, 43)),
    (4.0, 0.1, (8, 8), (96, 96)), (4.0, 0.3, (8, 8), (113, 113)),
])
def test_radial_extremal_saves_iterations_on_the_plane(grid2_fine, p, r, irls, cg):
    # the eight rings of the benchmark sweep, cold and from the extremal,
    # which at p >= 2 is the cold solve: the cold counts gate solver changes
    c = origin_node(grid2_fine)
    cold = solve_condenser(grid2_fine, ring_condenser(grid2_fine, c, r, 1.0), p)
    res = relative_capacity(grid2_fine, c, r, 1.0, p)
    assert (cold.iterations, res.iterations) == irls
    assert (cold.diagnostics["cg_iters"], res.diagnostics["cg_iters"]) == cg


def test_initial_guess_validation(patch2):
    cond = ring_condenser(patch2, origin_node(patch2), 0.15, 0.5)
    with pytest.raises(ValueError):
        solve_condenser(patch2, cond, 2.0, x0=np.zeros(patch2.n_nodes - 1))
    with pytest.raises(ValueError):
        solve_condenser(patch2, cond, 2.0, x0=np.full(patch2.n_nodes, np.nan))


def test_guess_is_clipped_and_ignored_on_the_constraints(patch2):
    cond = ring_condenser(patch2, origin_node(patch2), 0.15, 0.5)
    guess = np.random.default_rng(0).uniform(-0.5, 1.5, patch2.n_nodes)
    base = solve_condenser(patch2, cond, 3.0, tol=1e-7, x0=np.clip(guess, 0, 1))
    wild = guess.copy()
    wild[cond.inner] = -7.0
    outside = np.setdiff1d(np.arange(patch2.n_nodes), cond.domain)
    wild[outside] = 9.0
    res = solve_condenser(patch2, cond, 3.0, tol=1e-7, x0=wild)
    assert np.all(res.u[cond.inner] == 1.0)
    assert np.all(res.u[outside] == 0.0)
    assert np.array_equal(res.u, base.u)
    assert res.value == base.value


def test_p15_stall_case_converges():
    # At p = 1.5 an inner-solve floor of tol / 10 of the right-hand side
    # lay above the outer gradient target: CG returned after 0 iterations
    # from outer iteration 17 on and the solve ran out its 100 iterations
    # with the residual stuck at 1.33e-6.
    sp = build_euclidean_grid(2, 1.05, 0.008)
    res = relative_capacity(sp, origin_node(sp), 0.4, 1.0, 1.5, tol=1e-6)
    assert res.converged and res.diagnostics["stop_reason"] == "converged"
    assert res.iterations < 100
    assert res.value == pytest.approx(5.6004674072, rel=1e-8)


def test_p15_near_stall_radius_converges(grid2_fine):
    res = relative_capacity(grid2_fine, origin_node(grid2_fine), 0.3945, 1.0, 1.5,
                            tol=1e-6)
    assert res.converged and res.diagnostics["stop_reason"] == "converged"


def test_sandwich_report_below_regime(grid3):
    c = origin_node(grid3)
    for r in (0.2, 0.4):
        rep = verify_sandwich(grid3, c, r, 0.8, 2.0, 3.0)
        x = r / 0.8
        assert rep.regime == "below"
        assert rep.admissible_ok
        assert rep.capacity <= rep.profile_energy * (1 + 1e-5)
        # continuum radial reductions of capacity/lower and profile/upper
        assert rep.ratio_lower == pytest.approx(6.0 / (1 - x) ** 3, rel=0.10)
        assert rep.ratio_upper == pytest.approx(3.0 * (1 - x), rel=0.10)


def test_sandwich_rejects_a_tied_local_dimension_before_solving(grid2, monkeypatch):
    # below the critical exponent with q_local = p the upper envelope is
    # infinite; the ring is refused before any solve, not after one
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on a ring without a finite envelope")

    monkeypatch.setattr(solver, "relative_capacity", no_solve)
    with pytest.raises(ValueError, match="q_local = p"):
        verify_sandwich(grid2, origin_node(grid2), 0.1, 0.4, 2.0, 3.0, q_local=2.0)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 8.0, 12.0, 16.0])
def test_converged_solve_is_not_above_its_radial_profile(grid2, p):
    # the radialized profile is admissible, so a converged capacity lies below
    # its energy; under an absolute IRLS weight floor of 1e-12, most weights
    # sat on the floor at p = 12 and the solve stopped at 13.5 against a
    # profile's 4.1
    rep = verify_sandwich(grid2, origin_node(grid2), 0.1, 1.0, p, 2.0)
    assert not rep.result.converged or rep.admissible_ok


def test_converged_solve_is_not_above_its_radial_profile_at_h002_p10():
    # the absolute floor stopped this solve at 43.71 against a profile
    # energy of 3.676; with the floor relative to the largest weight it
    # reaches 2.606
    sp = build_euclidean_grid(2, 1.05, 0.02)
    rep = verify_sandwich(sp, origin_node(sp), 0.1, 1.0, 10.0, 2.0)
    assert rep.result.converged and rep.admissible_ok
    assert rep.capacity == pytest.approx(2.6059836, rel=1e-5)


def test_sandwich_admissible_even_at_coarse_inner_radius(grid3):
    rep = verify_sandwich(grid3, origin_node(grid3), 0.1, 0.8, 2.0, 3.0)
    assert rep.admissible_ok


def test_monotonicity_suite_small_run(patch2):
    rep = monotonicity_suite(patch2, 2.0, seed=3, n_pairs=10)
    assert rep.all_pass
    assert len(rep.trials) == 10
    assert rep.violations == []


def test_condenser_validation(patch2):
    c = origin_node(patch2)
    with pytest.raises(ValueError):
        ring_condenser(patch2, c, 0.0, 0.5)
    with pytest.raises(ValueError):
        ring_condenser(patch2, c, 0.5, 0.5)
    with pytest.raises(ValueError):
        ring_condenser(patch2, c, 2.0, 3.0)  # inner ball swallows the patch
    with pytest.raises(ValueError):
        solve_condenser(patch2, Condenser(np.array([0]), np.array([5])), 2.0)
    with pytest.raises(ValueError):
        solve_condenser(patch2, ring_condenser(patch2, c, 0.15, 0.5), 1.0)
    with pytest.raises(ValueError):
        solve_condenser(patch2, ring_condenser(patch2, c, 0.15, 0.5), 2.0, tol=0.0)


@pytest.mark.parametrize("case", ["inner -1", "inner n", "domain -1", "domain n"])
def test_condenser_ids_out_of_range_are_rejected(patch2, case):
    # an inner id of -1 once solved with node n - 1 as the plate, and an id
    # of n raised IndexError
    n = patch2.n_nodes
    bad = -1 if case.endswith("-1") else n
    inner, domain = np.array([0]), np.arange(n)
    if case.startswith("inner"):
        inner = np.array([bad])
    else:
        domain = np.append(domain, bad)
    with pytest.raises(ValueError, match="node ids out of range"):
        solve_condenser(patch2, Condenser(inner, domain), 2.0)


# ----------------------------------------------------------------------
# preconditioner choice
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_plane_ring_uses_the_multilevel_preconditioner(grid2_fine, monkeypatch, p):
    c = origin_node(grid2_fine)
    res = relative_capacity(grid2_fine, c, 0.25, 1.0, p, tol=1e-8)
    d = res.diagnostics
    assert res.converged and d["preconditioner"] == "multilevel"
    if p == 2.0:
        assert res.value == pytest.approx(2.0 * math.pi / math.log(4.0), rel=0.03)
        # Jacobi-preconditioned CG took 276 iterations on this system
        assert d["cg_iters"] < 0.1 * 276
    # the same systems under Jacobi: the preconditioner moves only rounding,
    # at every exponent, and saves most of the CG iterations
    monkeypatch.setattr(solver, "COARSEST", grid2_fine.n_nodes)
    jacobi = relative_capacity(grid2_fine, c, 0.25, 1.0, p, tol=1e-8)
    assert jacobi.diagnostics["preconditioner"] == "jacobi"
    assert res.value == pytest.approx(jacobi.value, rel=1e-10)
    assert d["cg_iters"] < 0.25 * jacobi.diagnostics["cg_iters"]


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_each_cg_iteration_runs_one_vcycle(grid2_fine, monkeypatch, p):
    # an operator without a dtype made scipy run the V-cycle once more per
    # IRLS iteration, on a zero vector, to learn it: 14 for 13 CG at p = 2
    calls, depth = [0], [0]
    vcycle = solver._vcycle

    def counted(levels, coarsest, b):
        calls[0] += depth[0] == 0  # the recursion into coarser levels is inside
        depth[0] += 1
        try:
            return vcycle(levels, coarsest, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solver, "_vcycle", counted)
    res = relative_capacity(grid2_fine, origin_node(grid2_fine), 0.1, 1.0, p)
    assert res.converged and res.diagnostics["preconditioner"] == "multilevel"
    assert calls[0] == res.diagnostics["cg_iters"] > 0


def test_volume_ring_uses_the_multilevel_preconditioner():
    # the c01 acceptance ring: r = 20h, closed form 4 pi r R / (R - r) = 8 pi
    sp = build_euclidean_grid(3, 2.05, 0.05)
    res = relative_capacity(sp, origin_node(sp), 1.0, 2.0, 2.0, tol=1e-6)
    assert res.converged and res.diagnostics["preconditioner"] == "multilevel"
    assert res.value == pytest.approx(radial_ring_capacity(3, 1.0, 2.0, 2.0), rel=0.05)


def assert_galerkin_levels(levels, coarsest):
    assert len(levels) >= 2
    for k, level in enumerate(levels):
        a, prolong = level.a, level.prolong
        assert abs(level.restrict - prolong.T).max() == 0
        # the explicit product P^T (A P), against the level below
        galerkin = prolong.T @ (a @ prolong)
        scale = abs(galerkin).max()
        if k + 1 < len(levels):
            assert abs(levels[k + 1].a - galerkin).max() <= 1e-12 * scale
        else:
            # the coarsest matrix is held as LU factors: they must invert it
            x = np.random.default_rng(0).standard_normal(galerkin.shape[0])
            back = coarsest.solve(galerkin @ x)
            assert np.abs(back - x).max() <= 1e-9 * np.abs(x).max()


def test_coarse_matrices_are_the_galerkin_products(grid2_fine, monkeypatch):
    def keep(cells):
        levels = hierarchy(cells)
        # box maps only, drawn before the first matrix
        built.append((levels, len(refilled), [lv.agg is not None for lv in levels]))
        return levels

    def keep_refill(levels, lap):
        coarsest = refill(levels, lap)
        if not refilled:  # the first matrix smooths P and P^T
            first.extend((lv.prolong, lv.restrict, lv.prolong.data.copy())
                         for lv in levels)
        refilled.append((lap, coarsest))
        return coarsest

    hierarchy, refill = solver._hierarchy, solver._refill
    monkeypatch.setattr(solver, "_hierarchy", keep)
    monkeypatch.setattr(solver, "_refill", keep_refill)
    c = origin_node(grid2_fine)
    for p in (2.0, 3.0):
        built, refilled, first = [], [], []
        res = relative_capacity(grid2_fine, c, 0.25, 1.0, p)
        assert res.converged
        # the boxes are drawn once per condenser, before the IRLS loop, and
        # every iteration, the first included, passes its matrix down them
        assert len(built) == 1
        levels, refills_before, boxed = built[0]
        assert refills_before == 0 and all(boxed)
        assert len(refilled) == res.iterations
        assert res.iterations == 1 if p == 2 else res.iterations >= 3
        # the last refill holds the Galerkin products of the last matrix
        lap, coarsest = refilled[-1]
        assert levels[0].a is lap
        assert_galerkin_levels(levels, coarsest)
        # P and P^T are the first matrix's, kept in place of the box maps,
        # and each level smooths with omega / diag of its current A
        for level, (prolong, restrict, data) in zip(levels, first, strict=True):
            assert level.agg is None
            assert level.prolong is prolong and level.restrict is restrict
            assert np.array_equal(prolong.data, data)
            assert np.array_equal(level.smoother,
                                  solver.SMOOTHING * (1.0 / level.a.diagonal()))


def test_pole_solve_memory_is_bounded_by_its_system():
    # green's pole solve: p = 2, plate r = 3h, R = 1 on the h = 0.005 plane.
    # Its set-up keeps one orientation of B and forms the coarse operators
    # restriction first, so the traced peak of the solve stays within a
    # small multiple of the CSR bytes of its system matrix.
    h = 0.005
    sp = build_euclidean_grid(2, 1.05, h)
    cond = ring_condenser(sp, origin_node(sp), 3.0 * h, 1.0)
    sp.component_labels()  # labelled once per space, not per solve
    free = np.zeros(sp.n_nodes, dtype=bool)
    free[cond.domain] = True
    free[cond.inner] = False
    nf = int(free.sum())
    nnz = nf + 2 * int((free[sp.edges[:, 0]] & free[sp.edges[:, 1]]).sum())
    csr_bytes = nnz * (8 + 4) + (nf + 1) * 4  # float64 values, int32 indices
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve_condenser(sp, cond, 2.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.converged and res.diagnostics["preconditioner"] == "multilevel"
    assert peak <= 6.5 * csr_bytes


@pytest.mark.parametrize("case", ["gauge", "path", "4d", "small"])
def test_other_systems_keep_jacobi(request, case):
    plane = request.getfixturevalue("grid2_fine")
    space, r, big_r = plane, 0.25, 1.0
    if case == "gauge":
        space, r, big_r = request.getfixturevalue("heis_graph"), 0.1, 0.35
    elif case == "path":
        space = DiscreteSpace(plane.coords, plane.mass, plane.edges,
                              plane.edge_lengths, "path", 1.0)
    elif case == "4d":
        space, r, big_r = build_euclidean_grid(4, 0.55, 0.1), 0.2, 0.5
    else:
        space, r, big_r = request.getfixturevalue("patch2"), 0.15, 0.5
    cond = ring_condenser(space, origin_node(space), r, big_r)
    res = solve_condenser(space, cond, 2.0, tol=1e-6)
    assert res.converged and res.diagnostics["preconditioner"] == "jacobi"
    n_free = cond.domain.size - cond.inner.size
    assert (n_free <= solver.COARSEST) == (case == "small")
