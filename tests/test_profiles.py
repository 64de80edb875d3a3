"""Radial profiles, discrete energies, and shell decompositions."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import origin_node
from oracles import radial_profile_energy
from ringcap import (
    DiscreteSpace,
    PotentialField,
    build_euclidean_grid,
    dyadic_shell_energy,
    field_from_values,
    load_space,
    log_profile,
    p_energy,
    power_profile,
    radialize,
    save_space,
)


@pytest.fixture(scope="module")
def ring_grid():
    """Plane grid wide enough for the unit-to-double ring."""
    return build_euclidean_grid(2, 2.1, 0.025)


@pytest.fixture(scope="module")
def weighted_plane():
    """Weighted plane (alpha = 1) around the ring 0.1 < d < 1, with edge
    arrays above numpy's 256 KiB threshold for reusing temporaries."""
    return build_euclidean_grid(2, 1.2, 0.01, alpha=1.0)


# ----------------------------------------------------------------------
# profile shapes
# ----------------------------------------------------------------------

def test_power_profile_midpoint_value():
    prof = power_profile(1.0, 2.0, 2.0, 3.0)
    # (1/t - 1/2) / (1 - 1/2) = 2/t - 1
    assert prof(4.0 / 3.0) == pytest.approx(0.5, abs=1e-14)
    assert prof(1.0) == 1.0 and prof(2.0) == 0.0
    assert prof(0.3) == 1.0 and prof(5.0) == 0.0


def test_log_profile_geometric_midpoint():
    prof = log_profile(1.0, 2.0)
    assert prof(math.sqrt(2.0)) == pytest.approx(0.5, abs=1e-14)
    assert prof(0.5) == 1.0 and prof(3.0) == 0.0


@pytest.mark.parametrize("prof", [
    power_profile(0.5, 2.0, 2.0, 3.0),
    power_profile(0.5, 2.0, 4.0, 2.0),
    log_profile(0.5, 2.0),
])
def test_profile_derivative_matches_difference_quotient(prof):
    ts = np.linspace(0.6, 1.9, 14)
    eps = 1e-7
    fd = (prof(ts + eps) - prof(ts - eps)) / (2 * eps)
    assert np.abs(prof.deriv(ts) - fd).max() < 1e-5


@pytest.mark.parametrize("gap", [0.0, 5e-10, -5e-10])
def test_power_profile_is_the_log_profile_at_the_tie(gap):
    # within REGIME_TOL of p = q the shape is the exact a -> 0 limit, where
    # the power formula would drift by about 1e-7 through cancellation
    prof, ref = power_profile(0.5, 2.0, 2.0, 2.0 + gap), log_profile(0.5, 2.0)
    ts = np.linspace(0.0, 2.5, 26)
    assert prof.kind == "log"
    assert np.array_equal(prof(ts), ref(ts))
    assert np.array_equal(prof.deriv(ts), ref.deriv(ts))
    assert power_profile(0.5, 2.0, 2.0, 2.0 + 1e-6).kind == "power"


def test_profile_validation():
    with pytest.raises(ValueError):
        power_profile(2.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        log_profile(0.0, 1.0)
    with pytest.raises(ValueError):
        power_profile(1.0, 2.0, 0.9, 3.0)


# ----------------------------------------------------------------------
# energies against the radial reduction
# ----------------------------------------------------------------------

def test_log_profile_energy_plane(ring_grid):
    c = origin_node(ring_grid)
    fld = radialize(ring_grid, c, log_profile(1.0, 2.0))
    es = p_energy(ring_grid, fld, 2.0)
    assert es.edge == pytest.approx(2 * math.pi / math.log(2), rel=0.02)


def test_power_profile_energy_space():
    g3 = build_euclidean_grid(3, 2.1, 0.1)
    c = g3.nearest_node([0.0, 0.0, 0.0])
    prof = power_profile(1.0, 2.0, 2.0, 3.0)
    es = p_energy(g3, radialize(g3, c, prof), 2.0)
    expected = radial_profile_energy(3, prof.deriv, 1.0, 2.0, 2.0)
    assert expected == pytest.approx(8 * math.pi, rel=1e-9)
    assert es.edge == pytest.approx(expected, rel=0.05)


def test_edge_and_node_forms_agree_within_power_of_two(ring_grid):
    c = origin_node(ring_grid)
    for p in (2.0, 3.0):
        for prof in (log_profile(1.0, 2.0), power_profile(0.5, 2.0, p, 3.5)):
            es = p_energy(ring_grid, radialize(ring_grid, c, prof), p)
            assert 2.0**-p <= es.node / es.edge <= 2.0**p


def test_field_from_values_shapes(grid2):
    with pytest.raises(ValueError):
        field_from_values(grid2, np.zeros(3))
    u = np.zeros(grid2.n_nodes)
    fld = field_from_values(grid2, u)
    assert fld.g_edge.shape == (grid2.n_edges,)
    assert fld.lip.shape == (grid2.n_nodes,)
    assert p_energy(grid2, fld, 2.0).edge == 0.0


def test_energy_validation(grid2):
    fld = field_from_values(grid2, np.zeros(grid2.n_nodes))
    with pytest.raises(ValueError):
        p_energy(grid2, fld, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_from_values_rejects_non_finite_values(grid2, bad):
    # a NaN gave energies of NaN after RuntimeWarnings, an infinity inf
    u = np.zeros(grid2.n_nodes)
    u[grid2.n_nodes // 2] = bad
    with pytest.raises(ValueError, match="u must be finite"):
        field_from_values(grid2, u)


# ----------------------------------------------------------------------
# the kernels against the plain formulas
# ----------------------------------------------------------------------

def _plain_field(space, u):
    """Edge quotients by gathering both ends, node maxima by two scatters."""
    i, j = space.edges[:, 0], space.edges[:, 1]
    g = np.abs(u[i] - u[j]) / space.edge_lengths
    lip = np.zeros(space.n_nodes)
    np.maximum.at(lip, i, g)
    np.maximum.at(lip, j, g)
    return g, lip


def _field_values(space, seed):
    """A radial field around the node nearest the origin, and seeded noise."""
    d = space.distances_from(origin_node(space))
    rng = np.random.default_rng(seed)
    return [log_profile(0.1, 0.8 * d.max())(d), rng.normal(size=space.n_nodes)]


def _assert_field_is_the_plain_formula(space, u):
    fld = field_from_values(space, u)
    g, lip = _plain_field(space, u)
    assert np.all(fld.g_edge == g) and fld.g_edge.shape == g.shape
    assert np.all(fld.lip == lip) and fld.lip.shape == lip.shape
    return fld


@pytest.mark.parametrize("n,half_extent,h,alpha", [
    (1, 1.2, 0.01, 0.0), (1, 1.2, 0.01, 1.0),
    (2, 1.05, 0.05, 0.0), (2, 1.05, 0.05, 1.0),
    (3, 0.6, 0.05, 0.0), (3, 0.6, 0.05, 1.0),
    (4, 0.4, 0.1, 0.0), (4, 0.4, 0.1, 1.0),
])
def test_grid_field_by_axis_slabs_is_the_plain_formula(n, half_extent, h, alpha):
    sp = build_euclidean_grid(n, half_extent, h, alpha=alpha)
    assert sp._grid_shape == (2 * round(half_extent / h) + 1,) * n
    for u in _field_values(sp, seed=n):
        _assert_field_is_the_plain_formula(sp, u)


def _hand_built_space():
    """A 4-cycle with a chord and a repeated edge, edges in no grid order."""
    coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    edges = [[2, 1], [0, 1], [3, 2], [0, 3], [1, 3], [3, 0]]
    lengths = [1.0, 1.0, 1.0, 1.0, 2.0**0.5, 1.0]
    return DiscreteSpace(coords, np.ones(4), edges, lengths, "euclidean", 1.0)


@pytest.mark.parametrize("which", ["cone2", "glued2", "heis_graph", "hand_built", "loaded_grid"])
def test_other_spaces_record_no_layout_and_gather(request, tmp_path, grid2, which):
    if which == "hand_built":
        sp = _hand_built_space()
    elif which == "loaded_grid":
        save_space(grid2, tmp_path / "grid2.txt")
        sp = load_space(tmp_path / "grid2.txt", metric="euclidean")
    else:
        sp = request.getfixturevalue(which)
    assert sp._grid_shape is None
    for u in _field_values(sp, seed=5):
        fld = _assert_field_is_the_plain_formula(sp, u)
        if which == "loaded_grid":  # the slab path gives the gather path's bytes
            built = field_from_values(grid2, u)
            assert fld.g_edge.tobytes() == built.g_edge.tobytes()
            assert fld.lip.tobytes() == built.lip.tobytes()


def _plain_energy(space, fld, p):
    return (float((space.edge_masses() * fld.g_edge**p).sum()),
            float((space.mass * fld.lip**p).sum()))


def _plain_shells(space, fld, c, r, R, p, k0):
    """Whole-space binning by one add per ring node."""
    d = space.distances_from(c)
    ring = (d > r) & (d < R)
    contrib = space.mass * fld.lip**p
    shell_of = np.clip(np.floor(np.log2(np.where(ring, d, r) / r)).astype(int), 0, k0)
    counts = np.zeros(k0 + 1, dtype=np.int64)
    energies = np.zeros(k0 + 1)
    np.add.at(counts, shell_of[ring], 1)
    np.add.at(energies, shell_of[ring], contrib[ring])
    return counts, energies


def _assert_kernels_match_the_formulas(space, fld, c, r, R, p):
    split = p_energy(space, fld, p)
    edge, node = _plain_energy(space, fld, p)
    assert np.array_equal([split.edge, split.node], [edge, node], equal_nan=True)
    sh = dyadic_shell_energy(space, fld, c, r, R, p)
    counts, energies = _plain_shells(space, fld, c, r, R, p, sh.k0)
    assert sh.counts.dtype == counts.dtype and np.array_equal(sh.counts, counts)
    assert np.array_equal(sh.energies, energies, equal_nan=True)


def _ring_profile(r, R, p):
    return log_profile(r, R) if p == 3.0 else power_profile(r, R, p, 3.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_kernels_equal_the_plain_formulas_bit_for_bit(weighted_plane, p):
    sp = weighted_plane
    c = origin_node(sp)
    fld = radialize(sp, c, _ring_profile(0.1, 1.0, p))
    assert 0.2 < np.mean(fld.g_edge == 0) < 0.8  # the zeros the powers skip
    _assert_kernels_match_the_formulas(sp, fld, c, 0.1, 1.0, p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_kernels_pass_nan_and_negative_entries_as_the_formulas_do(weighted_plane, p, bad):
    # powers taken only where x > 0 would drop these entries' terms
    sp = weighted_plane
    c = origin_node(sp)
    fld = radialize(sp, c, _ring_profile(0.1, 1.0, p))
    g, lip = fld.g_edge.copy(), fld.lip.copy()
    g[[0, g.size // 2]] = bad
    d = sp.distances_from(c)
    lip[np.flatnonzero((d > 0.1) & (d < 1.0))[[0, -1]]] = bad
    with np.errstate(invalid="ignore"):  # a negative base at p = 1.5
        _assert_kernels_match_the_formulas(sp, PotentialField(fld.u, g, lip), c, 0.1, 1.0, p)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_kernel_peaks_stay_near_one_edge_array(weighted_plane):
    # p_energy holds one float array of the edges and its nonzero mask, an
    # eighth of it (1.13); the shells hold four arrays of the ring's nodes,
    # about 0.55 n = 0.28 m here (1.11).  Binning the whole space peaked at
    # 1.61 edge arrays.  field_from_values returns g (one edge array) and lip
    # (n = 0.5 m, half of one), 1.5 in all.  Beside them the slabs hold only
    # numpy's iterator buffers, at most three operands of getbufsize()
    # doubles (192 KiB, whatever the size), for an axis whose edges run
    # across memory: 1.64 here, and 1.54 on the 231k-node plane.  The u mask
    # of the finiteness check, m / 16, is freed before.  Gathering both
    # ends peaked at 2.00.
    sp = weighted_plane
    c = origin_node(sp)
    fld = radialize(sp, c, log_profile(0.1, 1.0))
    sp.edge_masses()
    edge_bytes = 8 * sp.n_edges
    buffers = 3 * 8 * np.getbufsize()
    assert _traced_peak(lambda: field_from_values(sp, fld.u)) <= 1.6 * edge_bytes + buffers
    assert _traced_peak(lambda: p_energy(sp, fld, 3.0)) <= 1.25 * edge_bytes
    assert _traced_peak(
        lambda: dyadic_shell_energy(sp, fld, c, 0.1, 1.0, 3.0)) <= 1.25 * edge_bytes


# ----------------------------------------------------------------------
# dyadic shells
# ----------------------------------------------------------------------

def test_shell_energies_partition_ring_exactly(ring_grid):
    c = origin_node(ring_grid)
    fld = radialize(ring_grid, c, log_profile(0.25, 2.0))
    sh = dyadic_shell_energy(ring_grid, fld, c, 0.25, 2.0, 2.0)
    d = ring_grid.distances_from(c)
    ring = (d > 0.25) & (d < 2.0)
    direct = float((ring_grid.mass[ring] * fld.lip[ring] ** 2).sum())
    assert sh.total == pytest.approx(direct, abs=1e-12)
    assert sh.counts.sum() == int(ring.sum())


def test_critical_shells_carry_equal_energy(ring_grid):
    # for the log shape each dyadic shell holds ~ 2 pi log2 / log^2(R/r)
    c = origin_node(ring_grid)
    r, R = 0.25, 2.0
    fld = radialize(ring_grid, c, log_profile(r, R))
    sh = dyadic_shell_energy(ring_grid, fld, c, r, R, 2.0)
    per = 2 * math.pi * math.log(2) / math.log(R / r) ** 2
    live = sh.counts > 0
    assert live.sum() >= 3
    assert np.all(np.abs(sh.energies[live] / per - 1.0) <= 0.3)


def test_shell_validation(ring_grid):
    c = origin_node(ring_grid)
    fld = radialize(ring_grid, c, log_profile(0.25, 2.0))
    with pytest.raises(ValueError):
        dyadic_shell_energy(ring_grid, fld, c, 2.0, 0.25, 2.0)
    with pytest.raises(ValueError):
        dyadic_shell_energy(ring_grid, fld, c, 0.25, 2.0, 0.5)
