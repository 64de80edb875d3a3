"""Builders, metrics, measures, and the flat-file format."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from conftest import origin_node
from oracles import (
    ball_volume,
    koranyi_ball_volume,
    meshgrid_double_cone,
    meshgrid_euclidean_grid,
    meshgrid_heisenberg_grid,
    weighted_ball_mass,
)
from ringcap import spaces
from ringcap import (
    DiscreteSpace,
    build_double_cone,
    build_euclidean_grid,
    build_glued_balls,
    build_heisenberg_grid,
    koranyi_distance,
    load_space,
    save_space,
    verify_metric,
)


# ----------------------------------------------------------------------
# gauge distance
# ----------------------------------------------------------------------

def test_gauge_distance_axis_point_is_exact():
    d = koranyi_distance(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert np.ndim(d) == 0  # two single points give a scalar
    assert d == 1.0


def test_gauge_distance_hand_values():
    assert koranyi_distance(np.zeros(3), np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0, abs=1e-15)
    assert koranyi_distance(np.zeros(3), np.array([1.0, 1.0, 0.0])) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_gauge_distance_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 3))
    b = rng.normal(size=(50, 3))
    assert np.abs(koranyi_distance(a, b) - koranyi_distance(b, a)).max() < 1e-12


# ----------------------------------------------------------------------
# ball masses against continuum volumes
# ----------------------------------------------------------------------

def test_euclidean_ball_mass_matches_volume(grid2_fine):
    c = origin_node(grid2_fine)
    for r in (0.5, 1.0):
        assert grid2_fine.ball_mass(c, r) == pytest.approx(ball_volume(2, r), rel=0.05)


def test_ball_mass_stable_under_refinement(grid2_fine):
    coarse = build_euclidean_grid(2, 1.05, 0.02)
    m1 = coarse.ball_mass(origin_node(coarse), 1.0)
    m2 = grid2_fine.ball_mass(origin_node(grid2_fine), 1.0)
    assert abs(m1 - m2) / m2 < 0.05


def test_weighted_ball_mass(weighted2):
    c = origin_node(weighted2)
    assert weighted2.ball_mass(c, 0.5) == pytest.approx(weighted_ball_mass(2, 1.0, 0.5), rel=0.10)


def test_group_ball_mass_and_doubling_ratio(heis_probe):
    c = origin_node(heis_probe)
    for r in (0.2, 0.25):
        m = heis_probe.ball_mass(c, r)
        assert m == pytest.approx(koranyi_ball_volume(r), rel=0.05)
        assert heis_probe.ball_mass(c, 2 * r) / m == pytest.approx(16.0, rel=0.10)


def test_gauge_ball_volume_constant_oracle():
    # quadrature oracle agrees with the closed form pi^2 r^4 / 8
    for r in (0.3, 0.7, 1.1):
        assert koranyi_ball_volume(r) == pytest.approx(math.pi**2 * r**4 / 8, rel=1e-9)


def test_double_cone_mass_and_membership(cone2):
    c = origin_node(cone2)
    assert np.allclose(cone2.coords[c], 0.0)
    assert cone2.ball_mass(c, 1.0) == pytest.approx(math.pi / 2, rel=0.05)
    # the vertical axis point is in the cone, the horizontal one is far out
    assert np.allclose(cone2.coords[cone2.nearest_node([0.0, 1.0])], [0.0, 1.0])
    gap = np.sqrt(((cone2.coords - np.array([1.0, 0.0])) ** 2).sum(axis=1)).min()
    assert gap > 0.5


def test_glued_balls_center_distance_and_wire_mass(glued2):
    ca = glued2.extras["center_a"]
    cb = glued2.extras["center_b"]
    mid = glued2.extras["mid_segment"]
    # path through ball A (radius 1) + wire (length 1) + ball B
    assert glued2.distance(ca, cb) == pytest.approx(3.0, abs=1e-9)
    h = glued2.resolution
    for r in (0.2, 0.4):
        assert abs(glued2.ball_mass(mid, r) - 2 * r) <= 2.5 * h


def test_empty_and_tiny_balls(grid2):
    c = origin_node(grid2)
    assert grid2.ball(c, 0.0).size == 0
    assert grid2.closed_ball(c, 0.0).size == 1


def test_unit_step_line_has_three_nodes(line3):
    assert line3.n_nodes == 3
    c = origin_node(line3)
    assert line3.ball(c, 1.5).size == 3
    # half-open boundary cells: endpoint cells are clipped to the box
    assert np.array_equal(np.sort(line3.mass), [0.5, 0.5, 1.0])
    assert line3.total_mass == 2.0


# ----------------------------------------------------------------------
# distance rows: the latest row is kept, read-only
# ----------------------------------------------------------------------

def _gauge_one_shot(a, b):
    """Gauge distances of a and b, the formula applied to all rows at once."""
    z2 = (b[..., 0] - a[..., 0]) ** 2 + (b[..., 1] - a[..., 1]) ** 2
    dt = b[..., 2] - a[..., 2] + 0.5 * (a[..., 1] * b[..., 0] - a[..., 0] * b[..., 1])
    return (z2 * z2 + 16.0 * dt * dt) ** 0.25


def _euclidean_one_shot(a, b):
    """Euclidean distances of a and b, the formula applied to all rows at once."""
    diff = b - a
    return np.sqrt((diff * diff).sum(axis=-1))


def _row_reference(space, c):
    if space.metric == "euclidean":
        return _euclidean_one_shot(space.coords[c], space.coords)
    if space.metric == "koranyi":
        return _gauge_one_shot(space.coords[c], space.coords)
    return dijkstra(space._graph(), directed=False, indices=c)


@pytest.mark.parametrize("name", ["grid2", "heis_probe", "glued2"])
def test_distance_row_is_cached_exact_and_read_only(request, name):
    space = request.getfixturevalue(name)
    for c in (0, space.n_nodes // 3, space.n_nodes - 1):
        row = space.distances_from(c)
        assert space.distances_from(c) is row
        ref = _row_reference(space, c)
        assert row.tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            row[0] = 1.0


@pytest.mark.parametrize("name", ["grid2", "heis_probe", "glued2"])
def test_only_the_latest_row_is_kept(request, name):
    space = request.getfixturevalue(name)
    first = space.distances_from(0)
    last = space.distances_from(space.n_nodes - 1)
    assert space.distances_from(space.n_nodes - 1) is last
    again = space.distances_from(0)  # dropped, so built anew
    assert again is not first
    assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("name", ["grid2", "glued2"])
def test_pair_distance_rejects_ids_out_of_range(request, name):
    # a closed-form metric read distance(-1, 0) as node n - 1's and raised
    # IndexError at n; a path space wrapped j = -1 the same way
    space = request.getfixturevalue(name)
    n = space.n_nodes
    assert space.distance(n - 1, 0) == pytest.approx(space.distances_from(0)[n - 1])
    for i, j in ((-1, 0), (0, -1), (n, 0), (0, n)):
        with pytest.raises(ValueError, match="out of range"):
            space.distance(i, j)


@pytest.mark.parametrize("kind", ["gauge", "grid2"])
def test_distance_row_memory(kind):
    # one uncached row used to peak at 14 row sizes (gauge) and 7 (grid)
    if kind == "gauge":
        space = build_heisenberg_grid(0.66, 0.03, t_half_extent=0.12,
                                      t_step=0.0012, with_edges=False)
    else:
        space = build_euclidean_grid(2, 1.05, 0.01)
    row_bytes = 8 * space.n_nodes
    c = space.n_nodes // 2
    tracemalloc.start()
    try:
        space.distances_from(c)
        fresh_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        space.distances_from(c)
        cached_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fresh_peak <= 6.5 * row_bytes
    assert cached_peak <= 1e-3 * row_bytes


@pytest.mark.parametrize("name", ["weighted2", "heis_probe", "glued2"])
def test_ball_masses_match_brute_force(request, name):
    space = request.getfixturevalue(name)
    c = space.n_nodes // 2
    d = space.distances_from(c)
    exact = np.unique(d)[[1, 5, 40]]  # node distances: ties are excluded
    radii = np.array([0.3, 0.0, exact[2], 0.1, exact[0], 0.3, exact[1],
                      2.0 * d.max(), 0.1])
    got = space.ball_masses(c, radii)
    want = np.array([space.mass[d < r].sum() for r in radii])
    assert got.shape == radii.shape
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert got[1] == 0.0
    assert got[4] < space.mass[d <= exact[0]].sum()
    assert got[7] == pytest.approx(space.total_mass, rel=1e-12)
    assert np.array_equal(space.ball_masses(c, radii.reshape(3, 3)), got.reshape(3, 3))
    with pytest.raises(ValueError):
        space.ball_masses(c, [0.1, -0.1])


# ----------------------------------------------------------------------
# builders and whole-space evaluations in blocks: bit-identical output
# ----------------------------------------------------------------------

def _arrays(space):
    return space.coords, space.mass, space.edges, space.edge_lengths


def _assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("n,half_extent,h", [
    (1, 1.0, 0.01), (2, 1.05, 0.005), (3, 0.5, 0.02), (4, 0.3, 0.05),
])
def test_euclidean_grid_matches_the_meshgrid_construction(n, half_extent, h, alpha):
    space = build_euclidean_grid(n, half_extent, h, alpha=alpha)
    _assert_same_arrays(_arrays(space), meshgrid_euclidean_grid(n, half_extent, h, alpha))


@pytest.mark.parametrize("kwargs", [
    dict(half_extent=0.4, h=0.05),
    dict(half_extent=0.4, h=0.05, t_step=0.003),
    dict(half_extent=0.66, h=0.03, t_half_extent=0.12, t_step=0.0012,
         with_edges=False),
], ids=["default_step", "t_step", "no_edges"])
def test_heisenberg_grid_matches_the_meshgrid_construction(kwargs):
    space = build_heisenberg_grid(**kwargs)
    _assert_same_arrays(_arrays(space), meshgrid_heisenberg_grid(**kwargs))


@pytest.mark.parametrize("n,half_extent,h", [
    (2, 1.05, 0.01), (3, 0.6, 0.02), (4, 0.5, 0.05),
])
def test_double_cone_matches_the_masked_meshgrid_construction(n, half_extent, h):
    space = build_double_cone(n, half_extent, h)
    _assert_same_arrays(_arrays(space), meshgrid_double_cone(n, half_extent, h))


def test_gauge_distance_in_blocks_matches_the_one_shot_formula():
    rng = np.random.default_rng(11)
    rows = 2 * spaces._EVAL_BLOCK + 3
    a = rng.normal(size=(rows, 3))
    b = rng.normal(size=(rows, 3))
    point = rng.normal(size=3)
    for x, y in ((point, b), (a, point), (a, b)):
        got = koranyi_distance(x, y)
        assert got.shape == (rows,)
        assert np.array_equal(got, _gauge_one_shot(x, y))


def _unchunked_ball_masses(row, mass, radii):
    """Ball masses from one table binned over all nodes at once."""
    levels, which = np.unique(radii, return_inverse=True)
    width = levels.size + 1
    bins = np.searchsorted(levels, row, side="right")
    block = max(spaces._SUM_BLOCK, width)
    n_blocks = -(-row.size // block)
    bins += np.repeat(width * np.arange(n_blocks), block)[: row.size]
    table = np.bincount(bins, weights=mass, minlength=n_blocks * width)
    per_level = np.ascontiguousarray(table.reshape(n_blocks, width).T).sum(axis=1)
    return np.cumsum(per_level)[which].reshape(radii.shape)


@pytest.mark.parametrize("count", [37, 2000])
def test_ball_masses_match_the_unchunked_table(heis_probe, count):
    space = heis_probe
    assert space.n_nodes % spaces._EVAL_BLOCK != 0
    c = space.n_nodes // 2
    row = space.distances_from(c)
    radii = np.random.default_rng(count).uniform(0.0, row.max(), size=count)
    got = space.ball_masses(c, radii)
    assert np.array_equal(got, _unchunked_ball_masses(row, space.mass, radii))


@pytest.mark.parametrize("build", [
    lambda: build_euclidean_grid(2, 0.7, 0.005),
    lambda: build_heisenberg_grid(0.4, 0.05),
], ids=["euclidean", "koranyi"])
def test_a_wrong_edge_length_in_the_last_block_raises(build):
    space = build()
    assert space.n_edges > 2 * spaces._EVAL_BLOCK
    lengths = space.edge_lengths.copy()
    lengths[-1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="edge lengths disagree with the metric"):
        DiscreteSpace(space.coords, space.mass, space.edges, lengths,
                      space.metric, space.resolution)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build,bound", [
    (lambda: build_heisenberg_grid(0.66, 0.03, t_half_extent=0.12,
                                   t_step=0.0012, with_edges=False), 1.1),
    (lambda: build_heisenberg_grid(0.6, 0.05), 1.25),
    (lambda: build_euclidean_grid(2, 1.2, 0.005, alpha=1.0), 1.5),
    (lambda: build_euclidean_grid(3, 0.6, 0.02), 1.5),
], ids=["lattice", "lattice_with_edges", "weighted_plane", "grid3"])
def test_builder_peak_stays_near_the_final_arrays(build, bound):
    # builds from full index meshgrids peaked at 2.25, 4.21, 2.68 and 3.07
    # times these bytes (1.03, 1.19, 1.26 and 1.20 now)
    space, peak = _traced_peak(build)
    final = sum(a.nbytes for a in _arrays(space))
    assert peak <= bound * final


@pytest.mark.parametrize("builds", [
    [lambda t=t: build_heisenberg_grid(0.66, 0.03, t_half_extent=t,
                                       t_step=0.0012, with_edges=False)
     for t in (0.12, 0.4)],
    [lambda h=h: build_euclidean_grid(2, 1.4, h) for h in (0.005, 0.0025)],
], ids=["gauge", "plane"])
def test_row_and_ball_mass_peak_does_not_grow_with_the_space(builds):
    # a row and its ball masses need the row plus a few blocks, not 4 rows;
    # the two spaces have about 0.3M and 1.3M nodes
    above_row = []
    for build in builds:
        space = build()
        origin = np.zeros(space.coords.shape[1])
        _, peak = _traced_peak(lambda: space.ball_masses(
            space.nearest_node(origin), np.linspace(0.0, 0.5, 50)))
        above_row.append(peak - 8 * space.n_nodes)
    assert abs(above_row[1] - above_row[0]) <= 1e6


# ----------------------------------------------------------------------
# metric verification
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "line_fine", "grid2", "grid3", "weighted2", "cone2", "glued2", "heis_graph",
])
def test_metric_axioms_hold_on_builders(request, name):
    space = request.getfixturevalue(name)
    report = verify_metric(space, samples=150, seed=1)
    assert report.passed
    assert report.max_symmetry_error <= 1e-9
    assert report.max_triangle_violation <= 1e-9
    assert report.failures == []


def _line_spaces():
    """The 21-node line of step 0.1, with its closed form and as a path space."""
    line = build_euclidean_grid(1, 1.0, 0.1)
    return [line, DiscreteSpace(line.coords, line.mass, line.edges,
                                line.edge_lengths, "path", line.resolution)]


def test_metric_checker_flags_asymmetry():
    true_rows = DiscreteSpace.distances_from
    for space in _line_spaces():
        space.distances_from = lambda c, s=space: true_rows(s, c) + 0.01 * c
        report = verify_metric(space, samples=100, seed=0)
        assert not report.passed, space.metric
        assert report.max_symmetry_error > 1e-3


def test_metric_checker_flags_triangle_violation():
    true_rows = DiscreteSpace.distances_from
    for space in _line_spaces():
        space.distances_from = lambda c, s=space: true_rows(s, c) ** 2
        report = verify_metric(space, samples=200, seed=0)
        assert not report.passed, space.metric
        assert report.max_triangle_violation > 1e-3


def test_metric_checker_flags_identity_failure():
    true_rows = DiscreteSpace.distances_from
    for space in _line_spaces():
        space.distances_from = lambda c, s=space: true_rows(s, c) + 0.05
        report = verify_metric(space, samples=50, seed=0)
        assert not report.passed, space.metric
        assert any(kind == "identity" for kind, *_ in report.failures)


def test_metric_check_holds_about_one_row_at_a_time():
    # keeping the 24 pool rows at full length peaked at 24 rows
    space = build_heisenberg_grid(0.66, 0.03, t_half_extent=0.3,
                                  t_step=0.0012, with_edges=False)
    assert space.n_nodes > 1_000_000
    report, peak = _traced_peak(lambda: verify_metric(space, samples=50, seed=1))
    assert report.passed
    assert peak <= 3 * 8 * space.n_nodes


# ----------------------------------------------------------------------
# flat files
# ----------------------------------------------------------------------

def test_save_load_roundtrip_is_exact(tmp_path, grid2):
    path = tmp_path / "space.txt"
    save_space(grid2, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "0 -1.05 -1.05 0.00062500000000000012"  # id x y mass
    assert lines[1 + grid2.n_nodes] == "0 43 0.050000000000000003"  # i j length
    back = load_space(path, metric="euclidean")
    assert np.array_equal(back.coords, grid2.coords)
    assert np.array_equal(back.mass, grid2.mass)
    assert np.array_equal(back.edges, grid2.edges)
    assert np.array_equal(back.edge_lengths, grid2.edge_lengths)
    assert back.resolution == 0.05


def test_save_load_keeps_the_glued_balls_resolution(tmp_path):
    # the segment spacing 1.03 / 21 is below the glued balls' step 0.05
    glued = build_glued_balls(2, 0.05, 1.03)
    assert glued.edge_lengths.min() < glued.resolution == 0.05
    path = tmp_path / "glued.txt"
    save_space(glued, path)
    assert path.read_text().splitlines()[0].split()[2] == "0.050000000000000003"
    assert load_space(path).resolution == 0.05


def test_load_of_a_two_field_header_takes_the_shortest_edge(tmp_path):
    glued = build_glued_balls(2, 0.05, 1.03)
    path = tmp_path / "glued.txt"
    save_space(glued, path)
    lines = path.read_text().splitlines()
    lines[0] = f"{glued.n_nodes} {glued.n_edges}"
    path.write_text("\n".join(lines) + "\n")
    assert load_space(path).resolution == glued.edge_lengths.min()


@pytest.mark.parametrize("token", ["0", "-0.05", "nan", "inf"])
def test_load_rejects_a_resolution_that_is_not_positive_and_finite(tmp_path, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"2 1 {token}\n0 0.0 1.0\n1 1.0 1.0\n0 1 1.0\n")
    with pytest.raises(ValueError, match="resolution"):
        load_space(path)


def test_load_accepts_permuted_node_lines(tmp_path, line_fine):
    path = tmp_path / "space.txt"
    save_space(line_fine, path)
    lines = path.read_text().splitlines()
    n = line_fine.n_nodes
    head, nodes, edges = lines[0], lines[1:1 + n], lines[1 + n:]
    rng = np.random.default_rng(7)
    rng.shuffle(nodes)
    path.write_text("\n".join([head] + nodes + edges) + "\n")
    back = load_space(path, metric="euclidean")
    assert np.array_equal(back.coords, line_fine.coords)
    assert np.array_equal(back.mass, line_fine.mass)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5 3 extra\n")
    with pytest.raises(ValueError):
        load_space(path)


def test_load_rejects_truncated_file(tmp_path, line3):
    path = tmp_path / "trunc.txt"
    save_space(line3, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]))
    with pytest.raises(ValueError):
        load_space(path)


@pytest.mark.parametrize("lines,number", [
    (["0 0.0 1.0", "1 1.0 1.0", "0 1"], 4),  # an edge without its length
    (["0 0.0 1.0", "1 1.0", "0 1 1.0"], 3),  # a node without its mass
    (["0 0.0 1.0", "1 1.0 2.0 1.0", "0 1 1.0"], 3),  # a node of another dimension
    (["0 0.0 1.0", "2 1.0 1.0", "0 1 1.0"], 3),  # a node id past the count
    (["0 0.0 1.0", "0 1.0 1.0", "0 1 1.0"], 3),  # a node id given twice
])
def test_load_names_the_line_of_a_malformed_record(tmp_path, lines, number):
    path = tmp_path / "two.txt"
    path.write_text("\n".join(["2 1"] + lines) + "\n")
    with pytest.raises(ValueError, match=f"line {number}:"):
        load_space(path)


# ----------------------------------------------------------------------
# builder validation
# ----------------------------------------------------------------------

def test_builder_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_euclidean_grid(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_euclidean_grid(2, 0.01, 0.05)
    with pytest.raises(ValueError):
        build_euclidean_grid(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_double_cone(1, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_glued_balls(5, 0.1, 1.0)
    with pytest.raises(ValueError):
        build_glued_balls(2, 0.6, 1.0)
    with pytest.raises(ValueError):
        build_heisenberg_grid(1.0, -0.1)


def test_space_validation_errors():
    coords = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        DiscreteSpace(coords, [1.0], [[0, 1]], [1.0], "euclidean", 1.0)
    with pytest.raises(ValueError):
        DiscreteSpace(coords, [1.0, -1.0], [[0, 1]], [1.0], "euclidean", 1.0)
    with pytest.raises(ValueError):
        DiscreteSpace(coords, [1.0, 1.0], [[0, 0]], [1.0], "euclidean", 1.0)
    with pytest.raises(ValueError):
        DiscreteSpace(coords, [1.0, 1.0], [[0, 1]], [-1.0], "euclidean", 1.0)
    with pytest.raises(ValueError):
        DiscreteSpace(coords, [1.0, 1.0], [[0, 1]], [2.0], "euclidean", 1.0)
    with pytest.raises(ValueError):
        DiscreteSpace(coords, [1.0, 1.0], [[0, 1]], [1.0], "taxicab", 1.0)


@pytest.mark.parametrize("coords,length,metric,resolution,match", [
    ([0.0, 1.0], np.nan, "euclidean", 1.0, "edge lengths"),
    ([0.0, 1.0], np.inf, "path", 1.0, "edge lengths"),
    ([0.0, np.nan], 1.0, "path", 1.0, "coordinates"),
    ([0.0, np.nan], 1.0, "euclidean", 1.0, "coordinates"),
    ([0.0, 1.0], 1.0, "euclidean", np.nan, "resolution"),
    ([0.0, 1.0], 1.0, "path", np.inf, "resolution"),
    ([0.0, 1.0], 1.0, "path", 0.0, "resolution"),
    # the metric length overflows to inf, so its relative error is NaN
    ([0.0, 1e300], 1e300, "euclidean", 1.0, "disagree"),
], ids=["nan_length", "inf_length", "nan_coord_path", "nan_coord",
        "nan_resolution", "inf_resolution", "zero_resolution", "inf_distance"])
def test_space_rejects_non_finite_inputs(coords, length, metric, resolution, match):
    with pytest.raises(ValueError, match=match), np.errstate(all="ignore"):
        DiscreteSpace(np.array(coords)[:, None], [1.0, 1.0], [[0, 1]], [length],
                      metric, resolution)


def test_a_repeated_edge_counts_once_at_its_shortest_length():
    # adding the copies, as COO to CSR does, would give [0, 2, 4.5]
    sp = DiscreteSpace([[0.0], [1.0], [2.0]], np.ones(3),
                       [[0, 1], [0, 1], [1, 2], [1, 2]], [1.0, 1.0, 1.5, 1.0],
                       "path", 1.0)
    assert np.array_equal(sp.distances_from(0), [0.0, 1.0, 2.0])


def test_symmetric_path_rows_equal_the_undirected_rows(glued2):
    # glued balls with one edge repeated in the other orientation, longer,
    # and another repeated in the other orientation, shorter
    e = glued2.edges
    edges = np.concatenate([e, e[[5, 17], ::-1]])
    lengths = np.concatenate([glued2.edge_lengths,
                              [1.5 * glued2.edge_lengths[5],
                               0.5 * glued2.edge_lengths[17]]])
    sp = DiscreteSpace(glued2.coords, glued2.mass, edges, lengths, "path",
                       glued2.resolution)
    # the undirected search of one orientation, each pair at its shortest
    shortest = {}
    for (i, j), length in zip(edges.tolist(), lengths.tolist()):
        key = (min(i, j), max(i, j))
        shortest[key] = min(length, shortest.get(key, np.inf))
    pairs = np.array(list(shortest))
    graph = coo_matrix((list(shortest.values()), (pairs[:, 0], pairs[:, 1])),
                       shape=(sp.n_nodes, sp.n_nodes)).tocsr()
    symmetric = sp._graph()
    assert (symmetric != symmetric.T).nnz == 0
    for c in (0, int(e[17, 0]), sp.n_nodes - 1):
        row = sp.distances_from(c)
        assert row.tobytes() == dijkstra(graph, directed=False, indices=c).tobytes()
        assert row.tobytes() == dijkstra(sp._graph(), directed=False,
                                         indices=c).tobytes()
