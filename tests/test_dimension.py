"""Doubling constants, pointwise dimensions, and regularity reports."""

import numpy as np
import pytest

from conftest import origin_node
from ringcap import (
    DiscreteSpace,
    ahlfors_regularity,
    analyze_dimension,
    build_euclidean_grid,
    check_volume_bounds,
    doubling_constant,
    local_dimension,
    pointwise_dimension,
)
from ringcap.dimension import fit_power_law


def test_dimension_from_doubling_constant():
    assert local_dimension(4.0) == 2.0
    assert local_dimension(16.0) == 4.0
    assert local_dimension(1.0) == 0.0
    with pytest.raises(ValueError):
        local_dimension(0.5)


def test_doubling_constant_plane(grid2_fine):
    c = doubling_constant(grid2_fine, [origin_node(grid2_fine)], 1.0)
    assert c == pytest.approx(4.0, rel=0.15)


def test_doubling_constant_group(heis_probe):
    c = doubling_constant(heis_probe, [origin_node(heis_probe)], 0.6)
    assert c == pytest.approx(16.0, rel=0.15)


def test_doubling_constant_input_errors(grid2):
    with pytest.raises(ValueError):
        doubling_constant(grid2, [], 1.0)
    with pytest.raises(ValueError):
        doubling_constant(grid2, [0], 0.3)  # under ten grid steps


def test_pointwise_dimension_plane(grid2_fine):
    fit = pointwise_dimension(grid2_fine, origin_node(grid2_fine),
                              np.geomspace(0.1, 1.0, 6))
    assert abs(fit.slope - 2.0) <= 0.1
    assert fit.residual < 0.05


def test_pointwise_dimension_weighted_center_and_offset():
    w = build_euclidean_grid(2, 1.05, 0.01, alpha=1.0)
    q0 = pointwise_dimension(w, w.nearest_node([0.0, 0.0]),
                             np.geomspace(0.1, 1.0, 6)).slope
    qx = pointwise_dimension(w, w.nearest_node([0.65, 0.0]),
                             np.geomspace(0.05, 0.5, 6)).slope
    assert abs(q0 - 3.0) <= 0.15
    assert abs(qx - 2.0) <= 0.1


def test_pointwise_dimension_validation(grid2_fine):
    c = origin_node(grid2_fine)
    with pytest.raises(ValueError):
        pointwise_dimension(grid2_fine, c, [0.1, 0.2, 0.9])
    with pytest.raises(ValueError):
        pointwise_dimension(grid2_fine, c, [0.1, 0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        pointwise_dimension(grid2_fine, c, [0.2, 0.4, 0.8, 1.0])  # no decade
    with pytest.raises(ValueError):
        pointwise_dimension(grid2_fine, c, [0.01, 0.05, 0.1, 0.2])  # under 5h


def test_mass_scaling_leaves_dimension_fixed(grid2):
    c = origin_node(grid2)
    radii = np.geomspace(0.25, 2.5, 5)
    scaled = DiscreteSpace(grid2.coords, 7.25 * grid2.mass, grid2.edges,
                           grid2.edge_lengths, "euclidean", 0.05)
    # radii beyond the box are fine for mass counting: balls saturate the grid
    f1 = pointwise_dimension(grid2, c, radii)
    f2 = pointwise_dimension(scaled, c, radii)
    assert abs(f1.slope - f2.slope) < 1e-9


def test_analyze_dimension_bundle(grid2_fine):
    c = origin_node(grid2_fine)
    rep = analyze_dimension(grid2_fine, [c], 1.0)
    assert abs(rep.q_local - 2.0) <= 0.2
    assert abs(rep.q_point[c] - 2.0) <= 0.1
    # pointwise estimates never exceed the doubling estimate by much
    assert all(q <= rep.q_local + 0.1 for q in rep.q_point.values())
    assert rep.fit_residual < 0.05
    assert len(rep.samples) == len(rep.radii)
    with pytest.raises(ValueError):
        analyze_dimension(grid2_fine, [c], 0.25)  # under 50 grid steps


def test_ahlfors_regular_plane(grid2_fine):
    c = origin_node(grid2_fine)
    off = grid2_fine.nearest_node([0.5, 0.3])
    rep = ahlfors_regularity(grid2_fine, 2.0, [c, off], np.geomspace(0.1, 0.5, 5))
    assert rep.spread <= 1.5


def test_ahlfors_detects_wrong_exponent_on_weighted_grid(weighted2):
    c = origin_node(weighted2)
    off = weighted2.nearest_node([0.9, 0.0])
    rep = ahlfors_regularity(weighted2, 2.0, [c, off], np.geomspace(0.25, 0.5, 4))
    assert rep.spread > 3.0


def test_ahlfors_double_cone_stays_bounded(cone2):
    apex = origin_node(cone2)
    up = cone2.nearest_node([0.0, 0.8])
    rep = ahlfors_regularity(cone2, 2.0, [apex, up], np.geomspace(0.15, 0.45, 4))
    assert rep.spread <= 2.5


def test_volume_bounds_flag_gap_in_growth(grid2_fine):
    c = origin_node(grid2_fine)
    clean = check_volume_bounds(grid2_fine, c, 0.9, 2.0, 2.0)
    assert clean.passed
    mass = grid2_fine.mass.copy()
    d = grid2_fine.distances_from(c)
    mass[(d > 0.55) & (d < 0.75)] = 0.0
    holed = DiscreteSpace(grid2_fine.coords, mass, grid2_fine.edges,
                          grid2_fine.edge_lengths, "euclidean", 0.01)
    broken = check_volume_bounds(holed, c, 0.9, 2.0, 2.0)
    assert not broken.passed
    assert max(broken.worst_lower, broken.worst_upper) > 1.2


def test_volume_bounds_validation(grid2_fine):
    c = origin_node(grid2_fine)
    with pytest.raises(ValueError):
        check_volume_bounds(grid2_fine, c, -1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        check_volume_bounds(grid2_fine, c, 0.5, 2.0, 2.0, radii=[0.2, 0.9])


def test_power_law_fit_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [0.0, 1.0])
    fit = fit_power_law([1.0, 2.0, 4.0], [3.0, 12.0, 48.0])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-12
