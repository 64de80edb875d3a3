"""Radial profiles, discrete energies, and shell decompositions."""

import math

import numpy as np
import pytest

from conftest import origin_node
from oracles import radial_profile_energy
from ringcap import (
    build_euclidean_grid,
    dyadic_shell_energy,
    field_from_values,
    log_profile,
    p_energy,
    power_profile,
    radialize,
)


@pytest.fixture(scope="module")
def ring_grid():
    """Plane grid wide enough for the unit-to-double ring."""
    return build_euclidean_grid(2, 2.1, 0.025)


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


def test_profile_validation():
    with pytest.raises(ValueError):
        power_profile(1.0, 2.0, 2.0, 2.0)  # degenerate exponent
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
