"""Independent reference values for the test suite.

Nothing in this module imports the package under test.  Every quantity is
computed from first principles -- generic quadrature against the radial
Euler-Lagrange reduction, series composition on chains, direct volume
integrals -- so the numbers can serve as external checks on the library.
The grid constructions at the end build each array from full index
meshgrids in one pass, the plainest way to write them down, so the
library's blocked builders can be checked against them bit for bit.
"""

import math

import numpy as np
from scipy.integrate import quad


def sphere_area(n):
    """Surface measure of the unit sphere S^(n-1) in R^n (2 when n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n, r=1.0):
    """Lebesgue volume of the n-ball of radius r."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r**n


def weighted_ball_mass(n, alpha, r):
    """Mass of B(0, r) in R^n under the density |x|^alpha."""
    return sphere_area(n) * r ** (n + alpha) / (n + alpha)


def radial_ring_capacity(n, r, R, p):
    """Continuum p-capacity of the ring between concentric balls in R^n.

    Minimizing the radial p-Dirichlet integral gives

        cap = area(S^{n-1}) * I^{1-p},   I = integral_r^R t^{-(n-1)/(p-1)} dt,

    evaluated by quadrature so no closed form is special-cased.
    """
    a = (n - 1.0) / (p - 1.0)
    val, err = quad(lambda t: t ** (-a), r, R, limit=200)
    if err > 1e-8 * abs(val):
        raise RuntimeError("quadrature did not converge")
    return sphere_area(n) * val ** (1.0 - p)


def radial_profile_energy(n, du, r, R, p, weight=None):
    """p-energy of a radial profile: area * integral |u'|^p w(t) t^(n-1) dt."""
    w = weight if weight is not None else (lambda t: 1.0)
    val, err = quad(lambda t: abs(du(t)) ** p * w(t) * t ** (n - 1.0),
                    r, R, limit=200)
    return sphere_area(n) * val


def koranyi_ball_volume(r):
    """Lebesgue volume of the gauge ball (|z|^4 + 16 t^2)^(1/4) <= r in R^3.

    At planar radius s the t-section has half-width sqrt(r^4 - s^4) / 4;
    integrating 2 pi s times the full width gives the volume.
    """
    val, err = quad(
        lambda s: 2.0 * math.pi * s * np.sqrt(max(r**4 - s**4, 0.0)) / 2.0,
        0.0, r, limit=200)
    return val


def gauge_ring_capacity(r, R):
    """Continuum 2-capacity of the gauge ring r < N < R in the Heisenberg
    group, N = (|z|^4 + 16 t^2)^(1/4), with horizontal fields
    X = d_x - (y/2) d_t and Y = d_y + (x/2) d_t.

    N^-2 is harmonic for X^2 + Y^2 and |grad_H N|^2 = |z|^2 / N^2, so the
    minimizer is u = (N^-2 - R^-2) / (r^-2 - R^-2), with |grad_H u|^2 =
    4 N^-6 |z|^2 / N^2 / (r^-2 - R^-2)^2.  The dilation (z, t) -> (s z, s^2 t)
    scales |z|^2 dV by s^6, so the integral of |z|^2 over N < s is
    s^6 pi / 6: over N < 1, |t| < sqrt(1 - |z|^4) / 4, and
    int_0^1 2 pi w w^2 sqrt(1 - w^4) / 2 dw = pi / 6.  Integrating the
    energy density shell by shell, d(s^6 pi / 6) / s^2 = pi s^3 ds, gives

        cap = 4 pi / (r^-2 - R^-2)^2 * int_r^R s^-3 ds
            = 2 pi / (r^-2 - R^-2) = 2 pi r^2 R^2 / (R^2 - r^2).
    """
    return 2.0 * math.pi * r * r * R * R / (R * R - r * r)


def series_capacity(conductances, p):
    """Exact p-capacity of edges in series under a unit potential drop.

    For energy sum c_e |du_e|^p the optimal drops are proportional to
    c_e^(-1/(p-1)) and the minimum is (sum c_e^(-1/(p-1)))^(1-p).
    """
    c = np.asarray(conductances, dtype=float)
    return float(np.sum(c ** (-1.0 / (p - 1.0))) ** (1.0 - p))


def chain_capacity(gap, h, p):
    """Capacity of one uniform 1-D chain bridging a gap of length ``gap``.

    Unit-density cells give every edge conductance h^(1-p); k = gap/h
    edges in series yield exactly gap^(1-p).
    """
    k = int(round(gap / h))
    return series_capacity(np.full(k, h ** (1.0 - p)), p)


def _cell_widths(count, step):
    w = np.full(count, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _axis_neighbor_edges(index_shape):
    ids = np.arange(int(np.prod(index_shape))).reshape(index_shape)
    pairs = []
    for ax in range(len(index_shape)):
        a = np.moveaxis(ids, ax, 0)
        pairs.append(np.stack([a[:-1].ravel(), a[1:].ravel()], axis=1))
    return np.concatenate(pairs, axis=0)


def meshgrid_euclidean_grid(n, half_extent, h, alpha=0.0):
    """(coords, mass, edges, edge_lengths) of the weighted grid on
    [-E, E]^n, built from full index meshgrids in one pass.

    Node mass is |x|^alpha times the cell volume (boundary cells halved per
    axis); the origin takes the weight at radius sqrt(n) h / 4.  Edges join
    axis neighbours, all of axis 0 first, each axis in node order.
    """
    m = int(round(half_extent / h))
    axis = h * np.arange(-m, m + 1)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    widths = _cell_widths(axis.size, h)
    cell = widths
    for _ in range(n - 1):
        cell = np.multiply.outer(cell, widths)
    cell = cell.ravel()
    radius = np.sqrt((coords * coords).sum(axis=1))
    if alpha == 0.0:
        weight = np.ones_like(radius)
    else:
        weight = np.zeros_like(radius)
        nz = radius > 0
        weight[nz] = radius[nz] ** alpha
        weight[~nz] = (np.sqrt(n) * h / 4.0) ** alpha
    edges = _axis_neighbor_edges((axis.size,) * n)
    return coords, weight * cell, edges, np.full(edges.shape[0], h)


def meshgrid_heisenberg_grid(half_extent, h, t_half_extent=None, t_step=None,
                             with_edges=True):
    """(coords, mass, edges, edge_lengths) of the Heisenberg lattice with
    nodes (i h, j h, k s), built from full index meshgrids in one pass.

    The edges are the x-steps (i, j, k) -> (i+1, j, k-j) and the y-steps
    (i, j, k) -> (i, j+1, k+i), both of length h and only at the default
    step s = h^2 / 2, then the vertical steps (i, j, k) -> (i, j, k+1) of
    length (16 s^2)^(1/4); each kind in node order.
    """
    default_step = 0.5 * h * h
    s = default_step if t_step is None else t_step
    T = half_extent * half_extent if t_half_extent is None else t_half_extent
    m = int(round(half_extent / h))
    mk = int(round(T / s))
    nxy, nt = 2 * m + 1, 2 * mk + 1
    ii, jj, kk = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1),
                             np.arange(-mk, mk + 1), indexing="ij")
    i, j, k = ii.ravel(), jj.ravel(), kk.ravel()
    coords = np.stack([h * i, h * j, s * k], axis=1)
    wx, wt = _cell_widths(nxy, h), _cell_widths(nt, s)
    mass = wx[i + m] * wx[j + m] * wt[k + mk]
    if not with_edges:
        return coords, mass, np.zeros((0, 2), dtype=np.int64), np.zeros(0)

    def node_id(a, b, c):
        return (a + m) * (nxy * nt) + (b + m) * nt + (c + mk)

    pairs, lengths = [], []
    if abs(s - default_step) <= 1e-15 * max(1.0, default_step):
        ok = (i + 1 <= m) & (np.abs(k - j) <= mk)
        pairs.append(np.stack([node_id(i[ok], j[ok], k[ok]),
                               node_id(i[ok] + 1, j[ok], k[ok] - j[ok])], axis=1))
        lengths.append(np.full(ok.sum(), h))
        ok = (j + 1 <= m) & (np.abs(k + i) <= mk)
        pairs.append(np.stack([node_id(i[ok], j[ok], k[ok]),
                               node_id(i[ok], j[ok] + 1, k[ok] + i[ok])], axis=1))
        lengths.append(np.full(ok.sum(), h))
    ok = k + 1 <= mk
    pairs.append(np.stack([node_id(i[ok], j[ok], k[ok]),
                           node_id(i[ok], j[ok], k[ok] + 1)], axis=1))
    lengths.append(np.full(ok.sum(), (16.0 * s * s) ** 0.25))
    return coords, mass, np.concatenate(pairs), np.concatenate(lengths)


def meshgrid_double_cone(n, half_extent, h):
    """(coords, mass, edges, edge_lengths) of the grid on [-E, E]^n kept
    where x_1^2 + ... + x_{n-1}^2 <= x_n^2, from the meshgrid grid above.

    The kept nodes stay in grid order; an edge is kept when both its ends
    are, and its ends are renumbered to the kept nodes.
    """
    coords, mass, edges, lengths = meshgrid_euclidean_grid(n, half_extent, h)
    inside = (coords[:, :-1] ** 2).sum(axis=1) <= coords[:, -1] ** 2 + 1e-12 * h * h
    new_id = np.cumsum(inside) - 1
    both = inside[edges[:, 0]] & inside[edges[:, 1]]
    return coords[inside], mass[inside], new_id[edges[both]], lengths[both]
