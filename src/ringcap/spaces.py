"""Discrete metric measure spaces on regular grids.

A :class:`DiscreteSpace` is a finite metric measure space (X, d, mu) seen
at a grid scale h: it holds node coordinates, one distance function d, a
positive node measure mu (cell masses) and the step h, plus a neighbor
graph whose edge lengths agree with d.  Generators are provided for

* weighted Euclidean grids (node mass ``|x|^alpha * h^n``),
* a discretization of the first Heisenberg group under the Koranyi gauge,
* a double cone (grid restricted to ``x_1^2 + ... + x_{n-1}^2 <= x_n^2``),
* two unit balls glued along a line segment, carrying the shortest-path
  metric of the glued complex.

Metrics are evaluated lazily, one row of distances from a centre at a
time: by one closed-form function per metric (Euclidean, gauge), picked
once per space and used by every query, or by shortest paths over the edge
graph for path spaces.  Each row is built from the structure the space
has, and every way gives the same bits.  A grid of
:func:`build_euclidean_grid` records its index shape, so a Euclidean row
there is a sum of per-axis squares, and its edge quotients and neighbour
maxima of node values are taken by axis slabs, without gathers.  A path
graph whose edges share one length takes its row from breadth-first
levels; a graph of several lengths, or one too deep for the level loop,
takes Dijkstra.  Every space keeps the row of its latest query and hands
it out read-only, so the calls that re-query one centre share a row;
:func:`verify_metric` asks for its rows like any other caller, and
:meth:`DiscreteSpace.nearest_node` at a node of a closed-form space keeps
the row it measured.  Ball masses for any set of radii come from one pass
over a row, without sorting it (:meth:`DiscreteSpace.ball_masses`).

Memory stays near the bytes of the space: the grid builders write their
arrays in place at final size, and the whole-space evaluations (closed-form
distance rows off a grid, the edge-length check of a new space, the
binning of ball masses) run over blocks of ``_EVAL_BLOCK`` rows, each block
by the same formula as one pass, so every value is bit-identical to an
unblocked evaluation.  A grid row needs only per-axis temporaries.  Rows
of a 2-d array are gathered by ``np.take(..., axis=0)`` and picked by a
mask with ``np.compress(..., axis=0)``, which copy the same rows without
numpy's general fancy-index path.

The package's NaN-safe input rules are defined here, at the bottom of the
import order, once each for every layer to call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

__all__ = [
    "DiscreteSpace",
    "build_euclidean_grid",
    "build_heisenberg_grid",
    "build_double_cone",
    "build_glued_balls",
    "koranyi_distance",
    "verify_metric",
    "MetricReport",
    "save_space",
    "load_space",
]

# Numbers are written with 17 significant digits so float64 values survive a
# text round trip exactly.
_FMT = "%.17g"

# nodes per block when ball masses are summed (see DiscreteSpace.ball_masses)
_SUM_BLOCK = 1024
# rows per block of a whole-space evaluation (distance rows, the edge-length
# check, the binning of ball masses, the weights of a weighted grid), so its
# temporaries take a few MB however large the space
_EVAL_BLOCK = 1 << 16
# arcs of a one-length path graph per breadth-first level it may take before
# Dijkstra does the row instead.  Measured on a 2-core x86 VM (the glued
# balls of 66,921 nodes, a path-metric plane of 263,169 nodes and a line of
# 100,000): the level loop costs 0.7-0.8 us per level, the search, positions
# and fill 4-13 ns per arc, and Dijkstra 11-22 ns per arc.  At arcs / 512
# levels the loop adds at most 1.6 ns per arc, under a sixth of what
# Dijkstra spends.  A deeper graph, such as a long line with one node per
# level, is left to Dijkstra after a breadth-first search and a walk of at
# most the budget's length up its tree: on the line, 2.8 ms a row against
# Dijkstra's 2.2 ms.
_ARCS_PER_LEVEL = 512


# ``not lo < x < hi`` rejects NaN, which fails every comparison
def _check_exponent(p, name="exponent p"):
    if not 1 < p < np.inf:
        raise ValueError(f"{name} must be finite and exceed 1")


def _check_dimension(q, name):
    if not 1 <= q < np.inf:
        raise ValueError(f"{name} must be finite and at least 1")


def _check_radii(r, R):
    if not 0 < r < R < np.inf:
        raise ValueError("radii must be finite with 0 < r < R")


def _check_positive(value, name):  # a number or an array of them
    if not np.all((0 < value) & (value < np.inf)):
        raise ValueError(f"{name} must be finite and positive")


def _check_finite(values, name):  # an array, or anything np.isfinite takes
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")


def _check_node_ids(ids, n):  # an id, or an array of them
    lo = hi = ids  # a single id takes no array, so a cached row costs nothing
    if isinstance(ids, np.ndarray):
        if ids.size == 0:
            return
        lo, hi = ids.min(), ids.max()
    if not 0 <= lo <= hi < n:
        raise ValueError(f"node ids out of range [0, {n})")


class DiscreteSpace:
    """Finite metric measure space (X, d, mu) seen at grid scale h, with a
    neighbor graph.

    Parameters
    ----------
    coords : (n, k) array
        Finite node coordinates.
    mass : (n,) array
        Nonnegative node masses (cell measure); total mass must be positive.
    edges : (m, 2) int array
        Neighbor pairs (i, j), i != j.
    edge_lengths : (m,) array
        Positive finite metric length of each edge; must equal the node
        distance of the pair to within 1e-12 relative (checked for
        closed-form metrics).  A path metric takes the shortest copy of a
        repeated edge.
    metric : {"euclidean", "koranyi", "path"}
        Closed-form metrics are evaluated from coordinates; "path" uses
        shortest paths over the weighted edge graph.
    resolution : float
        Grid step h, positive and finite; it sets the library's radius
        floors and plate sizes.
    """

    def __init__(self, coords, mass, edges, edge_lengths, metric, resolution):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        mass = np.asarray(mass, dtype=float)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edge_lengths = np.asarray(edge_lengths, dtype=float)
        n = coords.shape[0]
        _check_finite(coords, "node coordinates")
        if mass.shape != (n,):
            raise ValueError("mass must have one entry per node")
        if not np.all(np.isfinite(mass)) or np.any(mass < 0):
            raise ValueError("node masses must be finite and nonnegative")
        _check_positive(mass.sum(), "total mass")
        _check_node_ids(edges, n)
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed")
        if edge_lengths.shape != (edges.shape[0],):
            raise ValueError("edge_lengths must have one entry per edge")
        _check_positive(edge_lengths, "edge lengths")
        if metric not in ("euclidean", "koranyi", "path"):
            raise ValueError(f"unknown metric kind {metric!r}")
        resolution = float(resolution)
        _check_positive(resolution, "resolution")
        self.coords = coords
        self.mass = mass
        self.edges = edges
        self.edge_lengths = edge_lengths
        self.metric = metric
        self.resolution = resolution
        # the closed form of the metric; a path space measures coordinate
        # points against its nodes in the Euclidean distance
        self._formula = koranyi_distance if metric == "koranyi" else _euclidean_distance
        self._row = None  # (center, distance row) of the latest query
        self._adjacency = None
        self._hop = None  # the one length of the edge graph, set by _graph
        self._edge_mass = None
        self._labels = None
        self._grid_shape = None  # index shape, set by build_euclidean_grid
        if metric != "path":
            for start in range(0, edges.shape[0], _EVAL_BLOCK):
                pairs = edges[start:start + _EVAL_BLOCK]
                d = self._formula(np.take(coords, pairs[:, 0], axis=0),
                                  np.take(coords, pairs[:, 1], axis=0))
                err = np.abs(d - edge_lengths[start:start + _EVAL_BLOCK])
                err /= np.maximum(1.0, np.abs(d))
                if not np.all(err <= 1e-12):  # NaN-safe
                    raise ValueError("edge lengths disagree with the metric")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def edge_masses(self) -> np.ndarray:
        """Mass attached to each edge: mean of the endpoint node masses."""
        if self._edge_mass is None:
            m = self.mass
            self._edge_mass = 0.5 * (m[self.edges[:, 0]] + m[self.edges[:, 1]])
        return self._edge_mass

    def _edge_quotients(self, u):
        """Edge quotients ``|u_i - u_j| / length`` of finite node values u,
        and per node the largest incident one, as ``(g, lip)``.

        A grid of :func:`build_euclidean_grid` works by axis slabs of
        ``U = u.reshape(shape)``: its edges along axis a are one block of
        ``g`` of shape ``(count_a - 1, other axes...)``, from index k to
        k + 1.  With axis a moved to the front of ``U``, the block is
        ``|U[:-1] - U[1:]| / len``, written in place in edge order, and
        ``lip[:-1]`` and ``lip[1:]`` take its maximum in place.  Every other
        space gathers the ends of its edges and scatters by
        ``np.maximum.at``.  A maximum of non-negative quotients is exact in
        any order, so both paths give the same bits.
        """
        if self._grid_shape is None:
            i, j = self.edges[:, 0], self.edges[:, 1]
            g = np.abs(u[i] - u[j]) / self.edge_lengths
            lip = np.zeros(self.n_nodes)
            np.maximum.at(lip, i, g)
            np.maximum.at(lip, j, g)
            return g, lip
        U = u.reshape(self._grid_shape)
        lip = np.zeros(self._grid_shape)
        g = np.empty(self.n_edges)
        at = 0
        for ax in range(U.ndim):
            Ua, La = np.moveaxis(U, ax, 0), np.moveaxis(lip, ax, 0)
            block = (Ua.shape[0] - 1,) + Ua.shape[1:]
            size = block[0] * (u.size // Ua.shape[0])
            q = g[at : at + size].reshape(block)
            np.subtract(Ua[:-1], Ua[1:], out=q)
            np.abs(q, out=q)
            q /= self.edge_lengths[at : at + size].reshape(block)
            np.maximum(La[:-1], q, out=La[:-1])
            np.maximum(La[1:], q, out=La[1:])
            at += size
        return g, lip.ravel()

    def _neighbour_max(self, u):
        """Per node the largest value of u over its edge neighbours, or
        -inf at a node without edges.

        A grid of :func:`build_euclidean_grid` takes it by axis slabs, as
        :meth:`_edge_quotients` does: along each axis ``M[:-1]`` takes the
        maximum with ``U[1:]`` and ``M[1:]`` with ``U[:-1]``, in place.
        Every other space scatters the gathered neighbour values by
        ``np.maximum.at``.  A maximum is exact in any order, so both paths
        give the same values; only a tie of +0.0 and -0.0 may keep either.
        """
        if self._grid_shape is None:
            i, j = self.edges[:, 0], self.edges[:, 1]
            top = np.full(self.n_nodes, -np.inf)
            np.maximum.at(top, i, u[j])
            np.maximum.at(top, j, u[i])
            return top
        U = u.reshape(self._grid_shape)
        top = np.full(self._grid_shape, -np.inf)
        for ax in range(U.ndim):
            Ua, Ma = np.moveaxis(U, ax, 0), np.moveaxis(top, ax, 0)
            np.maximum(Ma[:-1], Ua[1:], out=Ma[:-1])
            np.maximum(Ma[1:], Ua[:-1], out=Ma[1:])
        return top.ravel()

    def component_labels(self) -> np.ndarray:
        """Component label of each node in the graph of the edges with
        positive edge mass; an edge between zero-mass nodes joins nothing."""
        if self._labels is None:
            self._labels = _edge_components(self.n_nodes, self.edges, self.edge_masses() > 0)
        return self._labels

    # ------------------------------------------------------------------
    # metric
    # ------------------------------------------------------------------

    def distances_from(self, center: int) -> np.ndarray:
        """Distances from one node to every node, as a read-only row.

        A closed-form space measures the row from the centre's coordinates
        (:meth:`_point_row`), a path space searches its edge graph
        (:meth:`_path_row`).

        The space keeps the row of its latest query, so querying the same
        centre again costs nothing; a query for another centre drops it
        first.  The row is shared with every other caller: writing into it
        raises ``ValueError``; copy it to modify it.
        """
        _check_node_ids(center, self.n_nodes)
        center = int(center)
        if self._row is not None and self._row[0] == center:
            return self._row[1]
        self._row = None  # free the old row before the new one is built
        if self.metric == "path":
            row = self._path_row(center)
        else:
            row = self._point_row(self.coords[center])
        row.flags.writeable = False
        self._row = (center, row)
        return row

    def distance(self, i: int, j: int) -> float:
        _check_node_ids(i, self.n_nodes)
        _check_node_ids(j, self.n_nodes)
        i, j = int(i), int(j)
        if self.metric == "path":
            return float(self.distances_from(i)[j])
        return float(self._formula(self.coords[i], self.coords[j]))

    def _graph(self):
        """The edge graph as a symmetric CSR matrix of lengths: each edge in
        both orientations, and a repeated edge, in either orientation, at its
        shortest copy (COO to CSR would add the copies).  Being symmetric,
        it is searched as a directed graph, which spares Dijkstra the
        transpose that an undirected search of one orientation walks.  When
        every kept length is one value, it is recorded as ``_hop``."""
        if self._adjacency is None:
            n = self.n_nodes
            lo = np.minimum(self.edges[:, 0], self.edges[:, 1])
            hi = np.maximum(self.edges[:, 0], self.edges[:, 1])
            key = lo * n + hi
            order = np.lexsort((self.edge_lengths, key))  # by pair, then length
            first = np.ones(order.size, dtype=bool)
            first[1:] = key[order[1:]] != key[order[:-1]]
            keep = order[first]  # sorted by pair: rows lo, then columns hi
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(lo[keep], minlength=n), out=indptr[1:])
            upper = csr_matrix((self.edge_lengths[keep], hi[keep], indptr), shape=(n, n))
            self._adjacency = upper + upper.T  # no entry in both: a copy each
            kept = upper.data
            if kept.size and kept.min() == kept.max():
                self._hop = kept[0]
        return self._adjacency

    def _path_row(self, center):
        """Shortest-path distances from a node over the edge graph:
        Dijkstra's row, taken from breadth-first levels when every arc has
        the one length ``_hop`` and the graph is shallow enough."""
        graph = self._graph()
        row = None if self._hop is None else self._level_row(graph, center)
        return dijkstra(graph, directed=True, indices=center) if row is None else row

    def _level_row(self, graph, center):
        """Dijkstra's row on a graph whose arcs all have length ``_hop``,
        from breadth-first levels, or None when the graph is more than
        ``arcs / _ARCS_PER_LEVEL`` levels deep from the centre.

        Dijkstra labels a node k hops from the centre with the float sum
        h + h + ... + h of k terms taken left to right, the same on every
        k-hop path, and that sum never decreases with k; so the row is
        ``S[level]`` with ``S = [0, cumsum(h, h, ...)]``.  In breadth-first
        order the levels are consecutive runs, and the order positions of
        the parents never decrease, so the end of each level is one
        ``searchsorted`` from the end of the one before.  The deepest node
        comes last, so walking its tree path up counts the levels before
        any is searched.  Unreached nodes keep ``inf``.
        """
        order, pred = breadth_first_order(graph, center, directed=True,
                                          return_predecessors=True)
        budget = graph.nnz // _ARCS_PER_LEVEL
        depth, node = 0, int(order[-1])
        while node != center:
            if depth == budget:
                return None
            node, depth = pred.item(node), depth + 1
        at = np.empty(self.n_nodes, dtype=order.dtype)  # position in the order
        at[order] = np.arange(order.size, dtype=order.dtype)
        parent = at[pred[order[1:]]]  # never decreasing
        del at, pred
        # of the levels, in the order; of the parents' dtype, so that no
        # search casts them
        ends = np.empty(depth + 1, dtype=order.dtype)
        ends[0] = 1
        for k in range(depth):
            ends[k + 1] = 1 + parent.searchsorted(ends[k])
        del parent
        steps = np.zeros(depth + 1)
        np.cumsum(np.full(depth, self._hop), out=steps[1:])
        row = np.full(self.n_nodes, np.inf)
        row[order] = np.repeat(steps, np.diff(ends, prepend=0))
        return row

    def ball(self, center: int, r: float) -> np.ndarray:
        """Open metric ball: ids of nodes with d(center, node) < r."""
        if not r >= 0:  # NaN-safe; r = inf is the whole reachable space
            raise ValueError("radius must be nonnegative")
        return np.nonzero(self.distances_from(center) < r)[0]

    def closed_ball(self, center: int, r: float) -> np.ndarray:
        """Closed metric ball: ids of nodes with d(center, node) <= r."""
        if not r >= 0:
            raise ValueError("radius must be nonnegative")
        return np.nonzero(self.distances_from(center) <= r)[0]

    def ball_mass(self, center: int, r: float) -> float:
        return float(self.mass[self.ball(center, r)].sum())

    def ball_masses(self, center: int, radii) -> np.ndarray:
        """Open-ball masses mu(B(center, r)) for every radius in ``radii``.

        Radii may come in any order and repeat; the result has their shape.
        A node at distance exactly r is outside B(center, r), so r = 0 gives
        0.  One pass over the distance row, no sort: each node is binned by
        the number of radii at or below its distance, and the cumulative
        sum of the binned masses gives the ball masses.
        """
        radii = np.asarray(radii, dtype=float)
        if not np.all(radii >= 0):
            raise ValueError("radii must be nonnegative")
        levels, which = np.unique(radii, return_inverse=True)
        width = levels.size + 1
        row = self.distances_from(center)
        # Bin per block of nodes and add the block sums pairwise.  One running
        # sum over all nodes drifted by 8e-12 relative on 4e5 equal masses,
        # where mass[d < r].sum() stays near 1e-15.  The block grows with
        # the radius count, so the table holds at most about n entries.  The
        # nodes are binned a chunk of whole blocks at a time; each table row
        # sums one block in node order, so chunking changes no bit of it.
        block = max(_SUM_BLOCK, width)
        n_blocks = -(-self.n_nodes // block)
        chunk = block * max(1, _EVAL_BLOCK // block)
        offsets = np.repeat(width * np.arange(chunk // block), block)
        table = np.empty((n_blocks, width))
        for start in range(0, self.n_nodes, chunk):
            stop = min(start + chunk, self.n_nodes)
            bins = np.searchsorted(levels, row[start:stop], side="right")
            bins += offsets[: stop - start]
            first, blocks = start // block, -(-(stop - start) // block)
            table[first : first + blocks] = np.bincount(
                bins, weights=self.mass[start:stop], minlength=blocks * width
            ).reshape(blocks, width)
        per_level = np.ascontiguousarray(table.T).sum(axis=1)
        return np.cumsum(per_level)[which].reshape(radii.shape)

    def nearest_node(self, point) -> int:
        """Id of the node nearest to a coordinate point; of equally near
        nodes, the lowest id.

        Uses the space's own metric for gauge spaces and the Euclidean
        coordinate distance otherwise, measured by :meth:`_point_row`, which
        also builds the rows of :meth:`distances_from`.  A point that is a
        node of a closed-form space gets that node's distance row on the
        way, so the space keeps it as its latest row.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.coords.shape[1],):
            raise ValueError("point dimension mismatch")
        row = self._point_row(point)
        node = int(np.argmin(row))
        # at equal coordinates this is distances_from(node)'s row, bit for bit
        if self.metric != "path" and np.array_equal(point, self.coords[node]):
            row.flags.writeable = False
            self._row = (node, row)
        return node

    def _point_row(self, point):
        """Distances from a coordinate point to every node in the closed form
        of the metric (Euclidean for a path space).

        On a grid of :func:`build_euclidean_grid` the squared offsets are
        taken once per axis, then broadcast and added in axis order and
        rooted, which is the order of operations of the formula applied
        node by node, so every value is the same; the sum is the row, with
        partial sums at most one axis shorter.
        """
        if self._grid_shape is None:
            return self._formula(point, self.coords)
        shape = self._grid_shape
        grid = self.coords.reshape(shape + (len(shape),))
        total = 0.0
        for ax, count in enumerate(shape):
            along = (0,) * ax + (slice(None),) + (0,) * (len(shape) - 1 - ax)
            offset = grid[along + (ax,)] - point[ax]
            offset *= offset
            total = total + offset.reshape((count,) + (1,) * (len(shape) - 1 - ax))
        return np.sqrt(total, out=total).ravel()


# ----------------------------------------------------------------------
# closed-form metrics
# ----------------------------------------------------------------------


def _edge_components(n, edges, keep):
    """Component label of each of n nodes in the graph of the edges that
    ``keep`` marks.  Pass ``keep`` as a temporary: it is dropped once read."""
    # int32 endpoints of the kept edges, filled block by block, so no int64
    # copy of the kept edges is made
    i = np.empty(np.count_nonzero(keep), dtype=np.int32)
    j = np.empty_like(i)
    filled = 0
    for start in range(0, keep.size, _EVAL_BLOCK):
        pairs = np.compress(keep[start:start + _EVAL_BLOCK],
                            edges[start:start + _EVAL_BLOCK], axis=0)
        stop = filled + pairs.shape[0]
        i[filled:stop], j[filled:stop] = pairs.T
        filled = stop
    del keep
    graph = coo_matrix((np.ones(i.size, dtype=np.int8), (i, j)), shape=(n, n)).tocsr()
    del i, j
    # connected_components works on a float64 CSR and its transpose;
    # converting here, once the endpoints are gone, keeps a third copy of
    # the graph from coexisting with those two
    graph = graph.astype(np.float64)
    return connected_components(graph, directed=False)[1]


def _by_blocks(formula, a, b):
    """``formula`` over rows of points ``a`` and ``b`` that broadcast
    together, in blocks of rows: a point against the whole space needs a
    few MB of temporaries, and each value is the one-pass value bit for
    bit.  Two single points give a scalar."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    a = np.broadcast_to(a, shape).reshape(-1, shape[-1])
    b = np.broadcast_to(b, shape).reshape(-1, shape[-1])
    out = np.empty(a.shape[0])
    for start in range(0, out.size, _EVAL_BLOCK):
        stop = start + _EVAL_BLOCK
        out[start:stop] = formula(a[start:stop], b[start:stop])
    return out.reshape(shape[:-1])[()]


def _gauge(p, q):
    z2 = (q[:, 0] - p[:, 0]) ** 2 + (q[:, 1] - p[:, 1]) ** 2
    dt = q[:, 2] - p[:, 2] + 0.5 * (p[:, 1] * q[:, 0] - p[:, 0] * q[:, 1])
    return (z2 * z2 + 16.0 * dt * dt) ** 0.25


def _euclidean(p, q):
    diff = q - p
    np.multiply(diff, diff, out=diff)
    return np.sqrt(diff.sum(axis=1))


def koranyi_distance(a, b) -> np.ndarray:
    """Left-invariant gauge distance ||a^{-1} b|| on the Heisenberg group.

    Group law: (z, t) (z', t') = (z + z', t + t' - Im(z conj(z'))/2) with
    z = x + iy, so a^{-1} b has planar part z' - z and vertical part
    t' - t + (y x' - x y')/2.

    ``a`` and ``b`` are points or rows of points that broadcast together.
    """
    return _by_blocks(_gauge, a, b)


def _euclidean_distance(a, b) -> np.ndarray:
    """Euclidean distance |b - a| of points or rows that broadcast together."""
    return _by_blocks(_euclidean, a, b)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _check_extent(extent, step, name="half_extent"):
    if not step <= extent < np.inf:
        raise ValueError(f"{name} must be finite and at least one step")


def _axis_cell_widths(count: int, step: float) -> np.ndarray:
    """Cell widths along one axis; extreme cells are cut in half so the
    cells tile exactly the declared extent."""
    w = np.full(count, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _product_coords(axes):
    """Coordinates of the product grid of 1-d axes, one row per node in C
    order of the index tuples, written by broadcasting into the result."""
    grid = np.empty(tuple(a.size for a in axes) + (len(axes),))
    for d, a in enumerate(axes):
        grid[..., d] = a.reshape((-1,) + (1,) * (len(axes) - 1 - d))
    return grid.reshape(-1, len(axes))


def _grid_edges(index_shape):
    """Edges between axis neighbors of a full rectangular index grid.

    The edges along axis 0 come first, then those along axis 1, and so on;
    along one axis they run in node order of their first end.  Each axis
    fills its part of the array in place, from the ids of one slab across
    it, so no index grid of the full size is made.
    """
    shape = tuple(int(c) for c in index_shape)
    total = int(np.prod(shape))
    strides = [int(np.prod(shape[d + 1 :])) for d in range(len(shape))]
    edges = np.empty((sum(total // c * (c - 1) for c in shape), 2), dtype=np.int64)
    at = 0
    for ax, count in enumerate(shape):
        slab = np.zeros(1, dtype=np.int64)  # ids of the nodes at index 0 along ax
        for d, c in enumerate(shape):
            if d != ax:
                slab = (slab[:, None] + strides[d] * np.arange(c)).ravel()
        size = (count - 1) * slab.size
        pairs = edges[at : at + size].reshape(count - 1, slab.size, 2)
        step = strides[ax] * np.arange(count - 1)[:, None]
        np.add(step, slab, out=pairs[..., 0])
        np.add(step + strides[ax], slab, out=pairs[..., 1])
        at += size
    return edges


def _masked_grid_edges(index_shape, inside):
    """The edges of :func:`_grid_edges` with both ends inside the node mask,
    in the same order, renumbered to the order of the kept nodes."""
    edges = _grid_edges(index_shape)
    edges = np.compress(inside[edges[:, 0]] & inside[edges[:, 1]], edges, axis=0)
    new_id = np.cumsum(inside, dtype=np.int64) - 1  # of the kept nodes
    return new_id[edges]


def build_euclidean_grid(n, half_extent, h, alpha=0.0):
    """Uniform grid on [-E, E]^n with node mass |x|^alpha * cell volume.

    Parameters
    ----------
    n : int
        Dimension, 1 <= n <= 4.
    half_extent : float
        E above; nodes sit at integer multiples of h with |x_i| <= E.
    h : float
        Grid step.
    alpha : float
        Radial weight exponent; must satisfy alpha > -n so the weight is
        locally integrable.  The origin cell mass averages the weight over
        the midpoints of its 2^n quadrants instead of evaluating |0|^alpha.

    Returns
    -------
    DiscreteSpace
        Euclidean metric, axis-neighbor edges of length h, boundary cells
        truncated to the declared extent.  Nodes are in C order of their
        index tuples; the edges along axis 0 come first, then axis 1, and
        so on, each axis in the order of :func:`_grid_edges`.  This order is
        a contract: the space records its index shape, and its edge
        quotients (:meth:`DiscreteSpace._edge_quotients`) are taken by axis
        slabs that rely on it.  Every array is written in place at its
        final size, so the build peaks near the bytes of the space itself
        (1.04 times them on a 3-d grid of 1.2M nodes; 1.26 on the weighted
        plane of 231k nodes, where the weight temporaries of one block
        show).
    """
    n = int(n)
    if n not in (1, 2, 3, 4):
        raise ValueError("dimension n must be in {1, 2, 3, 4}")
    _check_positive(h, "grid step h")
    _check_extent(half_extent, h)
    if not -n < alpha < np.inf:
        raise ValueError(f"alpha must be finite and exceed -n = {-n} for an integrable weight")
    m = int(round(half_extent / h))
    axis = h * np.arange(-m, m + 1)
    count = axis.size
    coords = _product_coords([axis] * n)
    # the cell volumes, weighted in place below
    mass = reduce(np.multiply.outer, [_axis_cell_widths(count, h)] * n).ravel()
    if alpha != 0.0:
        # quadrant-midpoint average for the origin cell: all 2^n midpoints
        # (+-h/4, ..., +-h/4) share the radius sqrt(n) h / 4
        origin_weight = (np.sqrt(n) * h / 4.0) ** alpha
        for start in range(0, mass.size, _EVAL_BLOCK):
            c = coords[start:start + _EVAL_BLOCK]
            radius = np.sqrt((c * c).sum(axis=1))
            weight = np.zeros_like(radius)
            nz = radius > 0
            weight[nz] = radius[nz] ** alpha
            weight[~nz] = origin_weight
            mass[start:start + _EVAL_BLOCK] *= weight

    edges = _grid_edges((count,) * n)
    lengths = np.full(edges.shape[0], h)
    space = DiscreteSpace(coords, mass, edges, lengths, "euclidean", h)
    space._grid_shape = (count,) * n
    return space


def _heisenberg_edges(m, mk, h, t_step, horizontal):
    """Edges and lengths of :func:`build_heisenberg_grid`'s lattice.

    Node (i, j, k) has id (i + m) * nxy * nt + (j + m) * nt + (k + mk).  The
    x-steps come first, then the y-steps (both only when ``horizontal``),
    then the vertical steps, each kind in node order of its first end.  They
    are written one slab of fixed i at a time into arrays of their final
    size, from the ids (j, k) of one slab.
    """
    nxy, nt = 2 * m + 1, 2 * mk + 1
    plane = nxy * nt
    j, k = np.meshgrid(np.arange(-m, m + 1), np.arange(-mk, mk + 1), indexing="ij")
    local = np.arange(plane).reshape(nxy, nt)
    x_ok = np.abs(k - j) <= mk
    # as many y-steps as x-steps: |k + i| <= mk counts over (i, k) what
    # |k - j| <= mk counts over (j, k)
    n_planar = (nxy - 1) * int(np.count_nonzero(x_ok)) if horizontal else 0
    edges = np.empty((2 * n_planar + nxy * nxy * (nt - 1), 2), dtype=np.int64)
    lengths = np.full(edges.shape[0], (16.0 * t_step * t_step) ** 0.25)
    lengths[: 2 * n_planar] = h
    at = 0

    def put(first, src, shift):
        nonlocal at
        edges[at : at + src.size, 0] = first + src
        edges[at : at + src.size, 1] = first + src + shift
        at += src.size

    if horizontal:
        src, shift = local[x_ok], plane - j[x_ok]  # (i, j, k) -> (i + 1, j, k - j)
        for i in range(-m, m):
            put((i + m) * plane, src, shift)
        for i in range(-m, m + 1):  # (i, j, k) -> (i, j + 1, k + i)
            put((i + m) * plane, local[(j < m) & (np.abs(k + i) <= mk)], nt + i)
    src = local[k < mk]  # (i, j, k) -> (i, j, k + 1)
    for i in range(-m, m + 1):
        put((i + m) * plane, src, 1)
    return edges, lengths


def build_heisenberg_grid(half_extent, h, t_half_extent=None, t_step=None,
                          with_edges=True):
    """Lattice discretization of the first Heisenberg group.

    Nodes sit at (i h, j h, k s) for a vertical step s (default h^2 / 2) on
    [-E, E]^2 x [-T, T] with T defaulting to E^2.  With the default step the
    unit group steps land on lattice nodes, so the edge set consists of

    * horizontal x-steps  (i, j, k) -> (i+1, j, k-j)   of gauge length h,
    * horizontal y-steps  (i, j, k) -> (i, j+1, k+i)   of gauge length h,
    * vertical steps      (i, j, k) -> (i, j, k+1)     of gauge length
      (16 s^2)^(1/4).

    Node mass is the cell volume h * h * s (the Haar measure), truncated at
    the boundary; the metric is the Koranyi gauge distance, under which
    ball volumes scale like r^4.  Nodes are in C order of (i, j, k); the
    x-steps come first, then the y-steps, then the vertical steps, each in
    node order.  Coordinates and masses are written by broadcasting and the
    edges one slab of fixed i at a time, into arrays of their final size,
    so the build peaks near the bytes of the space itself (1.04 times them,
    with or without edges).

    Parameters
    ----------
    half_extent : float
        Planar extent E; must exceed h.
    h : float
        Planar grid step.
    t_half_extent : float, optional
        Vertical extent; default E^2.  Gauge balls of radius R only need
        T >= R^2 / 4, so trimming this cuts node count for solver runs.
    t_step : float, optional
        Vertical step; default h^2 / 2 (required for horizontal edges to
        close up).  A coarser value gives a volume-probe grid; horizontal
        edges are only created when the default step is used.
    with_edges : bool
        Set False for measure-only grids (dimension estimation) to skip
        edge construction.
    """
    _check_positive(h, "grid step h")
    if not h < half_extent < np.inf:
        raise ValueError("half_extent must be finite and exceed h")
    default_step = 0.5 * h * h
    if t_step is None:
        t_step = default_step
    _check_positive(t_step, "t_step")
    if t_half_extent is None:
        t_half_extent = half_extent * half_extent
    _check_extent(t_half_extent, t_step, "t_half_extent")

    m = int(round(half_extent / h))
    mk = int(round(t_half_extent / t_step))
    nxy, nt = 2 * m + 1, 2 * mk + 1
    axis = h * np.arange(-m, m + 1)
    coords = _product_coords([axis, axis, t_step * np.arange(-mk, mk + 1)])
    wx = _axis_cell_widths(nxy, h)
    cell = reduce(np.multiply.outer, [wx, wx, _axis_cell_widths(nt, t_step)]).ravel()

    edges = np.zeros((0, 2), dtype=np.int64)
    lengths = np.zeros(0)
    if with_edges:
        exact = abs(t_step - default_step) <= 1e-15 * max(1.0, default_step)
        edges, lengths = _heisenberg_edges(m, mk, h, t_step, exact)

    return DiscreteSpace(coords, cell, edges, lengths, "koranyi", h)


def build_double_cone(n, half_extent, h):
    """Grid restricted to the double cone x_1^2 + ... + x_{n-1}^2 <= x_n^2.

    Ambient Euclidean metric, Lebesgue cell masses, axis-neighbor edges
    between nodes that both lie in the cone.  The two cone halves meet only
    at the apex, which connects them through the x_n axis.
    """
    n = int(n)
    if n < 2 or n > 4:
        raise ValueError("double cone requires 2 <= n <= 4")
    _check_positive(h, "grid step h")
    _check_extent(half_extent, h)
    m = int(round(half_extent / h))
    axis = h * np.arange(-m, m + 1)
    c = _product_coords([axis] * n)
    inside = (c[:, :-1] ** 2).sum(axis=1) <= c[:, -1] ** 2 + 1e-12 * h * h
    mass = reduce(np.multiply.outer, [_axis_cell_widths(axis.size, h)] * n).ravel()
    edges = _masked_grid_edges((axis.size,) * n, inside)
    lengths = np.full(edges.shape[0], h)
    return DiscreteSpace(c[inside], mass[inside], edges, lengths, "euclidean", h)


def build_glued_balls(n, h, segment_length):
    """Two unit-ball grids joined by a segment, with shortest-path metric.

    The balls are centered a distance 2 + segment_length apart along the
    first axis; the segment attaches at the axis boundary point of each
    ball.  Ball nodes carry n-dimensional cell mass h^n, segment nodes the
    one-dimensional cell mass given by the chain spacing (~h).  The grid
    step is snapped to 1/round(1/h) so the attachment points are nodes.

    Returns a space whose metric is the Dijkstra distance over the edge
    graph.  ``space.extras`` records the ids of the two ball centers and
    the mid-segment node.
    """
    n = int(n)
    if n < 2 or n > 4:
        raise ValueError("glued balls require 2 <= n <= 4 (n >= 3 matches the "
                         "continuum construction; n = 2 is allowed for tests)")
    if not 0 < h <= 0.5:
        raise ValueError("grid step h must be finite with 0 < h <= 0.5")
    _check_extent(segment_length, h, "segment_length")
    k = int(round(1.0 / h))
    h = 1.0 / k
    L = float(segment_length)

    axis = h * np.arange(-k, k + 1)
    cube = _product_coords([axis] * n)
    r2 = (cube * cube).sum(axis=1)
    in_ball = r2 <= 1.0 + 1e-12
    ball = cube[in_ball]
    nb = ball.shape[0]

    ball_edges = _masked_grid_edges((axis.size,) * n, in_ball)

    shift = np.zeros(n)
    shift[0] = 2.0 + L
    coords = [ball, ball + shift]
    edges = [ball_edges, ball_edges + nb]
    lengths = [np.full(ball_edges.shape[0], h)] * 2
    masses = [np.full(nb, h**n)] * 2

    m_seg = int(round(L / h))
    hs = L / m_seg
    seg_x = 1.0 + hs * np.arange(1, m_seg)
    seg = np.zeros((seg_x.size, n))
    seg[:, 0] = seg_x
    coords.append(seg)
    masses.append(np.full(seg_x.size, hs))

    def find(block, point):
        d = np.abs(block - point).sum(axis=1)
        i = int(np.argmin(d))
        if d[i] > 1e-9:
            raise RuntimeError("attachment point missing from grid")
        return i

    attach_a = find(ball, np.eye(n)[0])
    attach_b = nb + find(ball, -np.eye(n)[0])  # local frame of the shifted copy
    seg_ids = 2 * nb + np.arange(seg_x.size)
    chain = np.concatenate([[attach_a], seg_ids, [attach_b]])
    chain_edges = np.stack([chain[:-1], chain[1:]], axis=1)
    edges.append(chain_edges)
    lengths.append(np.full(chain_edges.shape[0], hs))

    space = DiscreteSpace(
        np.concatenate(coords, axis=0),
        np.concatenate(masses),
        np.concatenate(edges, axis=0),
        np.concatenate(lengths),
        "path",
        h,
    )
    center_a = find(ball, np.zeros(n))
    mid = 2 * nb + (seg_x.size // 2) if seg_x.size else attach_a
    space.extras = {
        "center_a": int(center_a),
        "center_b": int(nb + center_a),
        "attach_a": int(attach_a),
        "attach_b": int(attach_b),
        "mid_segment": int(mid),
    }
    return space


# ----------------------------------------------------------------------
# metric verification
# ----------------------------------------------------------------------


@dataclass
class MetricReport:
    samples: int
    max_symmetry_error: float
    max_triangle_violation: float
    passed: bool
    failures: list = field(default_factory=list)


def verify_metric(space, samples=200, seed=0):
    """Spot-check metric axioms on random node triples.

    Draws a pool of 24 source nodes, then random triples (a, b, c) from the
    pool, and checks identity, symmetry and the triangle inequality up to
    1e-9.  Each pool row comes from ``space.distances_from``; only its
    entries at the pool nodes and its minimum are kept, so the check holds
    one row of the space at a time.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    tol = 1e-9
    rng = np.random.default_rng(seed)
    pool = rng.choice(space.n_nodes, size=min(24, space.n_nodes), replace=False)
    at = {int(i): k for k, i in enumerate(pool)}
    d = np.empty((pool.size, pool.size))  # d[k, l] = d(pool[k], pool[l])
    failures = []
    for k, i in enumerate(pool):
        row = space.distances_from(int(i))
        d[k] = row[pool]
        if abs(d[k, k]) > tol:
            failures.append(("identity", int(i), float(d[k, k])))
        if row.min() < -tol:
            failures.append(("negative", int(i), float(row.min())))

    max_sym = 0.0
    max_tri = 0.0
    for _ in range(samples):
        a, b, c = (int(x) for x in rng.choice(pool, size=3))
        ka, kb, kc = at[a], at[b], at[c]
        max_sym = max(max_sym, abs(d[ka, kb] - d[kb, ka]))
        gap = d[ka, kc] - (d[ka, kb] + d[kb, kc])
        max_tri = max(max_tri, gap)
        if gap > tol:
            failures.append(("triangle", (a, b, c), float(gap)))
    passed = max_sym <= tol and max_tri <= tol and not failures
    return MetricReport(samples, float(max_sym), float(max_tri), passed, failures)


# ----------------------------------------------------------------------
# flat-file export / import
# ----------------------------------------------------------------------


def save_space(space, path):
    """Write a space to a whitespace-separated text file.

    Line 1: node count, edge count and resolution.  Then one line per node
    (``id x1 ... xk mass``) and one line per edge (``i j length``), with 17
    significant digits so values round-trip exactly.
    """
    nodes = np.column_stack((np.arange(space.n_nodes), space.coords, space.mass))
    edges = np.column_stack((space.edges, space.edge_lengths))
    with open(path, "w") as f:
        f.write(f"{space.n_nodes} {space.n_edges} {_FMT % space.resolution}\n")
        np.savetxt(f, nodes, fmt=["%d"] + [_FMT] * (nodes.shape[1] - 1))
        np.savetxt(f, edges, fmt=["%d", "%d", _FMT])


def load_space(path, metric="path"):
    """Read a space written by :func:`save_space`.

    The file stores no metric kind; by default the loaded space uses the
    shortest-path metric of its edge graph, which is the only metric
    recoverable from the file.  Pass ``metric="euclidean"`` or
    ``"koranyi"`` when the coordinates are known to carry that structure.
    The header's third field is the resolution, a positive finite number.
    A header of two fields (a file written before the resolution was
    stored) gives the space its shortest edge length as resolution, which
    is the step h of every grid builder but not always of the glued balls
    (1.0 for a file without edges).
    """
    with open(path) as f:
        tokens = f.read().split("\n")
    head = tokens[0].split()
    if len(head) not in (2, 3):
        raise ValueError("malformed header line")
    n, m = int(head[0]), int(head[1])
    if len(tokens) < 1 + n + m:
        raise ValueError("file shorter than header declares")
    coords, mass = None, np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for number, line in enumerate(tokens[1 : 1 + n], start=2):
        parts = line.split()
        if coords is None and len(parts) >= 3:
            coords = np.zeros((n, len(parts) - 2))
        if coords is None or len(parts) != coords.shape[1] + 2:
            raise ValueError(f"line {number}: a node line needs an id, "
                             "the coordinates and a mass")
        i = int(parts[0])
        if not 0 <= i < n:
            raise ValueError(f"line {number}: node id {i} out of range")
        if seen[i]:
            raise ValueError(f"line {number}: node id {i} repeated")
        seen[i] = True
        coords[i] = [float(v) for v in parts[1:-1]]
        mass[i] = float(parts[-1])
    edges = np.zeros((m, 2), dtype=np.int64)
    lengths = np.zeros(m)
    for e, line in enumerate(tokens[1 + n : 1 + n + m]):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {2 + n + e}: an edge line needs two node "
                             "ids and a length")
        edges[e] = (int(parts[0]), int(parts[1]))
        lengths[e] = float(parts[2])
    if len(head) == 3:
        resolution = float(head[2])
    else:
        resolution = float(lengths.min()) if m else 1.0
    return DiscreteSpace(coords, mass, edges, lengths, metric, resolution)
