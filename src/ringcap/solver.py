"""Variational condenser capacities by convex minimization.

The capacity of a condenser (E, Omega) on a discrete space is

    min  sum_e c_e |u_i - u_j|^p     over  u = 1 on E,  u = 0 off Omega,

with edge conductance ``c_e = edge_mass / length^p``.  The mean-of-
endpoint-masses edge mass makes the edge energy consistent with the
continuum Dirichlet p-energy on grids, so p = 2 capacities converge to
their classical values.

Minimization is a guarded Newton-IRLS.  Each step solves the weighted
graph-Laplacian system with edge weights ``c_e |du|^(p-2)`` for a
correction of the current potential, by preconditioned conjugate gradients
(CG).  The exact Newton step is that correction scaled by 1 / (p - 1), so
the step length is chosen by an exact line search of the convex energy
along it, over (0, max(1, 1 / (p - 1))]; every accepted step lowers the
energy, on both sides of p = 2.  At p = 2 the energy is quadratic and the full step is
taken, after which the solve ends as soon as the gradient test passes: one
linear solve is exact there.  Inner solves are inexact Newton solves: CG
stops at a fixed fraction of the current residual, with a floor below the
outer gradient target.  A step that leaves the potential unchanged ends the
solve as stagnated.  The weight shapes |du|^(p-2) are clipped to at most
1 / ``WEIGHT_FLOOR`` and to at least ``WEIGHT_FLOOR`` times the largest of
them, so a floor never binds on the slopes that carry the energy, however
large p is.  Components of the free region that the constraints cannot
reach are zeroed and reported, never solved; the components come from the
space, which labels them once (``DiscreteSpace.component_labels``).

The system is set up once per condenser as one sparse operator: the signed
incidence matrix B of the system edges (the live edges with a free end) on
the free nodes, with +1 at a free i end and -1 at a free j end.  The slopes
of the unknown vector x are B x, the gradient is B^T of the edge flows, and
the weighted Laplacian is B^T W B, whose right-hand side is the pull
-B^T W du_fixed of the fixed ends.  Repeated edges add up in the products.
B is built at its final size from the free ends of the system edges and
stored in one orientation only, as B^T in CSR; B is its transpose, a CSC
view of the same arrays.  Each IRLS iteration forms B^T W B as a sparse
product, which reads B by rows, so scipy converts the view for the length
of that product.  The whole-space masks that pick the free nodes are
dropped once the free nodes and the diagnostics counts exist.

The preconditioner is chosen from the system, not set by the caller.  A
system on a Euclidean space of at most three coordinates with more than
``COARSEST`` free nodes gets a smoothed-aggregation V-cycle (Vanek,
Mandel and Brezina 1996): the free nodes are grouped into coordinate boxes
three shortest edges a side, the piecewise-constant prolongation of the
boxes is smoothed by one damped-Jacobi step, and Galerkin products
P^T A P, formed restriction first as (P^T A) P so that no fine-size A P is
held, are coarsened again with boxes three times wider, down to a direct
solve of at most ``COARSEST`` unknowns.  One damped-Jacobi step before and
one after each coarse correction keep it symmetric.  CG iterations then no
longer grow like 1 / h, at any p.  The boxes depend on the free nodes'
coordinates alone and are drawn once per condenser, before the IRLS loop;
every iteration, the first included, passes its matrix down them, and the
first matrix smooths the P and P^T kept for the condenser.  Every other
system keeps the diagonal (Jacobi) preconditioner: the gauge lattice and
path metrics, whose nodes are not boxed by coordinates; grids of four or
more coordinates, whose 81-cell boxes make the Galerkin levels so dense
that a V-cycle costs more than the CG iterations it saves; and small
systems.

A solve may start from a guess ``x0`` (a nearly optimal potential, say),
clipped to [0, 1] on the free nodes.  Its convergence is still judged
against the gradient at the cold start, where the potential is the
indicator of the inner plate, so a guess moves neither the target nor the
result beyond the tolerance.  ``relative_capacity`` starts its solves at
p < 2 at the radial extremal of the ring, and ``singleton_capacity_limit``
follows its capacity as the inner ball shrinks towards a single point at
a fixed outer radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg, splu

from .bounds import estimate_ring
from .profiles import p_energy, power_profile, radialize
from .spaces import (
    _check_exponent,
    _check_finite,
    _check_node_ids,
    _check_positive,
    _check_radii,
    _check_radius_floor,
)

__all__ = [
    "Condenser",
    "ring_condenser",
    "CapacityResult",
    "solve_condenser",
    "relative_capacity",
    "SingletonLimit",
    "singleton_capacity_limit",
    "SandwichReport",
    "verify_sandwich",
    "MonotonicityReport",
    "monotonicity_suite",
]

WEIGHT_FLOOR = 1e-12  # smallest IRLS weight shape, relative to the largest
FORCING = 1e-2  # inner CG tolerance relative to the current residual, p != 2
COARSEST = 2000  # most unknowns of the multilevel hierarchy's direct solve
SMOOTHING = 2.0 / 3.0  # damped-Jacobi weight of the multilevel smoothers


@dataclass
class Condenser:
    """Inner plate and admissible domain, as node id arrays.

    The potential is clamped to 1 on ``inner`` and to 0 outside ``domain``.
    """

    inner: np.ndarray
    domain: np.ndarray

    def __post_init__(self):
        self.inner = np.asarray(self.inner, dtype=np.int64)
        self.domain = np.asarray(self.domain, dtype=np.int64)


def ring_condenser(space, center, r, R) -> Condenser:
    """Condenser of the ring: closed inner ball against the open outer ball."""
    _check_radii(r, R)
    d = space.distances_from(center)
    inner = np.nonzero(d <= r)[0]  # holds the center, as r > 0
    domain = np.nonzero(d < R)[0]
    if inner.size == domain.size:
        raise ValueError("ring contains no free nodes (r too close to R)")
    return Condenser(inner, domain)


@dataclass
class CapacityResult:
    """Minimizer and value of one condenser problem.

    ``u`` is the node potential; ``value`` is its edge-form p-energy as
    the solve evaluated it, the last entry of ``energy_trace``.
    ``residual`` is the final constrained-gradient max-norm relative to its
    value at the cold start.  Every solve's ``diagnostics`` has the same
    keys: the free nodes held at 1 (``plateau_nodes``) and at 0
    (``unreachable_nodes``) without a solve, the energy at the start and
    after each iteration (``energy_trace``), ``backtracks`` (0 since the
    exact line search), the accepted step lengths (``steps``), the CG
    iterations of the solve (``cg_iters``), why it ended (``stop_reason``:
    ``converged``, ``max_iter``, or ``stagnated`` when a step left the
    potential unchanged), the CG ``preconditioner`` (``jacobi`` or
    ``multilevel``), and ``u_min`` and ``u_max`` with the ``descent_ok``
    and ``range_ok`` checks.
    """

    value: float
    u: np.ndarray
    iterations: int
    residual: float
    converged: bool
    diagnostics: dict


def _line_search(c, a, b, p, t_max, slope0):
    """Step t in (0, t_max] minimizing phi(t) = sum_e c_e |a_e + t b_e|^p.

    phi is convex, so phi' increases: the minimizer is the root of phi', or
    t_max when phi still descends there.  Newton's method on phi' starts
    from 1 / (p - 1), the Newton step of the energy at t = 0, and runs
    inside a bracket that every evaluation shrinks; a Newton step that
    leaves the bracket is replaced by bisection.  ``slope0`` is phi'(0); a
    direction that does not descend gives t = 0.
    """
    if not slope0 < 0:
        return 0.0
    lo, hi = 0.0, t_max
    t = min(1.0 / (p - 1.0), t_max)
    for _ in range(30):
        s = a + t * b
        cwb = c * np.maximum(np.abs(s), 1e-300) ** (p - 2.0) * b
        d1 = p * float(cwb @ s)
        if d1 <= 0:
            if t == t_max:
                return t
            lo = t
        else:
            hi = t
        if abs(d1) <= 1e-3 * -slope0:
            return t
        d2 = p * (p - 1.0) * float(cwb @ b)
        t_new = t - d1 / d2 if d2 > 0 else lo
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    return lo if lo > 0 else t


class _Level:
    """One level of the V-cycle: the box ``agg`` of each unknown among
    ``n_agg`` boxes, then from ``update`` the matrix ``a``, the damped-Jacobi
    ``smoother`` omega / diag A, and the prolongation P = (I - omega D^-1 A) T
    of the boxes with its restriction P^T, stored in CSR.

    The condenser's first matrix smooths P, which is kept with P^T for the
    condenser in place of the box map; a later ``update`` takes A and its
    smoother only.
    """

    def __init__(self, agg, n_agg):
        self.agg, self.n_agg = agg, n_agg

    def update(self, a):
        self.a = a
        self.smoother = SMOOTHING * (1.0 / a.diagonal())
        if self.agg is not None:
            n = a.shape[0]
            tentative = csr_matrix((np.ones(n), self.agg, np.arange(n + 1)),
                                   shape=(n, self.n_agg))
            smooth = a @ tentative
            smooth.data *= np.repeat(self.smoother, np.diff(smooth.indptr))
            self.prolong = (tentative - smooth).tocsr()
            del tentative, smooth
            self.restrict = self.prolong.T.tocsr()
            self.agg = None


def _hierarchy(cells):
    """Smoothed-aggregation levels of the unknowns at integer ``cells`` on
    the lattice of the space's shortest edge, as box maps: each level groups
    the unknowns into boxes of three cells a side (so the box side triples
    from level to level), until at most ``COARSEST`` unknowns remain.
    """
    levels = []
    n = cells.shape[0]
    while n > COARSEST:
        cells = cells // 3
        # per column: max(axis=0) over few columns takes numpy's slow path
        dims = tuple(int(col.max()) + 1 for col in cells.T)
        boxes, agg = np.unique(np.ravel_multi_index(cells.T, dims),
                               return_inverse=True)
        if boxes.size == n:
            continue  # boxes still hold one unknown each; widen them
        cells = np.column_stack(np.unravel_index(boxes, dims))
        levels.append(_Level(agg.astype(np.int32), boxes.size))
        n = boxes.size
    return levels


def _refill(levels, lap):
    """Pass ``lap``, an IRLS iteration's matrix, down the ``levels``: each
    takes its A, and its Galerkin product (P^T A) P is the next level's A.
    Returns the LU factors of the coarsest matrix."""
    a = lap
    for level in levels:
        level.update(a)
        a = (level.restrict @ a) @ level.prolong
    return splu(a.tocsc())


def _vcycle(levels, coarsest, b):
    """One V-cycle from zero: a damped-Jacobi step before and after each
    coarse correction, so the preconditioner is symmetric."""
    if not levels:
        return coarsest.solve(b)
    level = levels[0]
    x = level.smoother * b
    x += level.prolong @ _vcycle(levels[1:], coarsest,
                                 level.restrict @ (b - level.a @ x))
    x += level.smoother * (b - level.a @ x)
    return x


def solve_condenser(space, condenser, p, tol=1e-6, max_iter=100,
                    x0=None) -> CapacityResult:
    """Minimize the discrete p-energy under condenser constraints.

    Parameters
    ----------
    space : DiscreteSpace
    condenser : Condenser
        Node ids in [0, n_nodes).  ``inner`` must be nonempty and contained
        in ``domain``; the domain must leave at least one free node.
    p : float
        Exponent, p > 1.
    tol : float
        Convergence requires a constrained-gradient max-norm below tol,
        relative to its value at the cold start (u = 1 on ``inner`` and 0
        on the other non-plateau nodes) whether or not ``x0`` is given;
        for p != 2 it also requires a relative energy decrease below tol,
        while at p = 2 the gradient test alone ends the solve after a step.
        For p != 2 an inner CG solve stops once its residual is below
        ``FORCING`` times its starting residual, or below tol / 10 times
        the smaller of the right-hand side norm and the cold-start gradient
        over p; the second bound lies under the outer target, so CG keeps
        iterating while the outer test can still fail.  At p = 2 it stops
        below tol / 10 times the right-hand side norm (or the starting
        residual, if larger).
    max_iter : int
        Cap on reweighting iterations; hitting it leaves
        ``converged=False`` on the result (never an exception).
    x0 : array of shape (n_nodes,), optional
        Initial guess on the whole space.  Only its values on the free
        nodes that the solve reaches are read, clipped to [0, 1] (which
        never raises the energy); the constraints, the plateaus and the
        unreachable nodes are set as in a cold start.  The first system is
        weighted at the guess, where a cold start uses harmonic weights.

    Notes
    -----
    On axis-aligned grids the discrete energy for p != 2 converges to an
    anisotropic continuum energy (the lattice directions are not
    exchangeable under the p-norm), so exact continuum values should only
    be expected at p = 2; for other exponents the scaling in r, R and mass
    is still faithful and is what the estimates target.
    """
    _check_exponent(p)
    _check_positive(tol, "tolerance")
    n = space.n_nodes
    inner = condenser.inner
    domain = condenser.domain
    if inner.size == 0:
        raise ValueError("inner set must be nonempty")
    for ids in (inner, domain):
        _check_node_ids(ids, n)
    in_domain = np.zeros(n, dtype=bool)
    in_domain[domain] = True
    if not in_domain[inner].all():
        raise ValueError("inner set must be contained in the domain")
    is_inner = np.zeros(n, dtype=bool)
    is_inner[inner] = True
    free_mask = in_domain & ~is_inner
    if not free_mask.any():
        raise ValueError("domain minus inner set is empty")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"initial guess must have shape ({n},)")
        _check_finite(x0, "initial guess")

    # Reachability: a free component must see both a 1-node and a 0-node
    # through positive conductances to pose a well-defined Dirichlet
    # problem.  One-sided components are constant plateaus (zero energy);
    # fully unconstrained ones are zeroed and reported.  The components
    # depend on the space alone, which labels them once.
    labels = space.component_labels()
    size = np.bincount(labels)
    has_one = np.bincount(labels[is_inner], minlength=size.size) > 0
    has_zero = np.bincount(labels[in_domain], minlength=size.size) < size
    free = np.flatnonzero(free_mask)
    del in_domain, is_inner, free_mask, size
    free_labels = labels[free]
    reached = has_one[free_labels]
    solved = reached & has_zero[free_labels]
    plateau = free[reached & ~solved]
    free_ids = free[solved].astype(np.int32)
    nf = free_ids.size

    u = np.zeros(n)
    u[inner] = 1.0
    u[plateau] = 1.0
    plateau_nodes = plateau.size
    unreachable_nodes = int(free.size - np.count_nonzero(reached))
    del free, free_labels, reached, solved, plateau

    # Free index: place in x, or -1 for a fixed node.  The live edges with a
    # free end make up the system; the other live edges carry the constant
    # energy e_const.  On a system edge, u_i - u_j is the slope B x plus
    # du_fixed, the slope of u at x = 0 (u is 0 on the free nodes).
    edges = space.edges
    lengths = space.edge_lengths
    conductance = space.edge_masses() / lengths**p
    live = conductance > 0
    free_index = np.full(n, -1, dtype=np.int32)
    free_index[free_ids] = np.arange(nf, dtype=np.int32)
    ends = free_index[edges]
    del free_index
    free_end = ends >= 0
    touching = free_end[:, 0] | free_end[:, 1]
    rest = np.nonzero(live & ~touching)[0]
    du_rest = u[edges[rest, 0]] - u[edges[rest, 1]]
    e_const = float((conductance[rest] * np.abs(du_rest) ** p).sum())
    kept = np.nonzero(live & touching)[0]
    del live, touching, rest, du_rest
    c = conductance[kept]
    du_fixed = u[edges[kept, 0]] - u[edges[kept, 1]]
    # B row by row at its final size: +1 at a free i end, -1 at a free j end.
    # A free j end is its row's last entry, so the -1s sit at indptr[e+1] - 1.
    ends = np.take(ends, kept, axis=0)
    free_end = ends >= 0
    del conductance, kept
    indptr = np.zeros(c.size + 1, dtype=np.int32)
    np.cumsum(free_end[:, 0].astype(np.int32) + free_end[:, 1], out=indptr[1:])
    signs = np.ones(indptr[-1])
    signs[indptr[1:][free_end[:, 1]] - 1] = -1.0
    bt = csr_matrix((signs, ends[free_end], indptr), shape=(c.size, nf)).T.tocsr()
    b = bt.T
    del ends, free_end, indptr, signs

    def edge_state(du):
        """Energy, free-node gradient and IRLS weight shape at edge slopes du."""
        power = np.maximum(np.abs(du), 1e-300) ** (p - 2.0)
        flow = p * c * power * du
        energy = e_const + float(flow @ du) / p
        top = min(power.max(initial=0.0), 1.0 / WEIGHT_FLOOR)
        return energy, bt @ flow, np.clip(power, WEIGHT_FLOOR * top, top)

    def assemble(weights):
        """The weighted Laplacian B^T W B and its right-hand side, the pull
        of the fixed ends on the free ones."""
        cw = c * weights
        btw = csr_matrix((bt.data * cw[bt.indices], bt.indices, bt.indptr),
                         shape=bt.shape)
        del cw  # not held through the product
        return btw @ b, -(btw @ du_fixed)

    cg_iters = 0

    def count_cg(_xk):
        nonlocal cg_iters
        cg_iters += 1

    # Coordinate boxes coarsen the unknowns of a Euclidean space of at most
    # three coordinates, at any p; elsewhere (gauge lattices, path metrics,
    # 4-d grids, small systems) Jacobi.
    levels = None
    if (space.metric == "euclidean" and space.coords.shape[1] <= 3
            and nf > COARSEST):
        coords = np.take(space.coords, free_ids, axis=0)
        low = [col.min() for col in coords.T]  # per column, as in _hierarchy
        cells = np.rint((coords - low) / lengths.min()).astype(np.int32)
        del coords
        levels = _hierarchy(cells)  # box maps; each iteration fills them
        del cells

    rtol = max(tol / 10.0, 1e-13)
    # Newton forcing of the inner solves; at p = 2 one solve is exact.
    eta = rtol if p == 2 else FORCING
    t_max = max(1.0, 1.0 / (p - 1.0))
    maxiter = 50 * int(np.sqrt(nf) + 100)
    x = np.zeros(nf)
    du = du_fixed
    energy, grad, _ = edge_state(du)
    shape = np.ones(c.size)  # harmonic initialization
    g_scale = max(np.abs(grad).max(initial=0.0), 1e-300)
    if x0 is not None:
        x = np.clip(x0[free_ids], 0.0, 1.0)
        du = b @ x + du_fixed
        energy, grad, shape = edge_state(du)
    trace, steps = [energy], []

    # With no free node the constraints fix u, and the loop is skipped.
    stop, residual = ("max_iter", 1.0) if nf else ("converged", 0.0)
    iterations = 0
    for iterations in range(1, max_iter + 1 if nf else 1):
        # Correction of the IRLS step: L_w delta = b_w - L_w x.  Since
        # L_w x - b_w = grad / p, the floor rtol * g_scale / p keeps CG
        # iterating for as long as the outer gradient test can still fail.
        lap, rhs = assemble(shape)
        atol = rtol * np.linalg.norm(rhs)
        if p != 2:
            atol = min(atol, rtol * g_scale / p)
        if levels is not None:
            coarsest = _refill(levels, lap)
            precond = LinearOperator((nf, nf), dtype=float,
                                     matvec=lambda v: _vcycle(levels, coarsest, v))
        else:
            inv_diag = 1.0 / np.maximum(lap.diagonal(), 1e-300)
            precond = LinearOperator((nf, nf), dtype=float, matvec=lambda v: inv_diag * v)
        delta, _ = cg(lap, rhs - lap @ x, rtol=eta, atol=atol, maxiter=maxiter,
                      M=precond, callback=count_cg)

        if p == 2:
            t = 1.0  # the energy is quadratic and delta its minimizer
        else:
            t = _line_search(c, du, b @ delta, p, t_max, float(grad @ delta))
        x_new = x + t * delta
        energy_new = energy
        moved = not np.array_equal(x_new, x)
        if moved:
            du_new = b @ x_new + du_fixed
            energy_try, grad_new, shape_new = edge_state(du_new)
            # a step that rounding made ascend is not taken
            moved = energy_try <= energy * (1.0 + 1e-14)
            if moved:
                x, du, grad, shape = x_new, du_new, grad_new, shape_new
                energy_new = energy_try
                steps.append(t)
        trace.append(energy_new)

        residual = np.abs(grad).max() / g_scale
        rel_dec = (energy - energy_new) / max(energy, 1e-300)
        energy = energy_new
        if residual < tol and (p == 2 or rel_dec < tol):
            stop = "converged"
            break
        if not moved:
            stop = "stagnated"
            break

    u[free_ids] = x
    u_min, u_max = float(u.min()), float(u.max())
    diagnostics = {
        "plateau_nodes": plateau_nodes,
        "unreachable_nodes": unreachable_nodes,
        "energy_trace": trace,
        "backtracks": 0,  # none since the exact line search; kept for readers
        "steps": steps,
        "cg_iters": cg_iters,
        "stop_reason": stop,
        "preconditioner": "jacobi" if levels is None else "multilevel",
        "descent_ok": all(b <= a * (1.0 + 1e-12) + 1e-300
                          for a, b in zip(trace, trace[1:])),
        "u_min": u_min, "u_max": u_max,
        "range_ok": u_min >= -1e-6 and u_max <= 1.0 + 1e-6,
    }
    return CapacityResult(energy, u, iterations, float(residual), stop == "converged",
                          diagnostics)


def relative_capacity(space, center, r, R, p, tol=1e-6, max_iter=100) -> CapacityResult:
    """Capacity of the closed ball B(center, r) relative to B(center, R).

    For p < 2 the solve starts at the radial extremal of the ring: the
    power profile of exponent p against the ring's own volume growth
    q = log(mu(B(center, R)) / mu(B(center, r))) / log(R / r), or the log
    profile where q = p, composed with the distance from the centre.  In
    the model spaces that profile attains the capacity, so fewer IRLS and
    CG iterations are left to take.  A ball of zero mass leaves q
    undefined, and the solve then starts cold.  As in every solve,
    convergence is judged against the cold-start gradient, so the start
    moves the result by no more than the tolerance.

    At p >= 2 the solve starts cold.  At p = 2 the guess only shortens the
    one linear solve, while the whole-space guess and its slopes stay held
    through it: on the 8.1M-node gauge lattice CG fell 183 -> 171 and the
    peak RSS rose 2.87 -> 3.15 GB.  At p > 2 the extremal is no better a
    start than a few cheap cold iterations: on the h = 0.01 plane at p = 4
    its residual is that of the fifth cold iteration, its first system
    took the V-cycle 50 CG iterations, and the solve took 216 CG against
    125 cold.
    """
    cond = ring_condenser(space, center, r, R)
    x0 = None
    if p < 2:
        inner, outer = space.ball_masses(center, [r, R])
        q = np.log(outer / inner) / np.log(R / r) if inner > 0 else np.nan
        if np.isfinite(q):
            prof = power_profile(r, R, p, q)  # the log profile where q = p
            x0 = prof(space.distances_from(center))  # radialize's u, no edge pass
    return solve_condenser(space, cond, p, tol=tol, max_iter=max_iter, x0=x0)


@dataclass
class SingletonLimit:
    """Capacity of a shrinking inner ball at fixed outer radius."""

    radii: np.ndarray
    capacities: np.ndarray
    limit_estimate: float
    last_relative_change: float
    converged: np.ndarray  # whether the solve at each radius converged

    @property
    def decreasing(self) -> bool:
        return bool(np.all(np.diff(self.capacities) <= 1e-12))


def singleton_capacity_limit(space, center, p, R, radii, tol=1e-8) -> SingletonLimit:
    """Solve the ring capacity along a decreasing sequence of inner radii.

    The radii must be strictly decreasing, at least five grid steps and
    below R.  The limit estimate is the last capacity;
    ``last_relative_change`` quantifies how settled the tail is.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2:
        raise ValueError("need at least two radii")
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")
    _check_radius_floor(radii, space, "inner radii")
    caps, converged = np.zeros(radii.size), np.zeros(radii.size, dtype=bool)
    for k, r in enumerate(radii):
        res = relative_capacity(space, center, float(r), R, p, tol=tol)
        caps[k], converged[k] = res.value, res.converged
    change = abs(caps[-1] - caps[-2]) / max(caps[-1], 1e-300)
    return SingletonLimit(radii, caps, float(caps[-1]), float(change), converged)


@dataclass
class SandwichReport:
    """Solved capacity against profile energy and both closed-form bounds."""

    regime: str
    capacity: float
    profile_energy: float
    lower: float
    upper: float
    admissible_ok: bool
    ratio_lower: float  # capacity / lower bound
    ratio_upper: float  # profile energy / upper bound
    result: CapacityResult


def verify_sandwich(space, center, r, R, p, q_center, q_local=None,
                    tol=1e-6) -> SandwichReport:
    """Solve a ring and compare against the admissible profile and bounds.

    The profile kind follows the regime: the power shape with the local
    dimension below the critical exponent, and with the pointwise dimension
    at and above it, where ``power_profile`` is the log shape at the tie.
    The radialized profile is admissible for the ring condenser, so its
    edge energy must dominate the solved capacity up to solver tolerance.
    Both envelopes are evaluated before the solve, so a ring without a
    finite envelope is rejected without solving it.
    """
    _check_radii(r, R)  # before the ball query, so a bad radius reads as such
    est = estimate_ring(r, R, p, q_center, space.ball_mass(center, r), q_local)
    prof = power_profile(r, R, p, est.q_local if est.regime == "below" else q_center)
    res = relative_capacity(space, center, r, R, p, tol=tol)
    e = p_energy(space, radialize(space, center, prof), p).edge
    admissible_ok = res.value <= e * (1.0 + 10.0 * tol) + 10.0 * tol
    ratio_lower = res.value / est.lower if est.lower > 0 else np.inf
    ratio_upper = e / est.upper if est.upper > 0 else np.inf
    return SandwichReport(est.regime, res.value, e, est.lower, est.upper,
                          admissible_ok, ratio_lower, ratio_upper, res)


@dataclass
class MonotonicityReport:
    trials: list
    violations: list
    all_pass: bool


def monotonicity_suite(space, p, seed=0, n_pairs=50, tol=1e-6) -> MonotonicityReport:
    """Randomized set-monotonicity checks of the solved capacity.

    For nested radii r1 < r2 < R1 < R2 around the node nearest the centroid
    of the space the solver must satisfy, up to tolerance,

        cap(B(r1), B(R1)) <= cap(B(r2), B(R1))   (larger plate, more capacity)
        cap(B(r2), B(R1)) >= cap(B(r2), B(R2))   (larger domain, less capacity)
    """
    rng = np.random.default_rng(seed)
    center = space.nearest_node(space.coords.mean(axis=0))
    d = space.distances_from(center)
    d_max = float(d.max())
    h = space.resolution
    if d_max < 8 * h:
        raise ValueError("space too small for radius sampling")
    trials, violations = [], []
    attempts = 0
    while len(trials) < n_pairs and attempts < 40 * n_pairs:
        attempts += 1
        lo, hi = 2.0 * h, 0.95 * d_max
        r1, r2, R1, R2 = np.sort(lo + (hi - lo) * rng.random(4))
        if r2 - r1 < h or R1 - r2 < 2 * h or R2 - R1 < h:
            continue  # degenerate draw; redraw rather than force a thin ring
        c_small = relative_capacity(space, center, r1, R1, p, tol=tol).value
        c_big = relative_capacity(space, center, r2, R1, p, tol=tol).value
        c_wide = relative_capacity(space, center, r2, R2, p, tol=tol).value
        entry = {"r1": r1, "r2": r2, "R1": R1, "R2": R2,
                 "cap_small": c_small, "cap_big": c_big, "cap_wide": c_wide}
        trials.append(entry)
        slack = tol * max(1.0, c_big)
        if c_small > c_big + slack:
            violations.append(("inner", entry))
        if c_wide > c_big + slack:
            violations.append(("domain", entry))
    return MonotonicityReport(trials, violations, not violations)
