"""Variational condenser capacities by convex minimization.

The capacity of a condenser (E, Omega) on a discrete space is

    min  sum_e c_e |u_i - u_j|^p     over  u = 1 on E,  u = 0 off Omega,

with edge conductance ``c_e = edge_mass / length^p``.  The mean-of-
endpoint-masses edge mass makes the edge energy consistent with the
continuum Dirichlet p-energy on grids, so p = 2 capacities converge to
their classical values.

Minimization is a guarded Newton-IRLS.  Each step solves the weighted
graph-Laplacian system with edge weights ``c_e |du|^(p-2)`` (clipped away
from 0 and infinity) for a correction of the current potential, by
preconditioned conjugate gradients (CG).  The exact Newton step
is that correction scaled by 1 / (p - 1), so the step length is chosen by
an exact line search of the convex energy along it, over
(0, max(1, 1 / (p - 1))]; every accepted step lowers the energy, on both
sides of p = 2.  At p = 2 the energy is quadratic and the full step is
taken, after which the solve ends as soon as the gradient test passes: one
linear solve is exact there.  Inner solves are inexact Newton solves: CG
stops at a fixed fraction of the current residual, with a floor below the
outer gradient target.  A step that leaves the potential unchanged ends the
solve as stagnated.  Components of the free region that the constraints
cannot reach are zeroed and reported, never solved; the components come
from the space, which labels them once (``DiscreteSpace.component_labels``).

The system is set up once per condenser as one sparse operator: the signed
incidence matrix B of the system edges (the live edges with a free end) on
the free nodes, with +1 at a free i end and -1 at a free j end.  The slopes
of the unknown vector x are B x, the gradient is B^T of the edge flows, and
the weighted Laplacian is B^T W B, whose right-hand side is the pull
-B^T W du_fixed of the fixed ends.  Repeated edges add up in the products.

The preconditioner is chosen from the system, not set by the caller.  A
system on a Euclidean space of at most three coordinates with more than
``COARSEST`` free nodes gets a smoothed-aggregation V-cycle (Vanek,
Mandel and Brezina 1996): the free nodes are grouped into coordinate boxes
three shortest edges a side, the piecewise-constant prolongation of the
boxes is smoothed by one damped-Jacobi step, and Galerkin products
P^T A P are coarsened again with boxes three times wider, down to a direct
solve of at most ``COARSEST`` unknowns.  One damped-Jacobi step before and
one after each coarse correction keep it symmetric.  CG iterations then no
longer grow like 1 / h, at any p: each IRLS iteration builds the hierarchy
of its own matrix when CG first applies it, so a CG that does not iterate
builds none.  Every other system keeps the diagonal (Jacobi)
preconditioner: the gauge lattice and path metrics, whose nodes are not
boxed by coordinates; grids of four or more coordinates, whose 81-cell
boxes make the Galerkin levels so dense that a V-cycle costs more than
the CG iterations it saves; and small systems.

A solve may start from a guess ``x0`` (a nearly optimal potential, say),
clipped to [0, 1] on the free nodes.  Its convergence is still judged
against the gradient at the cold start, where the potential is the
indicator of the inner plate, so a guess moves neither the target nor the
result beyond the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg, splu

from .bounds import lower_bound, regime, upper_bound
from .profiles import log_profile, p_energy, power_profile, radialize

__all__ = [
    "Condenser",
    "ring_condenser",
    "CapacityResult",
    "solve_condenser",
    "relative_capacity",
    "SandwichReport",
    "verify_sandwich",
    "MonotonicityReport",
    "monotonicity_suite",
]

WEIGHT_FLOOR = 1e-12
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
    if r <= 0:
        raise ValueError("inner radius must be positive")
    if R <= r:
        raise ValueError("outer radius must exceed inner radius")
    d = space.distances_from(int(center))
    inner = np.nonzero(d <= r)[0]
    domain = np.nonzero(d < R)[0]
    if inner.size == 0:
        raise ValueError("inner ball contains no nodes")
    if inner.size == domain.size:
        raise ValueError("ring contains no free nodes (r too close to R)")
    return Condenser(inner, domain)


@dataclass
class CapacityResult:
    """Minimizer and value of one condenser problem.

    ``u`` is the node potential; ``value`` is its edge-form p-energy as
    the solve evaluated it, the last entry of ``energy_trace``.
    ``residual`` is the final constrained-gradient max-norm relative to its
    value at the cold start.  ``diagnostics`` holds the energy after each
    iteration (``energy_trace``), the accepted step lengths (``steps``), the
    CG iterations summed over the solve (``cg_iters``), why the solve ended
    (``stop_reason``: ``converged``, ``max_iter`` or ``stagnated``, when a
    step left the potential unchanged), the CG preconditioner
    (``preconditioner``: ``jacobi`` or ``multilevel``), and the
    ``descent_ok`` and ``range_ok`` checks.
    """

    value: float
    u: np.ndarray
    iterations: int
    residual: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)


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


def _hierarchy(lap, cells):
    """Smoothed-aggregation levels of the SPD matrix ``lap``.

    ``cells`` gives each unknown's integer cell on the lattice of the
    space's shortest edge.  Each level groups the unknowns into boxes of
    three cells a side (so the box side triples from level to level), smooths
    the piecewise-constant prolongation of the boxes by one damped-Jacobi
    step, and passes the Galerkin product P^T A P down, until at most
    ``COARSEST`` unknowns remain.  Returns the (A, 1 / diag A, P) of each
    level and the LU factors of the coarsest matrix.
    """
    levels = []
    a = lap
    while a.shape[0] > COARSEST:
        cells = cells // 3
        dims = cells.max(axis=0) + 1
        boxes, agg = np.unique(np.ravel_multi_index(cells.T, dims),
                               return_inverse=True)
        n, n_agg = a.shape[0], boxes.size
        if n_agg == n:
            continue  # boxes still hold one unknown each; widen them
        cells = np.column_stack(np.unravel_index(boxes, dims))
        inv_d = 1.0 / a.diagonal()
        tentative = csr_matrix((np.ones(n), agg, np.arange(n + 1)),
                               shape=(n, n_agg))
        smooth = a @ tentative
        smooth.data *= np.repeat(SMOOTHING * inv_d, np.diff(smooth.indptr))
        prolong = (tentative - smooth).tocsr()
        del tentative, smooth
        levels.append((a, inv_d, prolong))
        a = (prolong.T @ (a @ prolong)).tocsr()
    return levels, splu(a.tocsc())


def _vcycle(levels, coarsest, b):
    """One V-cycle from zero: a damped-Jacobi step before and after each
    coarse correction, so the preconditioner is symmetric."""
    if not levels:
        return coarsest.solve(b)
    a, inv_d, prolong = levels[0]
    x = SMOOTHING * inv_d * b
    x += prolong @ _vcycle(levels[1:], coarsest, prolong.T @ (b - a @ x))
    x += SMOOTHING * inv_d * (b - a @ x)
    return x


def _multilevel(lap, cells):
    """V-cycle preconditioner of ``lap``; the hierarchy is built on first use,
    so a CG that does not iterate never builds it."""
    hierarchy = []

    def apply(b):
        if not hierarchy:
            hierarchy.extend(_hierarchy(lap, cells))
        return _vcycle(*hierarchy, b)

    return LinearOperator(lap.shape, matvec=apply, dtype=float)


def solve_condenser(space, condenser, p, tol=1e-6, max_iter=100,
                    x0=None) -> CapacityResult:
    """Minimize the discrete p-energy under condenser constraints.

    Parameters
    ----------
    space : DiscreteSpace
    condenser : Condenser
        ``inner`` must be nonempty and contained in ``domain``; the domain
        must leave at least one free node.
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
    if p <= 1:
        raise ValueError("exponent p must exceed 1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = space.n_nodes
    inner = condenser.inner
    domain = condenser.domain
    if inner.size == 0:
        raise ValueError("inner set must be nonempty")
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
        if not np.isfinite(x0).all():
            raise ValueError("initial guess must be finite")

    edges = space.edges
    lengths = space.edge_lengths
    conductance = space.edge_masses() / lengths**p
    live = conductance > 0

    u = np.zeros(n)
    u[is_inner] = 1.0

    # Reachability: a free component must see both a 1-node and a 0-node
    # through positive conductances to pose a well-defined Dirichlet
    # problem.  One-sided components are constant plateaus (zero energy);
    # fully unconstrained ones are zeroed and reported.  The components
    # depend on the space alone, which labels them once.
    labels = space.component_labels()
    has_one = np.bincount(labels, is_inner)[labels] > 0
    has_zero = np.bincount(labels, ~in_domain)[labels] > 0
    plateau = free_mask & has_one & ~has_zero
    unreachable = free_mask & ~has_one
    u[plateau] = 1.0
    solve_mask = free_mask & has_one & has_zero

    diagnostics = {
        "plateau_nodes": int(plateau.sum()),
        "unreachable_nodes": int(unreachable.sum()),
        "energy_trace": [],
        "backtracks": 0,  # none since the exact line search; kept for readers
        "steps": [],
        "cg_iters": 0,
        "stop_reason": "converged",
        "preconditioner": "jacobi",
    }

    # Free index: place in x, or -1 for a fixed node.  The live edges with a
    # free end make up the system; the other live edges carry the constant
    # energy e_const.  On a system edge, u_i - u_j is the slope B x plus
    # du_fixed, the slope of u at x = 0 (u is 0 on the free nodes).
    free_ids = np.nonzero(solve_mask)[0]
    nf = free_ids.size
    free_index = np.full(n, -1, dtype=np.int32)
    free_index[free_ids] = np.arange(nf, dtype=np.int32)
    ends = free_index[edges]
    touching = (ends[:, 0] >= 0) | (ends[:, 1] >= 0)
    rest = np.nonzero(live & ~touching)[0]
    du_rest = u[edges[rest, 0]] - u[edges[rest, 1]]
    e_const = float((conductance[rest] * np.abs(du_rest) ** p).sum())
    kept = np.nonzero(live & touching)[0]
    c = conductance[kept]
    du_fixed = u[edges[kept, 0]] - u[edges[kept, 1]]
    # B row by row: +1 and -1 at the ends of each system edge, the fixed
    # ends' entries set to 0 and then dropped.
    ends = ends[kept]
    b = csr_matrix((np.where(ends >= 0, [1.0, -1.0], 0.0).ravel(),
                    np.maximum(ends, 0).ravel(), np.arange(0, ends.size + 1, 2)),
                   shape=(kept.size, nf))
    b.eliminate_zeros()
    bt = b.T.tocsr()
    del conductance, live, touching, rest, du_rest, kept, ends

    def edge_state(du):
        """Energy, free-node gradient and IRLS weight shape at edge slopes du."""
        power = np.maximum(np.abs(du), 1e-300) ** (p - 2.0)
        flow = p * c * power * du
        energy = e_const + float(flow @ du) / p
        return energy, bt @ flow, np.clip(power, WEIGHT_FLOOR, 1.0 / WEIGHT_FLOOR)

    if nf == 0:
        energy = edge_state(du_fixed)[0]
        diagnostics["energy_trace"].append(energy)
        return CapacityResult(energy, u, 0, 0.0, True, diagnostics)

    def assemble(weights):
        """The weighted Laplacian B^T W B and its right-hand side, the pull
        of the fixed ends on the free ones."""
        btw = csr_matrix((bt.data * (c * weights)[bt.indices], bt.indices,
                          bt.indptr), shape=bt.shape)
        return btw @ b, -(btw @ du_fixed)

    def count_cg(_xk):
        diagnostics["cg_iters"] += 1

    # Coordinate boxes coarsen the unknowns of a Euclidean space of at most
    # three coordinates, at any p; elsewhere (gauge lattices, path metrics,
    # 4-d grids, small systems) Jacobi.
    multilevel = (space.metric == "euclidean" and space.coords.shape[1] <= 3
                  and nf > COARSEST)
    if multilevel:
        coords = space.coords[free_ids]
        cells = np.rint((coords - coords.min(axis=0)) / lengths.min()).astype(np.int64)
        diagnostics["preconditioner"] = "multilevel"
        del coords

    rtol = max(tol / 10.0, 1e-13)
    # Newton forcing of the inner solves; at p = 2 one solve is exact.
    eta = rtol if p == 2 else FORCING
    t_max = max(1.0, 1.0 / (p - 1.0))
    maxiter = 50 * int(np.sqrt(nf) + 100)
    x = np.zeros(nf)
    du = du_fixed
    energy, grad, _ = edge_state(du)
    shape = np.ones(c.size)  # harmonic initialization
    g_scale = max(np.abs(grad).max(), 1e-300)
    if x0 is not None:
        x = np.clip(x0[free_ids], 0.0, 1.0)
        du = b @ x + du_fixed
        energy, grad, shape = edge_state(du)
    diagnostics["energy_trace"].append(energy)

    converged = False
    residual = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # Correction of the IRLS step: L_w delta = b_w - L_w x.  Since
        # L_w x - b_w = grad / p, the floor rtol * g_scale / p keeps CG
        # iterating for as long as the outer gradient test can still fail.
        lap, rhs = assemble(shape)
        atol = rtol * np.linalg.norm(rhs)
        if p != 2:
            atol = min(atol, rtol * g_scale / p)
        if multilevel:
            precond = _multilevel(lap, cells)
        else:
            inv_diag = 1.0 / np.maximum(lap.diagonal(), 1e-300)
            precond = LinearOperator((nf, nf), matvec=lambda v: inv_diag * v)
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
                diagnostics["steps"].append(t)
        diagnostics["energy_trace"].append(energy_new)

        residual = np.abs(grad).max() / g_scale
        rel_dec = (energy - energy_new) / max(energy, 1e-300)
        energy = energy_new
        if residual < tol and (p == 2 or rel_dec < tol):
            converged = True
            break
        if not moved:
            diagnostics["stop_reason"] = "stagnated"
            break
    else:
        diagnostics["stop_reason"] = "max_iter"

    u[free_ids] = x
    trace = diagnostics["energy_trace"]
    descent_ok = all(b <= a * (1.0 + 1e-12) + 1e-300 for a, b in zip(trace, trace[1:]))
    diagnostics["descent_ok"] = bool(descent_ok)
    diagnostics["u_min"] = float(u.min())
    diagnostics["u_max"] = float(u.max())
    diagnostics["range_ok"] = bool(u.min() >= -1e-6 and u.max() <= 1.0 + 1e-6)
    return CapacityResult(energy, u, iterations, float(residual), converged,
                          diagnostics)


def relative_capacity(space, center, r, R, p, tol=1e-6, max_iter=100) -> CapacityResult:
    """Capacity of the closed ball B(center, r) relative to B(center, R)."""
    cond = ring_condenser(space, center, r, R)
    return solve_condenser(space, cond, p, tol=tol, max_iter=max_iter)


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
    dimension below the critical exponent, the log shape at it, and the
    power shape with the pointwise dimension above it.  The radialized
    profile is admissible for the ring condenser, so its edge energy must
    dominate the solved capacity up to solver tolerance.
    """
    if q_local is None:
        q_local = q_center
    which = regime(p, q_center)
    res = relative_capacity(space, center, r, R, p, tol=tol)
    if which == "below":
        prof = power_profile(r, R, p, q_local)
    elif which == "critical":
        prof = log_profile(r, R)
    else:
        prof = power_profile(r, R, p, q_center)
    fld = radialize(space, center, prof)
    e = p_energy(space, fld, p).edge
    mass_inner = space.ball_mass(int(center), r)
    lo = lower_bound(r, R, p, q_center, mass_inner)
    hi = upper_bound(r, R, p, q_center, mass_inner, q_local)
    admissible_ok = res.value <= e * (1.0 + 10.0 * tol) + 10.0 * tol
    ratio_lower = res.value / lo if lo > 0 else np.inf
    ratio_upper = e / hi if hi > 0 else np.inf
    return SandwichReport(which, res.value, e, lo, hi, admissible_ok,
                          ratio_lower, ratio_upper, res)


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
