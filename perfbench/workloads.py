"""The three benchmark workloads and their correctness gates.

Each workload builds its spaces in ``setup`` and then runs passes: one pass
is the workload's fixed set of library calls on inputs drawn from the seed
and the pass number.  Only the library calls are timed; the checks of a pass
run after its calls and outside the timing.  Every check failure, solver
flag (``converged``, ``descent_ok``, ``range_ok``) and exception marks the
operation as failed; nothing is dropped or retried.

Library functions are looked up through their modules at call time
(``spaces.build_euclidean_grid``), so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ringcap import bounds, cli, dimension, green, profiles, solver, spaces

TOL = 1e-6  # solver tolerance of every condenser solve here


@dataclass
class Op:
    """One attempted operation of a pass."""

    name: str
    rings: int = 0  # condenser solves (or ring evaluations) it stands for
    ring_seconds: float | None = None  # time of its one timed ring, if any
    exponent: float | None = None  # p of that ring
    failures: list = field(default_factory=list)
    deviations: list = field(default_factory=list)  # relative, vs references

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def solver_flags(self, res):
        """Gate on the flags every condenser solve reports."""
        d = res.diagnostics
        self.check(res.converged,
                   f"not converged after {res.iterations} iterations "
                   f"(residual {res.residual:.3g})")
        self.check(d.get("descent_ok", True), "energy rose between iterations")
        self.check(d.get("range_ok", True),
                   f"potential left [0, 1]: {d.get('u_min')}..{d.get('u_max')}")
        self.check(np.isfinite(res.value) and res.value > 0,
                   f"capacity {res.value!r} not positive")


class Pass:
    """Ledger of one pass: timed library calls and the operations they form."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0
        self.ops: list[Op] = []

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``, adding its wall time to the pass; returns (result, s)."""
        if self.tracer is not None:
            self.tracer.phase = "pass"
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            self.seconds += seconds
            if self.tracer is not None:
                self.tracer.phase = None
        return result, seconds

    @contextmanager
    def op(self, name, rings=0, exponent=None):
        op = Op(name, rings, exponent=exponent)
        try:
            yield op
        except Exception as exc:  # the gate counts it; the run goes on
            op.failures.append(f"{type(exc).__name__}: {exc}")
        self.ops.append(op)


def _ring_system_bytes(space, center, r, R):
    """Computed size of the CSR system of one ring solve.

    The free nodes are those with r < d < R; the matrix has one diagonal
    entry per free node and two entries per edge between free nodes, each a
    float64 value with an int32 column index, plus an int32 row pointer.
    """
    d = space.distances_from(center)
    free = (d > r) & (d < R)
    e0, e1 = space.edges[:, 0], space.edges[:, 1]
    nf = int(free.sum())
    nnz = nf + 2 * int((free[e0] & free[e1]).sum())
    touching = int((free[e0] | free[e1]).sum())
    return {"free_nodes": nf, "csr_nnz": nnz,
            "csr_bytes": nnz * (8 + 4) + (nf + 1) * 4,
            "vector_bytes": nf * 8,
            "edge_array_bytes": touching * 8}


def space_bytes(space):
    """Bytes of a space's coordinate, mass, edge and length arrays."""
    arrays = (space.coords, space.mass, space.edges, space.edge_lengths)
    return int(sum(a.nbytes for a in arrays))


def _regime_profile(regime, r, R, p, q):
    if regime == "critical":
        return profiles.log_profile(r, R)
    return profiles.power_profile(r, R, p, q)


class Workload:
    """Spaces built by ``setup``, passes, and an optional check after them."""

    SPACES: tuple = ()  # attributes that ``setup`` fills with large arrays

    def __init__(self, seed, out_dir):
        pass

    def teardown(self):
        """Drop the spaces, so the next set-up starts from nothing."""
        for attr in self.SPACES:
            setattr(self, attr, None)

    def check_references(self, led):
        """Untimed reference checks run once after the passes."""


class Sweep(Workload):
    """Solver-bound: ring solves across the three regimes on one plane grid.

    Mirrors the ``regime-sweep`` task through library calls: for each ring
    ``estimate_ring`` and then ``relative_capacity``.  Each pass solves one
    ring per exponent in each of two radius strata, so every pass has the
    same mix of regimes and of small and large inner balls.
    """

    name = "sweep"
    SPACES = ("space",)
    H, R, Q = 0.01, 1.0, 2.0
    EXPONENTS = (1.5, 2.0, 3.0, 4.0)
    STRATA = ((0.05, 0.225), (0.225, 0.4))  # inner radii, r >= 5h
    P2_TOL = 0.05  # relative tolerance against 2 pi / log(R / r) at p = 2
    LADDER = (0.05, 0.1, 0.2, 0.4)  # reference rings at p = 2

    def setup(self):
        sp = spaces.build_euclidean_grid(2, 1.05, self.H)
        self.center = sp.nearest_node(np.zeros(2))
        sp.edge_masses()
        sp.distances_from(self.center)
        self.space = sp

    def working_set(self):
        sp = self.space
        ws = {"nodes": sp.n_nodes, "edges": sp.n_edges, "space_bytes": space_bytes(sp)}
        ws.update(_ring_system_bytes(sp, self.center, self.STRATA[0][0], self.R))
        return {"plane h=0.01, largest ring r=5h": ws}

    def run_pass(self, rng, led):
        sp, c, R, Q = self.space, self.center, self.R, self.Q
        for p in self.EXPONENTS:
            for lo, hi in self.STRATA:
                r = float(lo + (hi - lo) * rng.random())
                with led.op(f"ring p={p:g} r={r:.4f}", rings=1, exponent=p) as op:
                    mass, _ = led.timed(sp.ball_mass, c, r)
                    est, _ = led.timed(bounds.estimate_ring, r, R, p, Q, mass, q_local=Q)
                    res, op.ring_seconds = led.timed(solver.relative_capacity,
                                                     sp, c, r, R, p, tol=TOL)
                    op.solver_flags(res)
                    op.check(0 < est.lower and est.upper < math.inf,
                             f"envelopes {est.lower!r}, {est.upper!r}")
                    # admissibility, as in verify_sandwich: the radialized
                    # regime profile is a competitor, so it bounds the capacity
                    prof = _regime_profile(est.regime, r, R, p, Q)
                    e = profiles.p_energy(sp, profiles.radialize(sp, c, prof), p).edge
                    op.check(res.value <= e * (1 + 10 * TOL) + 10 * TOL,
                             f"capacity {res.value:.6g} above profile energy {e:.6g}")
                    if p == 2.0:
                        self._check_p2(op, r, res.value)

    def _check_p2(self, op, r, value):
        ref = 2 * math.pi / math.log(self.R / r)
        dev = abs(value / ref - 1)
        op.check(dev <= self.P2_TOL, f"capacity {value:.6g} vs 2pi/log(R/r) {ref:.6g}")
        return dev

    def check_references(self, led):
        """Solve the fixed p = 2 ladder whose deviations make up ``ref_err``.

        The deviation of a seeded ring jumps between about 1.1% and 2.4% as
        the lattice disc gains nodes, so its maximum over random radii is
        mostly noise; a fixed ladder gives the same figure on every seed.
        """
        for r in self.LADDER:
            with led.op(f"reference p=2 r={r:g}") as op:
                res = solver.relative_capacity(self.space, self.center, r, self.R, 2.0,
                                               tol=TOL)
                op.solver_flags(res)
                op.deviations.append(self._check_p2(op, r, res.value))


class Green(Workload):
    """Singular function on a fine plane through ``cli.run("green", ...)``.

    The inputs are the task's defaults and do not depend on the seed: the
    level ratios jump with the pole plate, which a seeded plate radius would
    turn into noise in ``ref_err``.  So every pass repeats one config and
    must reproduce its artifacts byte for byte.  Each pass also builds the
    same singular function through the library to run the maximum principle
    check and to compare the CLI's field CSV.
    """

    name = "green"
    SPACES = ("space", "domain")
    H, R, P = 0.005, 1.0, 2.0
    REFINE = (0.02, 0.014, 0.01)
    FRACTIONS = ((0.0, 1.0), (0.1, 0.5), (0.2, 0.8), (0.3, 0.6), (0.5, 0.9))
    BAND_LIMIT = 4.0
    LOG_RESIDUAL_LIMIT = 0.2

    def __init__(self, seed, out_dir):
        self.out = out_dir / "green"
        self.config = {
            "space": {"kind": "euclidean_grid", "n": 2, "half_extent": 1.05,
                      "h": self.H},
            "task": {"center": [0.0, 0.0], "R": self.R, "p": self.P, "tol": TOL,
                     "level_fractions": [list(f) for f in self.FRACTIONS],
                     "refine_h": list(self.REFINE), "q_center": 2.0},
            "seed": seed,
        }
        self.first_shas = None

    def setup(self):
        sp = spaces.build_euclidean_grid(2, 1.05, self.H)
        self.center = sp.nearest_node(np.zeros(2))
        sp.edge_masses()
        self.domain = sp.ball(self.center, self.R)
        self.space = sp

    def working_set(self):
        sp = self.space
        main = {"nodes": sp.n_nodes, "edges": sp.n_edges, "space_bytes": space_bytes(sp)}
        main.update(_ring_system_bytes(sp, self.center, 3 * self.H, self.R))
        sets = {"plane h=0.005, pole solve": main}
        for h in self.REFINE:
            n_axis = 2 * round(1.05 / h) + 1
            sets[f"refine plane h={h:g}"] = {"nodes": n_axis**2,
                                             "edges": 2 * n_axis * (n_axis - 1)}
        return sets

    def run_pass(self, rng, led):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        cfg_path = self.out / "config.json"
        cfg_path.write_text(json.dumps(self.config))
        art = self.out / "artifacts"
        cli_solves = 1 + len(self.FRACTIONS) + len(self.REFINE)
        with led.op("cli green", rings=cli_solves) as op:
            code, _ = led.timed(cli.run, "green", str(cfg_path), str(art), quiet=True)
            op.check(code == 0, f"cli.run exit status {code}")
            self._check_artifacts(op, art)
        with led.op("library green", rings=1, exponent=self.P) as op:
            sf, op.ring_seconds = led.timed(green.build_green, self.space, self.domain,
                                            self.center, self.P, tol=TOL)
            mp, _ = led.timed(green.maximum_principle_check, self.space, sf)
            op.solver_flags(sf.result)
            op.check(mp.passed, f"maximum principle: worst excess {mp.worst_excess:.3g}, "
                                f"min value {mp.min_component_value:.3g}")
            field_csv = np.loadtxt(art / "green_field.csv", delimiter=",", skiprows=1)
            op.check(np.array_equal(field_csv[:, 1], sf.values),
                     "green_field.csv differs from the library's singular function")

    def _check_artifacts(self, op, art):
        manifest = json.loads((art / "manifest.json").read_text())
        shas = manifest["artifacts"]
        for name, sha in shas.items():
            op.check(hashlib.sha256((art / name).read_bytes()).hexdigest() == sha,
                     f"{name} does not match its manifest checksum")
        if self.first_shas is None:
            self.first_shas = shas
        op.check(shas == self.first_shas, "artifacts differ from the first pass")
        rows = (art / "green_levels.csv").read_text().split()[1:]
        ratios = [float(row.split(",")[3]) for row in rows]
        op.check(len(ratios) == len(self.FRACTIONS), "a level pair was skipped")
        op.check(abs(ratios[0] - 1) <= 1e-9,
                 f"(0, max G) level ratio {ratios[0]!r}, want 1")
        band = max(ratios) / min(ratios)
        op.check(band <= self.BAND_LIMIT, f"level band {band:.4g} > {self.BAND_LIMIT}")
        # every pair obeys cap * (b - a)^(p - 1) = 1 in the continuum
        op.deviations.extend(abs(x - 1) for x in ratios)
        trend = json.loads((art / "green_trend.json").read_text())
        op.check(trend["regime"] == "critical", f"trend regime {trend['regime']}")
        op.check(trend["log_residual"] <= self.LOG_RESIDUAL_LIMIT,
                 f"log residual {trend['log_residual']:.4g}")


class Geometry(Workload):
    """No solver: spaces, dimension, profiles and bounds, heavy on memory.

    The glued balls are rebuilt each pass, so every Dijkstra row is computed
    afresh and the per-source cache does not grow with the number of passes.
    """

    name = "geometry"
    SPACES = ("group", "plane")
    # (node label, expected pointwise dimension, absolute tolerance)
    DIMS = {"glued mid-segment": (1.0, 0.15), "group origin": (4.0, 0.25),
            "weighted origin": (3.0, 0.15), "weighted off-centre": (2.0, 0.1)}
    EXPONENTS = (2.0, 3.0, 4.0)  # below, at and above the origin's dimension 3
    RING_STRATA = ((0.05, 0.1), (0.1, 0.15), (0.15, 0.2), (0.2, 0.25))
    R = 1.0
    N_SAMPLES = 8

    def setup(self):
        hp = spaces.build_heisenberg_grid(1.3, 0.025, t_half_extent=0.41,
                                          t_step=0.0015, with_edges=False)
        self.group_origin = hp.nearest_node(np.zeros(3))
        hp.distances_from(self.group_origin)
        # half extent 1.2 keeps the off-centre balls (radius up to 0.5) inside
        wp = spaces.build_euclidean_grid(2, 1.2, 0.005, alpha=1.0)
        self.origin = wp.nearest_node(np.zeros(2))
        self.off_centre = wp.nearest_node(np.array([0.65, 0.0]))
        wp.edge_masses()
        wp.distances_from(self.origin)
        self.group, self.plane = hp, wp

    def working_set(self):
        sets = {}
        for label, sp in (("group lattice", self.group), ("weighted plane", self.plane)):
            sets[label] = {"nodes": sp.n_nodes, "edges": sp.n_edges,
                           "space_bytes": space_bytes(sp),
                           "vector_bytes": sp.n_nodes * 8}
        gs = spaces.build_glued_balls(3, 0.05, 6.0)
        sets["glued balls (rebuilt each pass)"] = {
            "nodes": gs.n_nodes, "edges": gs.n_edges, "space_bytes": space_bytes(gs),
            "vector_bytes": gs.n_nodes * 8}
        return sets

    def _dimension(self, op, label, q):
        ref, tol = self.DIMS[label]
        op.deviations.append(abs(q - ref) / ref)
        op.check(abs(q - ref) <= tol, f"{label} dimension {q:.4f}, want {ref} +/- {tol}")

    def _evaluate_ring(self, r, p, q):
        """Envelopes, regime profile, its energies and shell split for one ring."""
        wp, o = self.plane, self.origin
        est = bounds.estimate_ring(r, self.R, p, q, wp.ball_mass(o, r))
        fld = profiles.radialize(wp, o, _regime_profile(est.regime, r, self.R, p, q))
        split = profiles.p_energy(wp, fld, p)
        shells = profiles.dyadic_shell_energy(wp, fld, o, r, self.R, p)
        return est, fld, split, shells

    def run_pass(self, rng, led):
        with led.op("glued build") as op:
            gs, _ = led.timed(spaces.build_glued_balls, 3, 0.05, 6.0)
            op.check(gs.n_nodes > 0, "empty glued space")
        with led.op("glued doubling") as op:
            sample = rng.choice(gs.n_nodes, size=self.N_SAMPLES, replace=False)
            c, _ = led.timed(dimension.doubling_constant, gs, sample, 1.0)
            op.check(1.0 <= c < math.inf, f"doubling constant {c!r}")
        with led.op("glued pointwise") as op:
            fit, _ = led.timed(dimension.pointwise_dimension, gs, gs.extras["mid_segment"],
                               np.geomspace(0.25, 2.5, 5))
            self._dimension(op, "glued mid-segment", fit.slope)
        with led.op("glued verify_metric") as op:
            rep, _ = led.timed(spaces.verify_metric, gs, samples=200,
                               seed=int(rng.integers(2**31)))
            op.check(rep.passed, f"metric axioms failed: {rep.failures[:3]}")
        del gs
        with led.op("group pointwise") as op:
            fit, _ = led.timed(dimension.pointwise_dimension, self.group,
                               self.group_origin, np.geomspace(0.125, 1.25, 6))
            self._dimension(op, "group origin", fit.slope)
        wp, o = self.plane, self.origin
        with led.op("weighted analyze") as op:
            sample = rng.choice(wp.n_nodes, size=self.N_SAMPLES, replace=False)
            rep, _ = led.timed(dimension.analyze_dimension, wp, sample, 0.5,
                               point_nodes=[o, self.off_centre], n_radii=6)
            op.check(1.0 <= rep.c_doubling < math.inf, f"doubling {rep.c_doubling!r}")
            self._dimension(op, "weighted origin", rep.q_point[o])
            self._dimension(op, "weighted off-centre", rep.q_point[self.off_centre])
        q = self.DIMS["weighted origin"][0]
        for p in self.EXPONENTS:
            for lo, hi in self.RING_STRATA:
                r = float(lo + (hi - lo) * rng.random())
                with led.op(f"ring p={p:g} r={r:.4f}", rings=1, exponent=p) as op:
                    (est, fld, split, shells), op.ring_seconds = led.timed(
                        self._evaluate_ring, r, p, q)
                    d = wp.distances_from(o)
                    ring = (d > r) & (d < self.R)
                    node_energy = float((wp.mass[ring] * fld.lip[ring] ** p).sum())
                    op.check(split.edge > 0 and node_energy > 0,
                             f"energies {split.edge!r}, {node_energy!r}")
                    op.check(abs(shells.total - node_energy) <= 1e-12 * node_energy,
                             f"shells sum {shells.total!r} vs ring energy {node_energy!r}")
                    op.check(0 < est.lower and est.upper < math.inf,
                             f"envelopes {est.lower!r}, {est.upper!r}")


WORKLOADS = {w.name: w for w in (Sweep, Green, Geometry)}
