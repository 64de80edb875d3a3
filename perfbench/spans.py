"""Span tracing of ringcap's public entry points, installed from outside.

The tracer replaces a public function at every module attribute through
which callers look it up (``ringcap.cli.build_green``,
``ringcap.green.solve_condenser``, ...) with a wrapper that records a span:
name, start, end and the span that was open when it started.  Spans stay in
memory and are written out when the benchmark ends.  ``ringcap.solver.cg``
also gets a ``callback`` that counts conjugate-gradient iterations; a
callback only observes the iterates, so results do not change.

Wrappers record only while ``Tracer.phase`` is set, which the benchmark does
around the library calls it times; correctness checks run unrecorded.  The
untraced run never calls :meth:`Tracer.install`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ringcap
from ringcap import bounds, cli, dimension, green, profiles, solver, spaces
from workloads import space_bytes

_MODULES = (ringcap, spaces, dimension, bounds, profiles, solver, green, cli)
LAYERS = ("spaces", "dimension", "bounds", "profiles", "solver", "green", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    phase: str  # "setup" or "pass"
    info: dict = field(default_factory=dict)


class Tracer:
    """Holds spans and the attributes it replaced, so it can put them back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase: str | None = None
        self._open: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, inspect=None):
        """Wrapper recording one span per call; ``inspect`` adds span info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1,
                        self.phase)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if inspect is not None:
                span.info.update(inspect(result, args, kwargs))
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the entry points of all seven modules."""
        scipy_cg = solver.cg
        cg_iters = [0]

        @functools.wraps(scipy_cg)
        def counted_cg(*args, callback=None, **kwargs):
            n = 0

            def tick(xk):
                nonlocal n
                n += 1
                if callback is not None:
                    callback(xk)

            try:
                return scipy_cg(*args, callback=tick, **kwargs)
            finally:
                cg_iters[0] = n

        targets = [
            (spaces.build_euclidean_grid, "spaces.build", _space_info),
            (spaces.build_heisenberg_grid, "spaces.build", _space_info),
            (spaces.build_glued_balls, "spaces.build", _space_info),
            (spaces.verify_metric, "spaces.verify_metric", None),
            (dimension.analyze_dimension, "dimension.analyze", None),
            (dimension.pointwise_dimension, "dimension.pointwise", None),
            (dimension.doubling_constant, "dimension.doubling", None),
            (bounds.estimate_ring, "bounds.estimate", None),
            (profiles.radialize, "profiles.radialize", None),
            (profiles.p_energy, "profiles.p_energy", None),
            (profiles.dyadic_shell_energy, "profiles.shell", None),
            (solver.solve_condenser, "solver.solve", _solve_info),
            (green.build_green, "green.build", None),
            (green.check_level_sets, "green.levels", None),
            (green.blowup_trend, "green.trend", None),
            (green.maximum_principle_check, "green.maxprinciple", None),
            (cli.run, "cli.run", _artifact_info),
        ]
        for fn, name, inspect in targets:
            traced = self.wrap(name, fn, inspect)
            for module in _MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, traced)
        self._replace(solver, "cg", self.wrap(
            "solver.cg", counted_cg, lambda res, a, k: {"iters": cg_iters[0]}))
        self._replace(spaces.DiscreteSpace, "distances_from", self.wrap(
            "spaces.distances", spaces.DiscreteSpace.distances_from))

    def uninstall(self):
        while self._replaced:
            owner, attr, value = self._replaced.pop()
            setattr(owner, attr, value)

    def write(self, path: Path):
        rows = [[s.name, s.start, s.end, s.parent, s.phase, s.info]
                for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")


def _space_info(space, args, kwargs):
    return {"nodes": space.n_nodes, "edges": space.n_edges, "bytes": space_bytes(space)}


def _solve_info(res, args, kwargs):
    trace = res.diagnostics["energy_trace"]
    return {"iters": res.iterations,
            "backtracks": res.diagnostics["backtracks"],
            "descents": int(sum(b < a for a, b in zip(trace, trace[1:]))),
            "nonconverged": int(not res.converged)}


def _artifact_info(code, args, kwargs):
    out = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
    try:
        names = json.loads((out / "manifest.json").read_text())["artifacts"]
    except (OSError, ValueError, KeyError):
        return {"bytes": 0}
    return {"bytes": sum((out / n).stat().st_size for n in names if (out / n).exists())}


def summarize(spans, n_passes):
    """Per-layer metrics: one traced set-up plus the mean of the traced passes.

    Times are inclusive span durations except ``<layer>.self_s``, which is
    each span's duration minus that of its direct children, summed over the
    layer.  ``solver.self_s`` leaves out the CG spans, which ``solver.cg_s``
    reports, so it is solve time minus CG (assembly, energy, gradient).
    """
    child_time = np.zeros(len(spans))
    under_levels = np.zeros(len(spans), dtype=bool)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            under_levels[i] = (under_levels[s.parent]
                               or spans[s.parent].name == "green.levels")
    total: dict[str, float] = {}

    def add(key, value, weight):
        total[key] = total.get(key, 0.0) + weight * value

    for i, s in enumerate(spans):
        w = 1.0 if s.phase == "setup" else 1.0 / max(n_passes, 1)
        dur = s.end - s.start
        add(s.name + "_s", dur, w)
        add(s.name + "#", 1, w)
        for k, v in s.info.items():
            add(f"{s.name}.{k}", v, w)
        layer = s.name.split(".")[0]
        if s.name != "solver.cg":
            add(layer + ".self_s", dur - child_time[i], w)
        if s.name == "solver.solve" and under_levels[i]:
            add("green.level_solves", 1, w)

    def get(key):
        return total.get(key, 0.0)

    iters = get("solver.solve.iters")
    metrics = {
        "solver.solve_s": (get("solver.solve_s"), "s"),
        "solver.solves": (get("solver.solve#"), "count"),
        "solver.irls_iters": (iters, "count"),
        "solver.backtracks": (get("solver.solve.backtracks"), "count"),
        "solver.cg_calls": (get("solver.cg#"), "count"),
        "solver.cg_iters": (get("solver.cg.iters"), "count"),
        "solver.cg_s": (get("solver.cg_s"), "s"),
        "solver.descent_ratio": (get("solver.solve.descents") / iters if iters else 0.0,
                                 "ratio"),
        "solver.nonconverged": (get("solver.solve.nonconverged"), "count"),
        "green.build_s": (get("green.build_s"), "s"),
        "green.levels_s": (get("green.levels_s"), "s"),
        "green.level_solves": (get("green.level_solves"), "count"),
        "green.trend_s": (get("green.trend_s"), "s"),
        "green.maxprinciple_s": (get("green.maxprinciple_s"), "s"),
        "cli.run_s": (get("cli.run_s"), "s"),
        "cli.artifact_bytes": (get("cli.run.bytes"), "B"),
        "spaces.build_s": (get("spaces.build_s"), "s"),
        "spaces.nodes": (get("spaces.build.nodes"), "count"),
        "spaces.edges": (get("spaces.build.edges"), "count"),
        "spaces.bytes": (get("spaces.build.bytes"), "B"),
        "spaces.distances_calls": (get("spaces.distances#"), "count"),
        "spaces.distances_s": (get("spaces.distances_s"), "s"),
        "spaces.verify_metric_s": (get("spaces.verify_metric_s"), "s"),
        "dimension.analyze_s": (get("dimension.analyze_s"), "s"),
        "dimension.pointwise_s": (get("dimension.pointwise_s"), "s"),
        "dimension.doubling_s": (get("dimension.doubling_s"), "s"),
        "profiles.radialize_s": (get("profiles.radialize_s"), "s"),
        "profiles.p_energy_s": (get("profiles.p_energy_s"), "s"),
        "profiles.shell_s": (get("profiles.shell_s"), "s"),
        "bounds.estimate_s": (get("bounds.estimate_s"), "s"),
        "bounds.calls": (get("bounds.estimate#"), "count"),
    }
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (get(layer + ".self_s"), "s")
    return metrics
