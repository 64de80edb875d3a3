"""The benchmark's span tracer (``perfbench/spans.py``) against the library.

The tracer wraps public functions at every module attribute that names
them, replaces ``solver.cg`` to count iterations, and reads
``diagnostics["backtracks"]`` and ``energy_trace`` off each solve.  A
refactor that renames or re-imports any of these breaks the traced
benchmark run; this test breaks with it.  It only reads ``perfbench/``.
"""

import importlib
from pathlib import Path

import numpy as np

from conftest import origin_node
from ringcap import build_euclidean_grid, green, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_what_the_solves_report(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    space = build_euclidean_grid(2, 0.55, 0.05)
    c = origin_node(space)
    solve = solver.solve_condenser
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = "pass"
        ring = solver.relative_capacity(space, c, 0.15, 0.5, 3.0)
        sf = green.build_green(space, space.ball(c, 0.5), c, 2.0)
        tracer.phase = None
    finally:
        tracer.uninstall()
    assert solver.solve_condenser is solve and green.solve_condenser is solve
    results = [ring, sf.result]
    metrics = {k: v for k, (v, _) in spans.summarize(tracer.spans, 1).items()}
    assert metrics["solver.solves"] == 2
    assert metrics["solver.cg_iters"] == sum(r.diagnostics["cg_iters"] for r in results) > 0
    assert metrics["solver.irls_iters"] == sum(r.iterations for r in results)
    assert metrics["solver.backtracks"] == sum(r.diagnostics["backtracks"] for r in results)
    assert metrics["solver.cg_calls"] >= metrics["solver.irls_iters"]
    assert metrics["green.build_s"] > 0 and np.isfinite(metrics["solver.self_s"])
