"""Configuration-driven command line runner.

Each subcommand reads one JSON config file, validates it strictly
(unknown keys are rejected at every level), runs a task from the library,
and writes CSV/JSON artifacts plus a ``manifest.json`` with a sha256
checksum per artifact, the echoed config, the package version, and the
wall time.  Given the same config and seed the artifact files are
byte-identical across reruns; only the manifest's wall-time field varies.

Exit status: 0 success, 2 config error (nothing written), 3 a solve
failed to converge (artifacts still written), 1 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import estimate_ring, regime, singleton_capacity_limit
from .dimension import analyze_dimension, fit_power_law
from .green import blowup_trend, build_green, check_level_sets
from .profiles import dyadic_shell_energy, log_profile, p_energy, power_profile, radialize
from .solver import relative_capacity, verify_sandwich
from .spaces import (
    build_double_cone,
    build_euclidean_grid,
    build_glued_balls,
    build_heisenberg_grid,
    load_space,
)

_FMT = "%.17g"


class ConfigError(Exception):
    """Raised for any malformed, incomplete, or out-of-range config."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FMT % float(value)
    return str(value)


def _format_column(column):
    """Strings of one column, each as ``_fmt`` would write its entry."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(_FMT.__mod__, column.tolist())
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return map(str, column.tolist())
    return map(_fmt, column)


def _write_csv(path: Path, header, columns):
    """Write equal-length ``columns`` under ``header``, one CSV row per entry.

    Float and integer arrays are formatted in one pass each; other columns
    (lists, tuples, bool or object arrays) go entry by entry through
    ``_fmt``.  The bytes are those of formatting every entry with ``_fmt``.
    """
    lines = [",".join(header)]
    lines += map(",".join, zip(*map(_format_column, columns)))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# config plumbing


def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    return dict(obj)


def _take(d, key, where, *, required=False, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise ConfigError(f"missing key '{key}' in {where}")
    return default

def _done(d, where):
    if d:
        raise ConfigError(f"unknown keys in {where}: {sorted(d)}")


def _number(value, name, *, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}' must be a number")
    v = float(value)
    if not np.isfinite(v):
        raise ConfigError(f"'{name}' must be finite")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"'{name}' must be {op} {minimum}")
    return v


def _number_list(value, name, *, minimum=None, strict=False):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{name}' must be a nonempty list of numbers")
    return [_number(v, name, minimum=minimum, strict=strict) for v in value]


def _point(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{name}' must be a coordinate list")
    return [_number(v, name) for v in value]


def build_space(spec, h_override=None):
    """Construct a space from its config mapping (strictly validated)."""
    spec = _require_mapping(spec, "space")
    kind = _take(spec, "kind", "space", required=True)
    if h_override is not None and kind in ("euclidean_grid", "heisenberg_grid",
                                           "double_cone"):
        spec["h"] = h_override
    try:
        if kind == "euclidean_grid":
            n = int(_number(_take(spec, "n", "space", required=True), "n"))
            half_extent = _number(_take(spec, "half_extent", "space", required=True),
                                  "half_extent", minimum=0, strict=True)
            h = _number(_take(spec, "h", "space", required=True), "h",
                        minimum=0, strict=True)
            alpha = _number(_take(spec, "alpha", "space", default=0.0), "alpha")
            _done(spec, "space")
            return build_euclidean_grid(n, half_extent, h, alpha=alpha)
        if kind == "heisenberg_grid":
            half_extent = _number(_take(spec, "half_extent", "space", required=True),
                                  "half_extent", minimum=0, strict=True)
            h = _number(_take(spec, "h", "space", required=True), "h",
                        minimum=0, strict=True)
            t_half = _take(spec, "t_half_extent", "space")
            t_step = _take(spec, "t_step", "space")
            with_edges = _take(spec, "with_edges", "space", default=True)
            if not isinstance(with_edges, bool):
                raise ConfigError("'with_edges' must be a boolean")
            _done(spec, "space")
            return build_heisenberg_grid(
                half_extent, h,
                t_half_extent=None if t_half is None else _number(t_half, "t_half_extent"),
                t_step=None if t_step is None else _number(t_step, "t_step"),
                with_edges=with_edges)
        if kind == "double_cone":
            n = int(_number(_take(spec, "n", "space", required=True), "n"))
            half_extent = _number(_take(spec, "half_extent", "space", required=True),
                                  "half_extent", minimum=0, strict=True)
            h = _number(_take(spec, "h", "space", required=True), "h",
                        minimum=0, strict=True)
            _done(spec, "space")
            return build_double_cone(n, half_extent, h)
        if kind == "glued_balls":
            n = int(_number(_take(spec, "n", "space", required=True), "n"))
            h = _number(_take(spec, "h", "space", required=True), "h",
                        minimum=0, strict=True)
            length = _number(_take(spec, "segment_length", "space", required=True),
                             "segment_length", minimum=0, strict=True)
            _done(spec, "space")
            return build_glued_balls(n, h, length)
        if kind == "file":
            path = _take(spec, "path", "space", required=True)
            metric = _take(spec, "metric", "space", default="path")
            _done(spec, "space")
            return load_space(path, metric=metric)
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from exc
    raise ConfigError(f"unknown space kind '{kind}'")


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _require_mapping(obj, "config")


def _center_node(space, cfg, where, default=None):
    point = _take(cfg, "center", where, default=default)
    if point is None:
        raise ConfigError(f"missing key 'center' in {where}")
    return space.nearest_node(np.asarray(_point(point, "center")))


# ---------------------------------------------------------------------------
# tasks: each returns (artifact paths, extras for the manifest, converged flag)


def _task_dimension(cfg, space, out, rng):
    r_max = _number(_take(cfg, "r_max", "task", required=True), "r_max",
                    minimum=0, strict=True)
    n_samples = int(_number(_take(cfg, "n_samples", "task", default=20),
                            "n_samples", minimum=1))
    n_radii = int(_number(_take(cfg, "n_radii", "task", default=10),
                          "n_radii", minimum=2))
    points = _take(cfg, "points", "task")
    _done(cfg, "task")
    sample = np.sort(rng.choice(space.n_nodes,
                                size=min(n_samples, space.n_nodes), replace=False))
    point_nodes = None
    if points is not None:
        if not isinstance(points, list):
            raise ConfigError("'points' must be a list of coordinate lists")
        point_nodes = [space.nearest_node(np.asarray(_point(pt, "points")))
                       for pt in points]
    try:
        report = analyze_dimension(space, sample, r_max,
                                   point_nodes=point_nodes, n_radii=n_radii)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    payload = {
        "c_doubling": report.c_doubling,
        "q_local": report.q_local,
        "q_point": {str(k): v for k, v in report.q_point.items()},
        "fit_residual": report.fit_residual,
        "lower_c": report.lower_c,
        "upper_c": report.upper_c,
        "radii": list(report.radii),
    }
    _write_json(out / "dimension.json", payload)
    _write_csv(out / "dimension_samples.csv", ["node", "radius", "ball_mass"],
               zip(*report.samples))
    return ["dimension.json", "dimension_samples.csv"], {}, True


def _validity_extras(space, center, big_r, r0):
    """Flag outer radii past the trusted range of the closed-form bounds.

    When no explicit cap is supplied, a quarter of the farthest sampled
    distance from the center stands in for it: annuli beyond that start
    feeling the boundary of the discretized patch.
    """
    if r0 is None:
        r0 = float(np.max(space.distances_from(center))) / 4.0
    if big_r <= r0 * (1.0 + 1e-12):
        return {}
    return {"validity_note":
            f"R={big_r:.6g} exceeds the trusted range R0={r0:.6g}; "
            "closed-form bounds assume the annulus sits well inside "
            "the sampled geometry"}


def _task_bounds(cfg, space, out, rng):
    center = _center_node(space, cfg, "task")
    r_list = _number_list(_take(cfg, "r_list", "task", required=True), "r_list",
                          minimum=0, strict=True)
    big_r = _number(_take(cfg, "R", "task", required=True), "R", minimum=0, strict=True)
    p_list = _number_list(_take(cfg, "p_list", "task", required=True), "p_list",
                          minimum=1, strict=True)
    q_center = _number(_take(cfg, "q_center", "task", required=True), "q_center",
                       minimum=1, strict=True)
    q_local = _take(cfg, "q_local", "task")
    q_local = q_center if q_local is None else _number(q_local, "q_local",
                                                       minimum=1, strict=True)
    r0 = _take(cfg, "R0", "task")
    r0 = None if r0 is None else _number(r0, "R0", minimum=0, strict=True)
    _done(cfg, "task")
    extras = _validity_extras(space, center, big_r, r0)
    rows = []
    for r in r_list:
        mass = space.ball_mass(center, r)
        for p in p_list:
            try:
                est = estimate_ring(r, big_r, p, q_center, mass, q_local=q_local)
            except ValueError as exc:
                raise ConfigError(f"task: {exc}") from exc
            rows.append([r, big_r, p, est.regime, est.lower, est.upper,
                         est.constants["c_lower"], est.constants["c_upper"], mass])
    _write_csv(out / "bounds.csv",
               ["r", "R", "p", "regime", "lower", "upper", "c_lower", "c_upper",
                "mass_inner"], zip(*rows))
    return ["bounds.csv"], extras, True


def _make_profile(kind, r, big_r, p, q):
    if kind == "log":
        return log_profile(r, big_r)
    if kind == "power":
        if q is None:
            raise ConfigError("power profile needs 'q'")
        return power_profile(r, big_r, p, q)
    raise ConfigError(f"unknown profile kind '{kind}'")


def _task_profile_energy(cfg, space, out, rng):
    kind = _take(cfg, "kind", "task", required=True)
    center = _center_node(space, cfg, "task")
    r = _number(_take(cfg, "r", "task", required=True), "r", minimum=0, strict=True)
    big_r = _number(_take(cfg, "R", "task", required=True), "R", minimum=0, strict=True)
    p = _number(_take(cfg, "p", "task", required=True), "p", minimum=1, strict=True)
    q = _take(cfg, "q", "task")
    q = None if q is None else _number(q, "q", minimum=1, strict=True)
    _done(cfg, "task")
    try:
        prof = _make_profile(kind, r, big_r, p, q)
        fld = radialize(space, center, prof)
        split = p_energy(space, fld, p)
        shells = dyadic_shell_energy(space, fld, center, r, big_r, p)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    _write_csv(out / "profile_energy.csv",
               ["kind", "r", "R", "p", "k0", "energy_edge", "energy_node"],
               [[kind], [r], [big_r], [p], [shells.k0], [split.edge], [split.node]])
    _write_csv(out / "profile_shells.csv", ["shell", "nodes", "energy"],
               [np.arange(shells.k0 + 1), shells.counts, shells.energies])
    return ["profile_energy.csv", "profile_shells.csv"], {}, True


def _solve_params(cfg):
    tol = _number(_take(cfg, "tol", "task", default=1e-6), "tol", minimum=0, strict=True)
    max_iter = int(_number(_take(cfg, "max_iter", "task", default=100),
                           "max_iter", minimum=1))
    return tol, max_iter


def _solve_record(res):
    """What one solve did, for solve.json and the manifest."""
    return {"iterations": res.iterations,
            "cg_iters": res.diagnostics["cg_iters"],
            "stop_reason": res.diagnostics["stop_reason"]}


def _task_solve(cfg, space, out, rng):
    center = _center_node(space, cfg, "task")
    r = _number(_take(cfg, "r", "task", required=True), "r", minimum=0, strict=True)
    big_r = _number(_take(cfg, "R", "task", required=True), "R", minimum=0, strict=True)
    p = _number(_take(cfg, "p", "task", required=True), "p", minimum=1, strict=True)
    tol, max_iter = _solve_params(cfg)
    field_dump = _take(cfg, "field_dump", "task", default=False)
    if not isinstance(field_dump, bool):
        raise ConfigError("'field_dump' must be a boolean")
    _done(cfg, "task")
    try:
        res = relative_capacity(space, center, r, big_r, p, tol=tol, max_iter=max_iter)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    _write_json(out / "solve.json", {
        "value": res.value,
        "residual": res.residual, "converged": res.converged,
        "plateau_nodes": res.diagnostics["plateau_nodes"],
        "unreachable_nodes": res.diagnostics["unreachable_nodes"],
        **_solve_record(res),
    })
    artifacts = ["solve.json"]
    if field_dump:
        _write_csv(out / "field.csv", ["id", "u"],
                   [np.arange(space.n_nodes), res.field.u])
        artifacts.append("field.csv")
    return artifacts, {}, res.converged


def _task_sandwich(cfg, space, out, rng):
    center = _center_node(space, cfg, "task")
    r = _number(_take(cfg, "r", "task", required=True), "r", minimum=0, strict=True)
    big_r = _number(_take(cfg, "R", "task", required=True), "R", minimum=0, strict=True)
    p = _number(_take(cfg, "p", "task", required=True), "p", minimum=1, strict=True)
    q_center = _number(_take(cfg, "q_center", "task", required=True), "q_center",
                       minimum=1, strict=True)
    q_local = _take(cfg, "q_local", "task")
    q_local = None if q_local is None else _number(q_local, "q_local",
                                                   minimum=1, strict=True)
    tol, _ = _solve_params(cfg)
    _done(cfg, "task")
    try:
        rep = verify_sandwich(space, center, r, big_r, p, q_center,
                              q_local=q_local, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    _write_json(out / "sandwich.json", {
        "regime": rep.regime, "capacity": rep.capacity,
        "profile_energy": rep.profile_energy, "lower": rep.lower,
        "upper": rep.upper, "admissible_ok": rep.admissible_ok,
        "ratio_lower": rep.ratio_lower, "ratio_upper": rep.ratio_upper,
    })
    return ["sandwich.json"], {}, rep.result.converged


def _task_green(cfg, space_spec, out, rng):
    space = build_space(dict(space_spec))
    center = _center_node(space, cfg, "task")
    big_r = _number(_take(cfg, "R", "task", required=True), "R", minimum=0, strict=True)
    p = _number(_take(cfg, "p", "task", required=True), "p", minimum=1, strict=True)
    rho = _take(cfg, "rho", "task")
    rho = None if rho is None else _number(rho, "rho", minimum=0, strict=True)
    fractions = _take(cfg, "level_fractions", "task",
                      default=[[0.0, 1.0], [0.1, 0.5], [0.2, 0.8],
                               [0.3, 0.6], [0.5, 0.9]])
    refine = _take(cfg, "refine_h", "task")
    q_center = _take(cfg, "q_center", "task")
    tol, _ = _solve_params(cfg)
    _done(cfg, "task")
    if not isinstance(fractions, list) or not all(
            isinstance(pr, list) and len(pr) == 2 for pr in fractions):
        raise ConfigError("'level_fractions' must be a list of [a, b] pairs")
    if refine is not None and q_center is None:
        raise ConfigError("'refine_h' requires 'q_center'")
    try:
        sf = build_green(space, space.ball(center, big_r), center, p,
                         rho=rho, tol=tol)
        pairs = [(a * sf.max_value, b * sf.max_value) for a, b in fractions]
        levels_rep = check_level_sets(space, sf, pairs, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    _write_csv(out / "green_field.csv", ["id", "G"],
               [np.arange(space.n_nodes), sf.values])
    _write_csv(out / "green_levels.csv", ["a", "b", "capacity", "ratio"],
               zip(*[["" if v is None else v for v in entry]
                     for entry in levels_rep.entries]))
    artifacts = ["green_field.csv", "green_levels.csv"]
    converged = sf.result.converged
    if refine is not None:
        hs = _number_list(refine, "refine_h", minimum=0, strict=True)
        levels = []
        for h in hs:
            sp = build_space(dict(space_spec), h_override=h)
            c = sp.nearest_node(space.coords[center])
            levels.append((sp, sp.ball(c, big_r), c))
        try:
            trend = blowup_trend(levels, p, _number(q_center, "q_center"),
                                 tol=tol)
        except ValueError as exc:
            raise ConfigError(f"task: {exc}") from exc
        _write_json(out / "green_trend.json", {
            "regime": trend.regime,
            "resolutions": list(trend.resolutions),
            "max_values": list(trend.max_values),
            "power_slope": trend.power_slope,
            "log_slope": trend.log_slope,
            "log_residual": trend.log_residual,
            "bounded_change": trend.bounded_change,
        })
        artifacts.append("green_trend.json")
    extras = {
        "level_notices": levels_rep.notices,
        "pole_solve": _solve_record(sf.result),
        "level_solves": [None if res is None else _solve_record(res)
                         for res in levels_rep.results],
    }
    return artifacts, extras, converged


def _task_singleton(cfg, space, out, rng):
    center = _center_node(space, cfg, "task")
    big_r = _number(_take(cfg, "R", "task", required=True), "R", minimum=0, strict=True)
    r_list = _number_list(_take(cfg, "r_list", "task", required=True), "r_list",
                          minimum=0, strict=True)
    p = _number(_take(cfg, "p", "task", required=True), "p", minimum=1, strict=True)
    tol, _ = _solve_params(cfg)
    _done(cfg, "task")
    try:
        rep = singleton_capacity_limit(space, center, p, big_r, r_list, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    _write_csv(out / "singleton.csv", ["r", "capacity"],
               [rep.radii, rep.capacities])
    _write_json(out / "singleton.json", {
        "limit_estimate": rep.limit_estimate,
        "last_relative_change": rep.last_relative_change,
        "decreasing": rep.decreasing,
    })
    return ["singleton.csv", "singleton.json"], {}, True


def _task_regime_sweep(cfg, space, out, rng):
    center = _center_node(space, cfg, "task")
    big_r = _number(_take(cfg, "R", "task", required=True), "R", minimum=0, strict=True)
    r_list = _number_list(_take(cfg, "r_list", "task", required=True), "r_list",
                          minimum=0, strict=True)
    p_list = _number_list(_take(cfg, "p_list", "task", required=True), "p_list",
                          minimum=1, strict=True)
    q_center = _number(_take(cfg, "q_center", "task", required=True), "q_center",
                       minimum=1, strict=True)
    q_local = _take(cfg, "q_local", "task")
    q_local = q_center if q_local is None else _number(q_local, "q_local",
                                                       minimum=1, strict=True)
    r0 = _take(cfg, "R0", "task")
    r0 = None if r0 is None else _number(r0, "R0", minimum=0, strict=True)
    tol, max_iter = _solve_params(cfg)
    _done(cfg, "task")
    extras = _validity_extras(space, center, big_r, r0)
    rows, all_conv = [], True
    for p in p_list:
        for r in r_list:
            try:
                est = estimate_ring(r, big_r, p, q_center,
                                    space.ball_mass(center, r), q_local=q_local)
                res = relative_capacity(space, center, r, big_r, p,
                                        tol=tol, max_iter=max_iter)
            except ValueError as exc:
                raise ConfigError(f"task: {exc}") from exc
            all_conv = all_conv and res.converged
            rows.append([r, big_r, p, est.regime, res.value, est.lower, est.upper,
                        res.iterations, res.converged])
    _write_csv(out / "sweep.csv",
               ["r", "R", "p", "regime", "capacity", "lower", "upper",
                "iterations", "converged"], zip(*rows))
    return ["sweep.csv"], extras, all_conv


def fit_exponent(x, y):
    """Least-squares log-log slope for acceptance-style scaling checks.

    Requires at least four points; returns the fit and a one-line
    confidence note built from the maximum relative residual.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError("need at least four points to fit an exponent")
    fit = fit_power_law(x, y)
    note = f"max relative residual {fit.residual:.3g} over {x.size} points"
    return fit, note


def _task_fit(cfg, space, out, rng):
    csv_path = _take(cfg, "csv", "task", required=True)
    x_col = _take(cfg, "x_column", "task", required=True)
    y_col = _take(cfg, "y_column", "task", required=True)
    _done(cfg, "task")
    try:
        lines = Path(csv_path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read csv: {exc}") from exc
    header = lines[0].split(",")
    if x_col not in header or y_col not in header:
        raise ConfigError(f"columns {x_col!r}, {y_col!r} not both in {header}")
    xi, yi = header.index(x_col), header.index(y_col)
    try:
        data = [(float(ln.split(",")[xi]), float(ln.split(",")[yi]))
                for ln in lines[1:] if ln.strip()]
        fit, note = fit_exponent([d[0] for d in data], [d[1] for d in data])
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    _write_json(out / "fit.json", {
        "slope": fit.slope, "intercept": fit.intercept,
        "residual": fit.residual, "n_points": len(data), "note": note,
    })
    return ["fit.json"], {}, True


_TASKS = {
    "dimension": (_task_dimension, True),
    "bounds": (_task_bounds, True),
    "profile-energy": (_task_profile_energy, True),
    "solve": (_task_solve, True),
    "sandwich": (_task_sandwich, True),
    "green": (_task_green, False),   # builds its own spaces (refinement levels)
    "singleton-limit": (_task_singleton, True),
    "regime-sweep": (_task_regime_sweep, True),
    "fit": (_task_fit, None),        # no space at all
}


def run(task, config_path, out_dir, seed=None, quiet=False) -> int:
    """Execute one subcommand; returns the process exit status."""
    started = time.monotonic()
    try:
        config = _load_config(config_path)
        work = dict(config)
        space_spec = _take(work, "space", "config")
        task_cfg = _require_mapping(_take(work, "task", "config", default={}), "task")
        cfg_seed = _take(work, "seed", "config", default=0)
        _done(work, "config")
        if seed is None:
            seed = int(_number(cfg_seed, "seed", minimum=0))
        fn, needs_space = _TASKS[task]
        if needs_space is None:
            handle = None
        elif needs_space:
            if space_spec is None:
                raise ConfigError("missing key 'space' in config")
            handle = build_space(space_spec)
        else:
            if space_spec is None:
                raise ConfigError("missing key 'space' in config")
            handle = space_spec
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        artifacts, extras, converged = fn(task_cfg, handle, out, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "task": task,
        "version": __version__,
        "seed": seed,
        "config": config,
        "artifacts": {name: _sha256(out / name) for name in artifacts},
        "wall_time_s": time.monotonic() - started,
    }
    manifest.update(extras)
    _write_json(out / "manifest.json", manifest)
    if not quiet:
        for name in artifacts:
            print(out / name)
    if not converged:
        if not quiet:
            print("warning: a solve did not converge", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringcap",
        description="Capacity, dimension, and singular-function experiments "
                    "on discrete metric measure spaces.")
    sub = parser.add_subparsers(dest="task", required=True)
    for name in _TASKS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
        sp.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run(args.task, args.config, args.out, seed=args.seed, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
