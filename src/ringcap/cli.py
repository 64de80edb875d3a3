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
from .bounds import estimate_ring, regime
from .dimension import analyze_dimension, fit_power_law
from .green import blowup_trend, build_green, check_level_sets
from .profiles import dyadic_shell_energy, log_profile, p_energy, power_profile, radialize
from .solver import relative_capacity, singleton_capacity_limit, verify_sandwich
from .spaces import (
    _FMT,
    _check_dimension,
    _check_exponent,
    _check_finite,
    _check_positive,
    build_double_cone,
    build_euclidean_grid,
    build_glued_balls,
    build_heisenberg_grid,
    load_space,
)

CSV_BLOCK = 1 << 12  # rows that _write_csv formats and writes at a time


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


def _write_csv(path: Path, header, columns):
    """Write equal-length ``columns`` under ``header``, one CSV row per entry.

    ``columns`` is a sequence of sliceable columns (arrays, lists, tuples;
    ``zip(*rows)`` also works).  Rows are formatted and written in blocks
    of ``CSV_BLOCK``, each column sliced to the block first, so no
    full-length list of numbers or strings is ever held.  Each column sets
    one field of a row template: ``_FMT`` for a float array, ``%d`` for an
    integer array, and ``%s`` for any other column (lists, tuples, bool or
    object arrays), whose entries go through ``_fmt`` first.  A block is
    one ``%`` of the template, repeated per row, over the block's entries
    interleaved row by row.  The bytes are those of formatting every entry
    with ``_fmt``.
    """
    columns = list(columns)
    n_rows = min(map(len, columns), default=0)
    # a float or integer array's field; None sends a column through _fmt
    fields = [{"f": _FMT, "i": "%d", "u": "%d"}.get(col.dtype.kind)
              if isinstance(col, np.ndarray) else None for col in columns]
    row = ",".join(field or "%s" for field in fields) + "\n"
    width = len(columns)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK):
            stop = min(start + CSV_BLOCK, n_rows)
            flat = [None] * ((stop - start) * width)  # the block's entries, row by row
            for k, (col, field) in enumerate(zip(columns, fields)):
                part = col[start:stop]
                flat[k::width] = part.tolist() if field else map(_fmt, part)
            f.write(row * (stop - start) % tuple(flat))


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# config plumbing

_REQUIRED = object()


def _number(value, name, rule=_check_finite):
    """A JSON number that passes ``rule``, one of the shared input rules."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}' must be a number")
    v = float(value)
    rule(v, f"'{name}'")
    return v


def _node(value, name, space):
    """Nearest node to a coordinate list of the space's dimension."""
    dim = space.coords.shape[1]
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(f"'{name}' must be a list of {dim} coordinates")
    return space.nearest_node(np.asarray([_number(v, name) for v in value]))


class _Keys:
    """One config mapping, read key by key with a type check per read.

    Each reader removes its key and checks its value: its JSON type here,
    a float's range by an input rule of ``spaces`` (finite by default), and
    an integer count, which no rule owns, by its ``minimum``.  A key is
    required unless a default is given; with default None, absent or null
    reads as None.  ``done`` rejects the keys left unread.
    """

    def __init__(self, obj, where):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where} must be a mapping")
        self.values = dict(obj)
        self.where = where

    def take(self, key, default=_REQUIRED):
        if key in self.values:
            return self.values.pop(key)
        if default is _REQUIRED:
            raise ConfigError(f"missing key '{key}' in {self.where}")
        return default

    def done(self):
        if self.values:
            raise ConfigError(f"unknown keys in {self.where}: {sorted(self.values)}")

    def _read(self, key, default, check):
        value = self.take(key, default)
        return None if value is None and default is None else check(value)

    def number(self, key, default=_REQUIRED, rule=_check_finite):
        return self._read(key, default, lambda v: _number(v, key, rule))

    def positive(self, key, default=_REQUIRED):
        return self.number(key, default, _check_positive)

    def exponent(self, key, default=_REQUIRED):
        return self.number(key, default, _check_exponent)

    def integer(self, key, default=_REQUIRED, *, minimum):
        """An integral number (2.0 reads as 2) that is at least ``minimum``."""
        def check(value):
            v = _number(value, key)
            if not v.is_integer() or v < minimum:
                raise ConfigError(f"'{key}' must be an integer >= {minimum}")
            return int(v)
        return self._read(key, default, check)

    def instance(self, key, cls, default=_REQUIRED):
        """A value of type ``cls``: a boolean flag or a string such as a path."""
        def check(value):
            if not isinstance(value, cls):
                raise ConfigError(f"'{key}' must be a {cls.__name__}")
            return value
        return self._read(key, default, check)

    def numbers(self, key, default=_REQUIRED, rule=_check_finite):
        """A nonempty list of numbers, each checked as by ``number``."""
        def check(value):
            if not isinstance(value, list) or not value:
                raise ConfigError(f"'{key}' must be a nonempty list of numbers")
            return [_number(v, key, rule) for v in value]
        return self._read(key, default, check)

    def node(self, key, space):
        """Nearest node to a required coordinate point."""
        return _node(self.take(key), key, space)


def build_space(spec, h_override=None):
    """Construct a space from its config mapping (strictly validated)."""
    keys = _Keys(spec, "space")
    kind = keys.take("kind")
    try:
        if kind == "file":
            path = keys.instance("path", str)
            metric = keys.instance("metric", str, "path")
            keys.done()
            return load_space(path, metric=metric)
        if kind not in ("euclidean_grid", "heisenberg_grid", "double_cone",
                        "glued_balls"):
            raise ConfigError(f"unknown space kind '{kind}'")
        if h_override is not None:
            keys.values["h"] = h_override
        n = None if kind == "heisenberg_grid" else keys.integer("n", minimum=1)
        half_extent = None if kind == "glued_balls" else keys.positive("half_extent")
        h = keys.positive("h")
        if kind == "euclidean_grid":
            alpha = keys.number("alpha", 0.0)
            keys.done()
            return build_euclidean_grid(n, half_extent, h, alpha=alpha)
        if kind == "heisenberg_grid":
            t_half = keys.number("t_half_extent", None)
            t_step = keys.number("t_step", None)
            with_edges = keys.instance("with_edges", bool, True)
            keys.done()
            return build_heisenberg_grid(half_extent, h, t_half_extent=t_half,
                                         t_step=t_step, with_edges=with_edges)
        if kind == "double_cone":
            keys.done()
            return build_double_cone(n, half_extent, h)
        length = keys.positive("segment_length")
        keys.done()
        return build_glued_balls(n, h, length)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"space: {exc}") from exc


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _ring(task, space):
    """The center, r, R and p of one ring."""
    return (task.node("center", space), task.positive("r"), task.positive("R"),
            task.exponent("p"))


def _ring_table(task, space):
    """The center of a table of rings, the envelopes of every ring (a row
    per r, one ball mass each), and the manifest's validity note for its R
    and R0.  A ring without envelopes is refused here, before any solve."""
    center = task.node("center", space)
    r_list = task.numbers("r_list", rule=_check_positive)
    big_r = task.positive("R")
    p_list = task.numbers("p_list", rule=_check_exponent)
    q_center = task.number("q_center", rule=_check_dimension)
    q_local = task.number("q_local", None, _check_dimension)
    extras = _validity_extras(space, center, big_r, task.positive("R0", None))
    masses = [space.ball_mass(center, r) for r in r_list]
    table = [[estimate_ring(r, big_r, p, q_center, mass, q_local=q_local)
              for p in p_list] for r, mass in zip(r_list, masses)]
    return center, table, extras


def _tolerance(task):
    return task.positive("tol", 1e-6)


def _solve_params(task):
    """Tolerance and iteration cap of the tasks that pass both to the solver."""
    return _tolerance(task), task.integer("max_iter", 100, minimum=1)


# ---------------------------------------------------------------------------
# tasks: each returns (artifact paths, extras for the manifest, converged flag);
# ``run`` reports a ValueError from the library as a config error


def _task_dimension(task, space, out, rng):
    r_max = task.positive("r_max")
    n_samples = task.integer("n_samples", 20, minimum=1)
    n_radii = task.integer("n_radii", 10, minimum=2)
    points = task.take("points", None)
    task.done()
    point_nodes = None
    if points is not None:
        if not isinstance(points, list):
            raise ConfigError("'points' must be a list of coordinate lists")
        point_nodes = [_node(pt, "points", space) for pt in points]
    sample = np.sort(rng.choice(space.n_nodes,
                                size=min(n_samples, space.n_nodes), replace=False))
    report = analyze_dimension(space, sample, r_max,
                               point_nodes=point_nodes, n_radii=n_radii)
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


def _task_bounds(task, space, out, rng):
    _, table, extras = _ring_table(task, space)
    task.done()
    rows = [[est.r, est.R, est.p, est.regime, est.lower, est.upper,
             est.constants["c_lower"], est.constants["c_upper"], est.mass_inner]
            for row in table for est in row]
    _write_csv(out / "bounds.csv",
               ["r", "R", "p", "regime", "lower", "upper", "c_lower", "c_upper",
                "mass_inner"], zip(*rows))
    return ["bounds.csv"], extras, True


def _make_profile(kind, r, big_r, p, q):
    if kind == "log":
        if q is not None:
            raise ConfigError("'q' applies to the power profile only")
        return log_profile(r, big_r)
    if kind == "power":
        if q is None:
            raise ConfigError("power profile needs 'q'")
        return power_profile(r, big_r, p, q)
    raise ConfigError(f"unknown profile kind '{kind}'")


def _task_profile_energy(task, space, out, rng):
    kind = task.take("kind")
    center, r, big_r, p = _ring(task, space)
    q = task.number("q", None)
    task.done()
    prof = _make_profile(kind, r, big_r, p, q)
    fld = radialize(space, center, prof)
    split = p_energy(space, fld, p)
    shells = dyadic_shell_energy(space, fld, center, r, big_r, p)
    _write_csv(out / "profile_energy.csv",
               ["kind", "r", "R", "p", "k0", "energy_edge", "energy_node"],
               [[kind], [r], [big_r], [p], [shells.k0], [split.edge], [split.node]])
    _write_csv(out / "profile_shells.csv", ["shell", "nodes", "energy"],
               [np.arange(shells.k0 + 1), shells.counts, shells.energies])
    return ["profile_energy.csv", "profile_shells.csv"], {}, True


def _solve_record(res):
    """What one solve did, for solve.json and the manifest."""
    return {"iterations": res.iterations,
            "cg_iters": res.diagnostics["cg_iters"],
            "stop_reason": res.diagnostics["stop_reason"],
            "preconditioner": res.diagnostics["preconditioner"]}


def _task_solve(task, space, out, rng):
    center, r, big_r, p = _ring(task, space)
    tol, max_iter = _solve_params(task)
    field_dump = task.instance("field_dump", bool, False)
    task.done()
    res = relative_capacity(space, center, r, big_r, p, tol=tol, max_iter=max_iter)
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
                   [np.arange(space.n_nodes), res.u])
        artifacts.append("field.csv")
    return artifacts, {}, res.converged


def _task_sandwich(task, space, out, rng):
    center, r, big_r, p = _ring(task, space)
    q_center = task.number("q_center", rule=_check_dimension)
    q_local = task.number("q_local", None, _check_dimension)
    tol = _tolerance(task)
    task.done()
    rep = verify_sandwich(space, center, r, big_r, p, q_center,
                          q_local=q_local, tol=tol)
    _write_json(out / "sandwich.json", {
        "regime": rep.regime, "capacity": rep.capacity,
        "profile_energy": rep.profile_energy, "lower": rep.lower,
        "upper": rep.upper, "admissible_ok": rep.admissible_ok,
        "ratio_lower": rep.ratio_lower, "ratio_upper": rep.ratio_upper,
    })
    return ["sandwich.json"], {}, rep.result.converged


def _level_fractions(value):
    """The (a, b) level pairs of a green task, as fractions of max G."""
    if isinstance(value, list) and all(
            isinstance(pair, list) and len(pair) == 2 for pair in value):
        pairs = [[_number(v, "level_fractions") for v in pair] for pair in value]
        if all(0.0 <= a < b for a, b in pairs):
            return pairs
    raise ConfigError("'level_fractions' must be a list of [a, b] pairs "
                      "with 0 <= a < b")


def _refinement_trend(space_spec, point, big_r, p, q_center, hs, tol):
    """The green_trend.json record of the pole value over grid steps ``hs``,
    and whether every pole solve converged."""
    levels = []
    for h in hs:
        sp = build_space(space_spec, h_override=h)
        c = sp.nearest_node(point)
        levels.append((sp, sp.ball(c, big_r), c))
    trend = blowup_trend(levels, p, q_center, tol=tol)
    return {
        "regime": trend.regime,
        "resolutions": list(trend.resolutions),
        "max_values": list(trend.max_values),
        "power_slope": trend.power_slope,
        "log_slope": trend.log_slope,
        "log_residual": trend.log_residual,
        "bounded_change": trend.bounded_change,
    }, bool(trend.converged.all())


def _task_green(task, space_spec, out, rng):
    space = build_space(space_spec)
    center = task.node("center", space)
    big_r = task.positive("R")
    p = task.exponent("p")
    rho = task.positive("rho", None)
    fractions = _level_fractions(task.take(
        "level_fractions",
        [[0.0, 1.0], [0.1, 0.5], [0.2, 0.8], [0.3, 0.6], [0.5, 0.9]]))
    refine = task.numbers("refine_h", None, _check_positive)
    q_center = task.number("q_center", None, _check_dimension)
    tol = _tolerance(task)
    task.done()
    if refine is not None and q_center is None:
        raise ConfigError("'refine_h' requires 'q_center'")
    sf = build_green(space, space.ball(center, big_r), center, p, rho=rho, tol=tol)
    pairs = [(a * sf.max_value, b * sf.max_value) for a, b in fractions]
    levels_rep = check_level_sets(space, sf, pairs, tol=tol)
    trend, trend_converged = (None, True) if refine is None else _refinement_trend(
        space_spec, space.coords[center], big_r, p, q_center, refine, tol)
    _write_csv(out / "green_field.csv", ["id", "G"],
               [np.arange(space.n_nodes), sf.values])
    _write_csv(out / "green_levels.csv", ["a", "b", "capacity", "ratio"],
               zip(*[["" if v is None else v for v in entry]
                     for entry in levels_rep.entries]))
    artifacts = ["green_field.csv", "green_levels.csv"]
    if trend is not None:
        _write_json(out / "green_trend.json", trend)
        artifacts.append("green_trend.json")
    extras = {
        "level_notices": levels_rep.notices,
        "pole_solve": _solve_record(sf.result),
        "level_solves": [None if res is None else _solve_record(res)
                         for res in levels_rep.results],
    }
    converged = trend_converged and sf.result.converged and all(
        res.converged for res in levels_rep.results if res is not None)
    return artifacts, extras, converged


def _task_singleton(task, space, out, rng):
    center = task.node("center", space)
    big_r = task.positive("R")
    r_list = task.numbers("r_list", rule=_check_positive)
    p = task.exponent("p")
    tol = _tolerance(task)
    task.done()
    rep = singleton_capacity_limit(space, center, p, big_r, r_list, tol=tol)
    _write_csv(out / "singleton.csv", ["r", "capacity"],
               [rep.radii, rep.capacities])
    _write_json(out / "singleton.json", {
        "limit_estimate": rep.limit_estimate,
        "last_relative_change": rep.last_relative_change,
        "decreasing": rep.decreasing,
    })
    return ["singleton.csv", "singleton.json"], {}, bool(rep.converged.all())


def _task_regime_sweep(task, space, out, rng):
    center, table, extras = _ring_table(task, space)
    tol, max_iter = _solve_params(task)
    task.done()
    rows, all_conv = [], True
    for column in zip(*table):  # the rings of one p, in p_list order
        for est in column:
            res = relative_capacity(space, center, est.r, est.R, est.p,
                                    tol=tol, max_iter=max_iter)
            all_conv = all_conv and res.converged
            rows.append([est.r, est.R, est.p, est.regime, res.value, est.lower,
                         est.upper, res.iterations, res.converged])
    _write_csv(out / "sweep.csv",
               ["r", "R", "p", "regime", "capacity", "lower", "upper",
                "iterations", "converged"], zip(*rows))
    return ["sweep.csv"], extras, all_conv


def _task_fit(task, space, out, rng):
    csv_path = task.instance("csv", str)
    x_col = task.take("x_column")
    y_col = task.take("y_column")
    task.done()
    try:
        lines = Path(csv_path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read csv: {exc}") from exc
    header = lines[0].split(",") if lines else []
    if x_col not in header or y_col not in header:
        raise ConfigError(f"columns {x_col!r}, {y_col!r} not both in {header}")
    xi, yi = header.index(x_col), header.index(y_col)
    rows = [ln.split(",") for ln in lines[1:] if ln.strip()]
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"every csv row needs the {len(header)} fields of the header")
    if len(rows) < 4:
        raise ConfigError("need at least four points to fit an exponent")
    fit = fit_power_law([float(row[xi]) for row in rows],
                        [float(row[yi]) for row in rows])
    _write_json(out / "fit.json", {
        "slope": fit.slope, "intercept": fit.intercept,
        "residual": fit.residual, "n_points": len(rows),
        "note": f"max relative residual {fit.residual:.3g} over {len(rows)} points",
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
        if task not in _TASKS:
            raise ConfigError(f"unknown task '{task}'")
        config = _load_config(config_path)
        top = _Keys(config, "config")
        space_spec = top.take("space", None)
        task_keys = _Keys(top.take("task", {}), "task")
        cfg_seed = top.integer("seed", 0, minimum=0)
        top.done()
        seed = cfg_seed if seed is None else seed
        fn, needs_space = _TASKS[task]
        if needs_space is not None and space_spec is None:
            raise ConfigError("missing key 'space' in config")
        handle = build_space(space_spec) if needs_space else space_spec
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        try:
            artifacts, extras, converged = fn(task_keys, handle, out, rng)
        except ValueError as exc:
            raise ConfigError(f"task: {exc}") from exc
    except (ConfigError, ValueError) as exc:  # a ValueError here: a rule on 'seed'
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
