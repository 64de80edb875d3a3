"""End-to-end runs of the command-line tasks on small spaces."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ringcap import cli, green, solver
from ringcap.profiles import p_energy, power_profile, radialize
from ringcap.spaces import build_euclidean_grid, save_space


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def grid_cfg(task, n=2, half=0.55, h=0.05, **extra):
    return {"space": {"kind": "euclidean_grid", "n": n,
                      "half_extent": half, "h": h},
            "task": dict(task, **extra)}


def dim_cfg():
    # the pointwise analysis insists on a decade of radii above 50 grid
    # steps, so this needs the finer spacing
    return grid_cfg({"r_max": 0.52, "n_samples": 5, "n_radii": 6}, h=0.01)


def test_dimension_writes_artifacts_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, dim_cfg())
    out = tmp_path / "out"
    rc = cli.main(["dimension", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    man = read_manifest(out)
    assert man["task"] == "dimension" and man["seed"] == 0
    for name, digest in man["artifacts"].items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    report = json.loads((out / "dimension.json").read_text())
    assert report["q_local"] == pytest.approx(2.0, abs=0.3)


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, dim_cfg())
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["dimension", "--config", cfg,
                         "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    man_a, man_b = (read_manifest(o) for o in outs)
    assert man_a["artifacts"] == man_b["artifacts"]
    for name in man_a["artifacts"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    man_a.pop("wall_time_s"), man_b.pop("wall_time_s")
    assert man_a == man_b


def test_column_writer_matches_the_row_writer(tmp_path):
    floats = [-0.0, float("nan"), float("inf"), 1e-300, 3.0, 0.1]
    columns = [
        np.array([True, False, True, True, False, True]),
        [True, False, 0, 1, 7, -3],
        np.arange(-2, 4, dtype=np.int64),
        list(np.arange(6, dtype=np.int64)),
        np.array(floats),
        floats,
        [np.float64(v) for v in floats],
        np.array(floats, dtype=np.float32),
        ["a", "", "x y", 2.5, None, np.int32(4)],
    ]
    header = [f"c{k}" for k in range(len(columns))]
    cli._write_csv(tmp_path / "cols.csv", header, columns)
    # the writer it replaced formatted every entry of every row with _fmt
    rows = [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]
    expected = "\n".join([",".join(header)] + rows) + "\n"
    assert (tmp_path / "cols.csv").read_bytes() == expected.encode()
    cli._write_csv(tmp_path / "empty.csv", ["a", "b"], zip(*[]))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_block_writer_matches_the_row_writer_across_blocks(tmp_path):
    n = 3 * cli.CSV_BLOCK + 1
    ids = np.arange(n, dtype=np.int64) - 7
    values = np.random.default_rng(3).standard_normal(n)
    edge = [0, 1, 2, 3, cli.CSV_BLOCK - 1, cli.CSV_BLOCK, n - 1]
    values[edge] = [-0.0, np.nan, np.inf, 1e-300, -np.inf, 5e-324, 0.1]
    # rows of mixed entries, passed as zip(*rows) like green_levels.csv
    rows = [(int(k), float(v), "" if k % 5 else "x") for k, v in zip(ids, values)]
    for name, header, columns, expected_rows in (
            ("arrays", ["id", "u"], [ids, values], zip(ids, values)),
            ("rows", ["a", "b", "c"], zip(*rows), rows)):
        path = tmp_path / f"{name}.csv"
        cli._write_csv(path, header, columns)
        lines = [",".join(header)]
        lines += [",".join(cli._fmt(v) for v in row) for row in expected_rows]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_writer_holds_far_less_than_the_file(tmp_path):
    # a field CSV of 200,000 rows is written block by block: the writer
    # never holds a full-length list of numbers or strings
    n = 200_000
    path = tmp_path / "field.csv"
    ids, values = np.arange(n), np.random.default_rng(4).random(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._write_csv(path, ["id", "u"], [ids, values])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size


def test_seed_flag_changes_the_sample(tmp_path):
    cfg = write_cfg(tmp_path, dim_cfg())
    blobs = {}
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert cli.main(["dimension", "--config", cfg, "--out", str(out),
                         "--seed", seed, "--quiet"]) == 0
        assert read_manifest(out)["seed"] == int(seed)
        blobs[seed] = (out / "dimension_samples.csv").read_bytes()
    assert blobs["1"] != blobs["2"]


@pytest.mark.parametrize("where,key", [("task", "bogus"), ("space", "bogus"),
                                       ("", "bogus")])
def test_unknown_keys_are_rejected(tmp_path, capsys, where, key):
    cfg_obj = dim_cfg()
    (cfg_obj[where] if where else cfg_obj)[key] = 1
    out = tmp_path / "out"
    rc = cli.main(["dimension", "--config", write_cfg(tmp_path, cfg_obj),
                   "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_bad_value_types_are_rejected(tmp_path):
    cfg = write_cfg(tmp_path, grid_cfg({"r_max": "big"}))
    assert cli.main(["dimension", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


def test_missing_and_malformed_configs(tmp_path):
    assert cli.main(["dimension", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["dimension", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        cli.main(["dimension"])  # --config is required


def assert_rejected(tmp_path, task, cfg_obj):
    """The run exits 2 with a config error and writes no file."""
    out = tmp_path / "out"
    assert cli.run(task, write_cfg(tmp_path, cfg_obj), str(out), quiet=True) == 2
    assert not out.exists() or not any(out.iterdir())


def test_an_unknown_task_is_a_config_error(tmp_path, capsys):
    assert_rejected(tmp_path, "bogus", dim_cfg())
    assert not (tmp_path / "out").exists()
    assert "config error: unknown task 'bogus'" in capsys.readouterr().err


def line_cfg(task, h=0.04):
    return {"space": {"kind": "euclidean_grid", "n": 1, "half_extent": 1.2,
                      "h": h},
            "task": task}


@pytest.mark.parametrize("task,cfg_obj", [
    # a center of the wrong dimension
    ("solve", grid_cfg({"center": [0.0], "r": 0.1, "R": 0.4, "p": 2.0})),
    ("bounds", grid_cfg({"center": [0.0, 0.0, 0.0], "r_list": [0.1], "R": 0.4,
                         "p_list": [2.0], "q_center": 2.0})),
    ("dimension", grid_cfg({"r_max": 0.5, "points": [[0.0, 0.0], [0.1]]})),
    # a space file that does not exist
    ("bounds", {"space": {"kind": "file", "path": "no/such/space.txt"},
                "task": {"center": [0.0, 0.0], "r_list": [0.1], "R": 0.4,
                         "p_list": [2.0], "q_center": 2.0}}),
    ("bounds", {"space": {"kind": "file", "path": ["space.txt"]},
                "task": {"center": [0.0, 0.0], "r_list": [0.1], "R": 0.4,
                         "p_list": [2.0], "q_center": 2.0}}),
    # level fractions that are not numbers, or not 0 <= a < b
    ("green", line_cfg({"center": [0.0], "R": 1.0, "p": 2.0,
                        "level_fractions": [[0.0, 1.0], ["a", "b"]]})),
    ("green", line_cfg({"center": [0.0], "R": 1.0, "p": 2.0,
                        "level_fractions": [[0.0, 1.0], [0.5, 0.5]]})),
    ("green", line_cfg({"center": [0.0], "R": 1.0, "p": 2.0,
                        "level_fractions": [[-0.1, 0.5]]})),
    # an exponent that is not a number, with and without a refinement ladder
    ("green", line_cfg({"center": [0.0], "R": 1.0, "p": 2.0, "q_center": "two"})),
    ("green", line_cfg({"center": [0.0], "R": 1.0, "p": 2.0, "q_center": "two",
                        "refine_h": [0.04, 0.02, 0.01]})),
    # a later ring with r >= R, checked before the first ring's solve
    ("regime-sweep", grid_cfg({"center": [0.0, 0.0], "r_list": [0.1, 0.5], "R": 0.4,
                               "p_list": [2.0], "q_center": 2.0})),
    # below the critical exponent with q_local = p: no finite upper envelope
    ("bounds", grid_cfg({"center": [0.0, 0.0], "r_list": [0.1], "R": 0.4,
                         "p_list": [2.0], "q_center": 3.0, "q_local": 2.0})),
    ("regime-sweep", grid_cfg({"center": [0.0, 0.0], "r_list": [0.1], "R": 0.4,
                               "p_list": [3.0, 2.0], "q_center": 3.0, "q_local": 2.0})),
    ("sandwich", grid_cfg({"center": [0.0, 0.0], "r": 0.1, "R": 0.4, "p": 2.0,
                           "q_center": 3.0, "q_local": 2.0})),
    # a 'q' that the log profile would drop
    ("profile-energy", grid_cfg({"kind": "log", "center": [0.0, 0.0], "r": 0.1,
                                 "R": 0.4, "p": 2.0, "q": 7.5})),
])
def test_malformed_task_inputs_exit_2_before_any_solve(tmp_path, monkeypatch,
                                                       task, cfg_obj):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran on a malformed config")

    monkeypatch.setattr(cli, "build_green", no_solve)
    monkeypatch.setattr(cli, "relative_capacity", no_solve)
    monkeypatch.setattr(solver, "relative_capacity", no_solve)  # verify_sandwich's
    assert_rejected(tmp_path, task, cfg_obj)


@pytest.mark.parametrize("task,where,key,value", [
    ("dimension", "space", "n", 2.7), ("dimension", "task", "n_samples", 5.5),
    ("dimension", "task", "n_radii", 6.5), ("dimension", "", "seed", 1.5),
    ("solve", "task", "max_iter", 1.5)])
def test_integer_keys_reject_fractions(tmp_path, task, where, key, value):
    cfg_obj = dim_cfg() if task == "dimension" else grid_cfg(
        {"center": [0.0, 0.0], "r": 0.15, "R": 0.45, "p": 3.5})
    (cfg_obj[where] if where else cfg_obj)[key] = value
    assert_rejected(tmp_path, task, cfg_obj)


def test_integral_floats_read_as_integers(tmp_path):
    as_ints, as_floats = dim_cfg(), dim_cfg()
    as_floats["space"]["n"] = 2.0
    as_floats["task"].update(n_samples=5.0, n_radii=6.0)
    as_floats["seed"] = 0.0
    digests = []
    for name, obj in (("ints", as_ints), ("floats", as_floats)):
        out = tmp_path / name
        assert cli.run("dimension", write_cfg(tmp_path, obj, f"{name}.json"),
                       str(out), quiet=True) == 0
        digests.append(read_manifest(out)["artifacts"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("task,extra", [
    ("bounds", {"r_list": [0.2], "p_list": [2.0]}),
    ("sandwich", {"r": 0.2, "p": 2.0}),
    ("regime-sweep", {"r_list": [0.2], "p_list": [2.0]}),
])
def test_ring_tasks_take_the_line_dimension(tmp_path, task, extra):
    # q = 1 is the dimension of the line, as the green task already took it
    cfg = line_cfg(dict(extra, center=[0.0], R=1.0, q_center=1.0))
    out = tmp_path / "out"
    assert cli.run(task, write_cfg(tmp_path, cfg), str(out), quiet=True) == 0
    csv_name = {"bounds": "bounds.csv", "regime-sweep": "sweep.csv"}.get(task)
    if csv_name is None:
        assert json.loads((out / "sandwich.json").read_text())["regime"] == "above"
    else:
        with open(out / csv_name) as fh:
            row, = csv.DictReader(fh)
        assert row["regime"] == "above"


@pytest.mark.parametrize("key,value,message", [
    ("q_center", 0.5, "'q_center' must be finite and at least 1"),
    ("q_local", 0.5, "'q_local' must be finite and at least 1"),
    ("R", -1.0, "'R' must be finite and positive"),
    ("p_list", [2.0, 1.0], "'p_list' must be finite and exceed 1"),
    ("r_list", [0.1, float("nan")], "'r_list' must be finite"),
])
def test_config_errors_carry_the_rule_message(tmp_path, capsys, key, value, message):
    cfg = grid_cfg({"center": [0.0, 0.0], "r_list": [0.1], "R": 0.4,
                    "p_list": [2.0], "q_center": 2.0}, **{key: value})
    assert_rejected(tmp_path, "bounds", cfg)
    assert message in capsys.readouterr().err


def test_a_log_profile_rejects_q(tmp_path, capsys):
    cfg = grid_cfg({"kind": "log", "center": [0.0, 0.0], "r": 0.1, "R": 0.4,
                    "p": 2.0, "q": 7.5})
    assert_rejected(tmp_path, "profile-energy", cfg)
    assert "'q' applies to the power profile only" in capsys.readouterr().err


def test_dimension_without_points_exits_2(tmp_path, capsys):
    # an empty point set once wrote "lower_c": Infinity, which is not JSON
    cfg = grid_cfg({"r_max": 0.6, "points": []}, half=1.05, h=0.01)
    assert_rejected(tmp_path, "dimension", cfg)
    assert "nonempty sample and point node sets" in capsys.readouterr().err


def test_power_profile_energy_is_the_library_energy(tmp_path):
    cfg = grid_cfg({"kind": "power", "center": [0.0, 0.0], "r": 0.1, "R": 0.4,
                    "p": 3.0, "q": 2.5})
    out = tmp_path / "out"
    assert cli.run("profile-energy", write_cfg(tmp_path, cfg), str(out), quiet=True) == 0
    with open(out / "profile_energy.csv") as fh:
        row, = csv.DictReader(fh)
    sp = build_euclidean_grid(2, 0.55, 0.05)
    c = sp.nearest_node([0.0, 0.0])
    fld = radialize(sp, c, power_profile(0.1, 0.4, 3.0, 2.5))
    assert row["kind"] == "power"
    assert float(row["energy_edge"]) == p_energy(sp, fld, 3.0).edge


@pytest.mark.parametrize("task,message", [
    ({"kind": "power"}, "power profile needs 'q'"),
    ({"kind": "cubic", "q": 2.5}, "unknown profile kind 'cubic'"),
])
def test_profile_kind_errors_exit_2(tmp_path, capsys, task, message):
    cfg = grid_cfg(dict(task, center=[0.0, 0.0], r=0.1, R=0.4, p=3.0))
    assert_rejected(tmp_path, "profile-energy", cfg)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("refine_h", [[0.04, 0.02, 0.05], [0.04, 0.01]])
def test_green_ladder_is_checked_before_any_solve(tmp_path, capsys, monkeypatch,
                                                  refine_h):
    solves, builds = [], []
    monkeypatch.setattr(green, "solve_condenser",
                        lambda *args, **kwargs: solves.append(args))
    build = cli.build_space
    monkeypatch.setattr(cli, "build_space",
                        lambda spec: builds.append(spec) or build(spec))
    assert_rejected(tmp_path, "green", grid_cfg(
        {"center": [0.0, 0.0], "R": 0.4, "p": 2.0, "q_center": 2.0,
         "refine_h": refine_h}, h=0.02))
    err = capsys.readouterr().err
    assert ("strictly refining" in err) == (len(refine_h) == 3)
    assert ("at least three resolution levels" in err) == (len(refine_h) == 2)
    assert not solves and len(builds) == 1  # the task's own space only


def test_green_on_a_domain_without_boundary_exits_2(tmp_path, capsys):
    # R covers the whole patch, so the pole condenser has no capacity
    assert_rejected(tmp_path, "green", grid_cfg({"center": [0.0, 0.0], "R": 5.0, "p": 2.0}))
    assert "condenser capacity vanished" in capsys.readouterr().err


def test_unrefined_ladder_exits_2_and_writes_nothing(tmp_path):
    assert_rejected(tmp_path, "green", line_cfg(
        {"center": [0.0], "R": 1.0, "p": 2.0, "q_center": 1.0,
         "refine_h": [0.01, 0.02, 0.04]}))


@pytest.mark.parametrize("task,cfg_obj", [
    ("sandwich", grid_cfg({"center": [0.0, 0.0], "r": 0.1, "R": 0.4, "p": 2.0,
                           "q_center": 2.0})),
    ("green", line_cfg({"center": [0.0], "R": 1.0, "p": 2.0})),
    ("singleton-limit", line_cfg({"center": [0.0], "R": 1.0, "r_list": [0.5, 0.25],
                                  "p": 2.0})),
])
def test_tasks_without_an_iteration_cap_reject_max_iter(tmp_path, task, cfg_obj):
    # these tasks pass no cap to the library, so the key would be dropped
    cfg_obj["task"]["max_iter"] = 1
    assert_rejected(tmp_path, task, cfg_obj)


def test_short_space_file_line_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("2 1\n0 0.0 1.0\n1 1.0 1.0\n0 1\n")
    assert_rejected(tmp_path, "bounds", {
        "space": {"kind": "file", "path": str(path)},
        "task": {"center": [0.0], "r_list": [0.5], "R": 1.0, "p_list": [2.0],
                 "q_center": 1.0}})
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "2 1 nan\n0 0.0 1.0\n1 1.0 1.0\n0 1 1.0\n",  # the resolution
    "2 1\n0 0.0 1.0\n1 nan 1.0\n0 1 1.0\n",  # a coordinate
    "2 1\n0 0.0 1.0\n1 1.0 1.0\n0 1 nan\n",  # an edge length
    "2 1\n0 0.0 1.0\n1 1.0 nan\n0 1 1.0\n",  # a mass
], ids=["resolution", "coordinate", "edge_length", "mass"])
def test_a_nan_field_in_a_space_file_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "two.txt"
    path.write_text(text)
    assert_rejected(tmp_path, "bounds", {
        "space": {"kind": "file", "path": str(path)},
        "task": {"center": [0.0], "r_list": [0.5], "R": 1.0, "p_list": [2.0],
                 "q_center": 2.0}})
    assert "config error: space:" in capsys.readouterr().err


def test_fit_rejects_a_short_csv_row(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("r,value\n1,1\n2,4\n3\n4,16\n5,25\n")
    assert_rejected(tmp_path, "fit", {"task": {"csv": str(data), "x_column": "r",
                                               "y_column": "value"}})


def test_file_space_builds_from_config(tmp_path):
    path = tmp_path / "plane.txt"
    save_space(build_euclidean_grid(2, 0.55, 0.05), path)
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "file", "path": str(path), "metric": "euclidean"},
        "task": {"center": [0.0, 0.0], "r_list": [0.1], "R": 0.4,
                 "p_list": [2.0], "q_center": 2.0, "R0": 10.0}})
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    with open(out / "bounds.csv") as fh:
        row, = csv.DictReader(fh)
    assert row["regime"] == "critical"


def test_green_on_a_loaded_plane_matches_the_built_plane(tmp_path):
    # the pole plate is three grid steps, so it needs the file's resolution
    path = tmp_path / "plane.txt"
    save_space(build_euclidean_grid(2, 0.55, 0.05), path)
    task = {"center": [0.0, 0.0], "R": 0.5, "p": 2.0}
    outs = []
    for name, space in (("built", grid_cfg(task)["space"]),
                        ("loaded", {"kind": "file", "path": str(path),
                                    "metric": "euclidean"})):
        cfg = write_cfg(tmp_path, {"space": space, "task": task}, f"{name}.json")
        out = tmp_path / name
        assert cli.main(["green", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        outs.append((out / "green_field.csv").read_bytes())
    assert outs[0] == outs[1]


def test_bounds_table_and_validity_note(tmp_path):
    base = {"center": [0.0, 0.0], "r_list": [0.05, 0.1], "R": 0.5,
            "p_list": [2.0, 3.0], "q_center": 2.0}
    out = tmp_path / "far"
    assert cli.main(["bounds", "--config",
                     write_cfg(tmp_path, grid_cfg(base), "far.json"),
                     "--out", str(out), "--quiet"]) == 0
    # R = 0.5 is past a quarter of the sampled diameter, so the manifest
    # carries a trust warning; widening R0 removes it
    assert "validity_note" in read_manifest(out)
    out2 = tmp_path / "near"
    assert cli.main(["bounds", "--config",
                     write_cfg(tmp_path, grid_cfg(base, R0=10.0), "near.json"),
                     "--out", str(out2), "--quiet"]) == 0
    assert "validity_note" not in read_manifest(out2)
    with open(out / "bounds.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert row["regime"] in ("below", "critical", "above")
        assert float(row["lower"]) <= float(row["upper"]) * (1 + 1e-12)


def test_solve_matches_the_line_value(tmp_path):
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "euclidean_grid", "n": 1, "half_extent": 1.2,
                  "h": 0.05},
        "task": {"center": [0.0], "r": 0.2, "R": 1.0, "p": 2.0,
                 "field_dump": True}})
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    payload = json.loads((out / "solve.json").read_text())
    # two unit chains of length R - r in series with the grounded tail
    assert payload["value"] == pytest.approx(2.0 / 0.8, rel=1e-6)
    assert payload["converged"]
    assert payload["stop_reason"] == "converged"
    assert payload["cg_iters"] > 0
    assert payload["preconditioner"] == "jacobi"  # a line of 49 nodes
    with open(out / "field.csv") as fh:
        us = [float(row["u"]) for row in csv.DictReader(fh)]
    assert max(us) <= 1 + 1e-9 and min(us) >= -1e-9


def test_nonconvergence_exits_3_but_keeps_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, grid_cfg(
        {"center": [0.0, 0.0], "r": 0.15, "R": 0.45, "p": 3.5,
         "max_iter": 1}))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    payload = json.loads((out / "solve.json").read_text())
    assert not payload["converged"]
    assert "solve.json" in read_manifest(out)["artifacts"]


def test_sandwich_reports_an_admissible_bracket(tmp_path):
    cfg = write_cfg(tmp_path, grid_cfg(
        {"center": [0.0, 0.0], "r": 0.1, "R": 0.4, "p": 2.0,
         "q_center": 2.0}))
    out = tmp_path / "out"
    assert cli.main(["sandwich", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    rep = json.loads((out / "sandwich.json").read_text())
    assert rep["regime"] == "critical"
    assert rep["admissible_ok"]
    assert rep["capacity"] <= rep["profile_energy"] * (1 + 1e-9)


def test_profile_energy_shell_table(tmp_path):
    cfg = write_cfg(tmp_path, grid_cfg(
        {"kind": "log", "center": [0.0, 0.0], "r": 0.1, "R": 0.4, "p": 2.0}))
    out = tmp_path / "out"
    assert cli.main(["profile-energy", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    with open(out / "profile_shells.csv") as fh:
        shells = list(csv.DictReader(fh))
    assert len(shells) == 3  # doublings of r up to R = 4r
    assert all(float(s["energy"]) >= 0 for s in shells)
    with open(out / "profile_energy.csv") as fh:
        row, = csv.DictReader(fh)
    assert row["kind"] == "log" and float(row["energy_edge"]) > 0


def test_green_levels_and_refinement_trend(tmp_path):
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "euclidean_grid", "n": 1, "half_extent": 1.2,
                  "h": 0.04},
        "task": {"center": [0.0], "R": 1.0, "p": 2.0,
                 "refine_h": [0.04, 0.02, 0.01], "q_center": 1.0}})
    out = tmp_path / "out"
    assert cli.main(["green", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    man = read_manifest(out)
    assert man["level_notices"] == []
    with open(out / "green_levels.csv") as fh:
        levels = list(csv.DictReader(fh))
    assert len(levels) == 5
    assert float(levels[0]["ratio"]) == pytest.approx(1.0, abs=1e-9)
    assert man["pole_solve"]["stop_reason"] == "converged"
    assert man["pole_solve"]["preconditioner"] == "jacobi"
    assert len(man["level_solves"]) == 5
    # the (0, max G) level condenser is the pole's, and takes its solve
    assert man["level_solves"][0] == man["pole_solve"]
    assert man["level_solves"][0]["stop_reason"] == "converged"
    trend = json.loads((out / "green_trend.json").read_text())
    assert trend["regime"] == "above"
    assert trend["bounded_change"] < 0.1
    for h, g in zip(trend["resolutions"], trend["max_values"]):
        assert g == pytest.approx((1.0 - 3.0 * h) / 2.0, abs=1e-9)


def test_green_refinement_requires_an_exponent(tmp_path):
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "euclidean_grid", "n": 1, "half_extent": 1.2,
                  "h": 0.04},
        "task": {"center": [0.0], "R": 1.0, "p": 2.0,
                 "refine_h": [0.04, 0.02, 0.01]}})
    assert cli.main(["green", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


def test_green_refinement_rejects_a_file_space_before_any_solve(tmp_path, capsys,
                                                              monkeypatch):
    # a file space has no grid step to refine; the levels would all load the file
    solves = []
    monkeypatch.setattr(green, "solve_condenser",
                        lambda *args, **kwargs: solves.append(args))
    path = tmp_path / "line.txt"
    save_space(build_euclidean_grid(1, 1.2, 0.04), path)
    assert_rejected(tmp_path, "green", {
        "space": {"kind": "file", "path": str(path), "metric": "euclidean"},
        "task": {"center": [0.0], "R": 1.0, "p": 2.0,
                 "refine_h": [0.04, 0.02, 0.01], "q_center": 1.0}})
    assert "'refine_h'" in capsys.readouterr().err
    assert not solves


def test_green_exits_3_when_a_level_solve_does_not_converge(tmp_path,
                                                            monkeypatch):
    solve = green.solve_condenser

    def level_solves_fail(*args, x0=None, **kwargs):
        res = solve(*args, x0=x0, **kwargs)
        res.converged = x0 is None  # only the level solves pass a guess
        return res

    monkeypatch.setattr(green, "solve_condenser", level_solves_fail)
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "euclidean_grid", "n": 1, "half_extent": 1.2,
                  "h": 0.04},
        "task": {"center": [0.0], "R": 1.0, "p": 2.0}})
    assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 3


def test_green_exits_3_when_a_refinement_solve_does_not_converge(tmp_path,
                                                                 monkeypatch):
    solve = green.solve_condenser

    def refinement_solves_fail(space, *args, **kwargs):
        res = solve(space, *args, **kwargs)
        res.converged = space.resolution == 0.04  # the task's own line
        return res

    monkeypatch.setattr(green, "solve_condenser", refinement_solves_fail)
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "euclidean_grid", "n": 1, "half_extent": 1.2,
                  "h": 0.04},
        "task": {"center": [0.0], "R": 1.0, "p": 2.0,
                 "refine_h": [0.1, 0.05, 0.02], "q_center": 1.0}})
    out = tmp_path / "o"
    assert cli.main(["green", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert (out / "green_trend.json").exists()


def test_singleton_limit_on_the_line(tmp_path):
    # dyadic spacing keeps every requested radius exactly on a node, so the
    # chain gaps (and hence the capacities) come out in closed form
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "euclidean_grid", "n": 1, "half_extent": 1.25,
                  "h": 0.0625},
        "task": {"center": [0.0], "R": 1.0, "r_list": [0.5, 0.4375, 0.375],
                 "p": 2.0}})
    out = tmp_path / "out"
    assert cli.main(["singleton-limit", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    payload = json.loads((out / "singleton.json").read_text())
    assert payload["decreasing"]
    assert payload["limit_estimate"] == pytest.approx(2.0 / 0.625, rel=1e-6)
    with open(out / "singleton.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 3


def test_singleton_limit_exits_3_when_a_solve_does_not_converge(tmp_path):
    # at tol 1e-15 the r = 0.5 solve stagnates at rounding level
    cfg = write_cfg(tmp_path, {
        "space": {"kind": "euclidean_grid", "n": 2, "half_extent": 1.05,
                  "h": 0.05},
        "task": {"center": [0.0, 0.0], "R": 1.0, "r_list": [0.5, 0.4, 0.3],
                 "p": 3.5, "tol": 1e-15}})
    out = tmp_path / "out"
    assert cli.main(["singleton-limit", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    # the artifacts are still written
    assert set(read_manifest(out)["artifacts"]) == {"singleton.csv",
                                                    "singleton.json"}


def test_regime_sweep_pairs_solves_with_estimates(tmp_path):
    cfg = write_cfg(tmp_path, grid_cfg(
        {"center": [0.0, 0.0], "r_list": [0.1], "R": 0.4,
         "p_list": [2.0], "q_center": 2.0, "R0": 10.0}))
    out = tmp_path / "out"
    assert cli.main(["regime-sweep", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    with open(out / "sweep.csv") as fh:
        row, = csv.DictReader(fh)
    assert row["regime"] == "critical" and row["converged"] == "1"
    assert float(row["capacity"]) > 0


def test_fit_recovers_an_exact_power_law(tmp_path):
    data = tmp_path / "data.csv"
    xs = [0.1, 0.2, 0.4, 0.8, 1.6]
    rows = "\n".join(f"{x},{3.0 * x ** 2.5}" for x in xs)
    data.write_text("r,value\n" + rows + "\n")
    cfg = write_cfg(tmp_path, {"task": {"csv": str(data), "x_column": "r",
                                        "y_column": "value"}})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["slope"] == pytest.approx(2.5, abs=1e-9)
    assert fit["n_points"] == 5
    # under four points there is nothing trustworthy to report
    short = tmp_path / "short.csv"
    short.write_text("r,value\n1,1\n2,4\n3,9\n")
    cfg2 = write_cfg(tmp_path, {"task": {"csv": str(short), "x_column": "r",
                                         "y_column": "value"}}, "c2.json")
    assert cli.main(["fit", "--config", cfg2, "--out", str(out)]) == 2
    cfg3 = write_cfg(tmp_path, {"task": {"csv": str(data), "x_column": "nope",
                                         "y_column": "value"}}, "c3.json")
    assert cli.main(["fit", "--config", cfg3, "--out", str(out)]) == 2


@pytest.mark.parametrize("space", [
    {"kind": "glued_balls", "n": 2, "h": 0.1, "segment_length": 1.0},
    {"kind": "double_cone", "n": 2, "half_extent": 1.3, "h": 0.1},
    {"kind": "heisenberg_grid", "half_extent": 0.3, "h": 0.1,
     "with_edges": False},
])
def test_every_space_kind_builds_from_config(tmp_path, space):
    dim = 3 if space["kind"] == "heisenberg_grid" else 2
    cfg = write_cfg(tmp_path, {
        "space": space,
        "task": {"center": [0.0] * dim, "r_list": [0.15], "R": 0.5,
                 "q_center": 2.0, "p_list": [2.0], "R0": 10.0}})
    out = tmp_path / "out"
    assert cli.main(["bounds", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    assert (out / "bounds.csv").exists()


def test_console_script_is_wired(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x,y\n1,1\n2,8\n4,64\n8,512\n")
    cfg = write_cfg(tmp_path, {"task": {"csv": str(data), "x_column": "x",
                                        "y_column": "y"}})
    # the child imports the same ringcap as this test, whatever the caller's
    # PYTHONPATH
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "ringcap", "fit", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    fit = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert fit["slope"] == pytest.approx(3.0, abs=1e-9)
