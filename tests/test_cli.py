"""End-to-end checks of the command line driver: config validation with
dotted-path messages, per-subcommand outputs, exit codes, and determinism
of everything except the timing block."""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

from capflow import capacity, cli, lattice, pde
from helpers import count_condensers

LN4 = math.log(4.0)
DELTA_HALF_1D = 5.0 / 9.0  # ((1.5r)^{1-p} + (0.5r)^{1-p}) / (2 (0.5r)^{1-p}), p=3


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run(tmp_path, command, cfg, tag="run", extra=()):
    cfg_path = write_cfg(tmp_path, f"{tag}.json", cfg)
    out = tmp_path / f"{tag}_out"
    rc = cli.main([command, "--config", cfg_path, "--out", str(out), *extra])
    return rc, out


def read_report(out):
    with open(os.path.join(str(out), "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    assert lines[0].startswith("# config: ")
    echoed = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return echoed, header, rows


def strip_timings(report):
    report = copy.deepcopy(report)
    report.pop("timings")
    return report


def half_space_1d():
    return {
        "schema_version": 1, "p": 3.0, "N": 1,
        "domain": {"kind": "half_space", "anchor": [0.0]},
        "solver": {"nodes_across": 17},
    }


def capacity_cfg():
    cfg = half_space_1d()
    cfg.update({"x_o": [0.0], "radii": [0.25, 0.5]})
    return cfg


def cascade_cfg(mu_o=1.0):
    return {
        "schema_version": 1, "p": 3.0, "N": 2,
        "mu_o": mu_o, "epsilon": 0.5,
        "profile": {"mode": "constant", "R_o": 1.0, "depth": 6, "value": 1.0},
    }


def solve_cfg():
    return {
        "schema_version": 1, "p": 3.0, "N": 1,
        "domain": {"kind": "full_space"},
        "box": {"center": [0.0], "half_edge": 2.5},
        "grid_h": 0.3125,
        "time": {"mode": "uniform", "T": 1.0, "steps": 16},
        "datum": {"kind": "barenblatt", "t_offset": 1.0, "mass_scale": 1.0},
        "snapshot_steps": [0, 16],
    }


def verify_cfg(delta_value):
    # Synthetic relative capacity, flat boundary: every stage is cheap and
    # every number is reproducible.
    return {
        "schema_version": 1, "p": 3.0, "N": 1,
        "domain": {"kind": "half_space", "anchor": [0.0]},
        "constants": {"bar_gamma": 0.0},
        "x_o": [0.0], "t_o": 0.01, "epsilon": 0.5,
        "R_o": 0.0625, "depth": 3,
        "probe_radii": [0.03125, 0.015625, 0.0078125],
        "synthetic_delta": {"mode": "constant", "value": delta_value},
        "box": {"center": [0.0], "half_edge": 0.125},
        "grid_h": 0.0078125,
        "time": {"mode": "uniform", "T": 0.01, "steps": 10},
        "datum": {"kind": "ramped_distance", "scale": 0.05, "ramp_time": 0.002},
    }


# -- argparse and config loading ----------------------------------------------

def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


def test_missing_config_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["capacity"])
    assert exc.value.code == 2


def test_unreadable_config(tmp_path, capsys):
    # a missing file, and one that is not UTF-8
    missing, not_utf8 = tmp_path / "nope.json", tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"schema_version": 1, "p": 3.0, "N": 1\xff}')
    for path in (missing, not_utf8):
        rc = cli.main(["capacity", "--config", str(path)])
        assert rc == 2
        assert f"config error: cannot read config {path}: " in capsys.readouterr().err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1\n "p": 3}', encoding="utf-8")
    rc = cli.main(["capacity", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{path}:2:" in err


def _with(cfg, section, key, value):
    """cfg with cfg[section][key], or cfg[key] when section is None, set to value."""
    (cfg if section is None else cfg[section])[key] = value
    return cfg


@pytest.mark.parametrize("command, cfg, literal", [
    ("cascade", _with(cascade_cfg(), "profile", "R_o", "@"), "Infinity"),
    ("capacity", _with(capacity_cfg(), None, "radii", [0.25, "@"]), "NaN"),
    ("solve", _with(solve_cfg(), None, "datum", {"kind": "constant", "value": "@"}), "NaN"),
    ("solve", _with(solve_cfg(), None, "datum", {"kind": "constant", "value": "@"}),
     "-Infinity"),
    ("cascade", cascade_cfg(mu_o="@"), "1e400"),
    ("solve", _with(solve_cfg(), "time", "T", "@"), "1e400"),
    pytest.param("cascade", cascade_cfg(mu_o="@"), "1" + "0" * 400,
                 id="cascade-cfg6-401_digits"),
])
def test_non_finite_literals_are_config_errors(tmp_path, capsys, command, cfg, literal):
    # Python's json.loads reads the literals NaN and Infinity, which are
    # not JSON, reads 1e400 as inf and a 401-digit integer as an int that
    # no float holds; each would otherwise reach a computation
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal), encoding="utf-8")
    out = tmp_path / "run_out"
    rc = cli.main([command, "--config", str(path), "--out", str(out)])
    assert rc == 2
    why = "is not JSON" if literal.lstrip("-") in ("NaN", "Infinity") else "does not fit a float"
    assert capsys.readouterr().err.startswith(f"config error: {path}: {literal} {why}")
    assert not out.exists()


def test_wrong_schema_version(tmp_path, capsys):
    cfg = capacity_cfg()
    cfg["schema_version"] = 7
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert "unsupported schema_version 7" in capsys.readouterr().err


def test_non_object_root(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    rc = cli.main(["capacity", "--config", str(path)])
    assert rc == 2
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = capacity_cfg()
    cfg["bogus"] = 1
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_unknown_nested_key_uses_dotted_path(tmp_path, capsys):
    # the weight floor and the stop rule are solver constants, not settings
    for key in ("bogus", "weight_floor", "max_iter", "tol_rel_energy"):
        cfg = capacity_cfg()
        cfg["solver"] = {key: 1e-10}
        rc, _ = run(tmp_path, "capacity", cfg, tag=f"solver_{key}")
        assert rc == 2
        assert f"unknown key 'solver.{key}'" in capsys.readouterr().err


def test_scheme_section_is_unknown(tmp_path, capsys):
    # every run stores every time step, so no section chooses which
    for command, cfg in (("capacity", capacity_cfg()), ("solve", solve_cfg())):
        for scheme in ({}, {"store_stride": 1}):
            cfg["scheme"] = scheme
            rc, _ = run(tmp_path, command, cfg, tag=f"scheme_{command}_{len(scheme)}")
            assert rc == 2
            assert "unknown key 'scheme'" in capsys.readouterr().err


def record_tolerances(monkeypatch, module) -> list:
    """The tol_rel_energy of every call of module.minimize from here on."""
    seen = []
    minimize = module.minimize

    def recording(system, fixed, start, p, tol_rel_energy, *args, **kwargs):
        seen.append(tol_rel_energy)
        return minimize(system, fixed, start, p, tol_rel_energy, *args, **kwargs)

    monkeypatch.setattr(module, "minimize", recording)
    return seen


def test_condensers_stop_tighter_than_time_steps(tmp_path, monkeypatch):
    # the energy-drop stop each caller hands the shared minimizer (see
    # capflow.capacity); no config key sets either
    condensers = record_tolerances(monkeypatch, capacity)
    steps = record_tolerances(monkeypatch, pde)
    assert run(tmp_path, "capacity", capacity_cfg(), tag="capacity")[0] == 0
    assert run(tmp_path, "solve", solve_cfg(), tag="solve")[0] == 0
    assert condensers and set(condensers) == {1e-10}
    assert steps and set(steps) == {1e-8}


@pytest.mark.parametrize("command, make_cfg", [("capacity", capacity_cfg),
                                               ("solve", solve_cfg)])
def test_solver_nodes_across_is_checked_at_parse_time(tmp_path, capsys, command, make_cfg):
    # a config error, whether or not the command computes a delta
    cfg = make_cfg()
    cfg["solver"] = {"nodes_across": 18}
    rc, _ = run(tmp_path, command, cfg)
    assert rc == 2
    assert ("config error: solver: nodes_across must be >= 17 and congruent to 1 mod 4, "
            "got 18") in capsys.readouterr().err


def test_ramped_distance_rejects_power_cusp_before_the_grid(tmp_path, capsys,
                                                            monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(pde, "make_grid", no_grid)
    cfg = solve_cfg()
    cfg["domain"] = {"kind": "power_cusp", "anchor": [0.0], "exponent": 2.0}
    cfg["datum"] = {"kind": "ramped_distance", "scale": 0.05, "ramp_time": 0.002}
    rc, _ = run(tmp_path, "solve", cfg)
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: datum kind 'ramped_distance' does not support domain "
        "kind 'power_cusp'\n")


def test_ramped_distance_evaluates_the_distance_once_per_point_array(tmp_path,
                                                                     monkeypatch):
    # the time loop passes one array at every step; a new array, even with
    # the same points, is measured afresh, and every value is the formula's
    values = cli.parse_experiment(verify_cfg(0.5), "verify", str(tmp_path), 1).values
    datum, domain, box = values["datum"], values["domain"], values["box"]
    measure = cli.sup_distance_to_obstacle
    calls = []

    def counted(domain, pts, clip):
        calls.append(pts)
        return measure(domain, pts, clip)

    monkeypatch.setattr(cli, "sup_distance_to_obstacle", counted)
    pts = np.linspace(-0.125, 0.125, 33)[:, None]
    arrays = [pts, pts, pts, pts.copy(), pts]
    for k, array in enumerate(arrays):
        t = 0.001 * k
        ref = np.clip(measure(domain, array, box) / 0.05, 0.0, 1.0) * min(t / 0.002, 1.0)
        assert datum(array, t).tobytes() == ref.tobytes()
    assert [id(a) for a in calls] == [id(pts), id(arrays[3]), id(pts)]


def test_wrong_value_type(tmp_path, capsys):
    cfg = capacity_cfg()
    cfg["p"] = "three"
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert "key 'p' must be a number, got str" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = capacity_cfg()
    del cfg["x_o"]
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert "missing required key 'x_o'" in capsys.readouterr().err


def test_custom_mask_rejected_in_configs(tmp_path, capsys):
    cfg = capacity_cfg()
    cfg["domain"] = {"kind": "custom_mask"}
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert "programmatic only" in capsys.readouterr().err


def test_bad_domain_parameter(tmp_path, capsys):
    cfg = capacity_cfg()
    cfg["domain"] = {"kind": "exterior_cube", "anchor": [0.0], "half_edge": -1.0}
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: domain:")


def test_unknown_time_mode(tmp_path, capsys):
    cfg = solve_cfg()
    cfg["time"] = {"mode": "bogus"}
    rc, _ = run(tmp_path, "solve", cfg)
    assert rc == 2
    assert "unknown time mode 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("length", [[1], True])
def test_slit_length_must_be_a_number_or_inf(tmp_path, capsys, length):
    cfg = capacity_cfg()
    cfg["N"] = 2
    cfg["x_o"] = [0.0, 0.0]
    cfg["domain"] = {"kind": "slit", "anchor": [0.0, 0.0], "length": length}
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: key 'domain.length' must be a number or \"inf\"")


ROOT = os.path.join(os.path.dirname(__file__), "..")


def shipped_configs():
    """(command, config) of every file in configs/, the command being the
    one the file name starts with, and of every benchmark workload at seeds
    0 and 3, as perfbench/workloads.py makes them; that module is imported
    without writing bytecode, so the benchmark's directory stays as it is."""
    params = []
    for name in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        stem = name[:-len(".json")].replace("_", "-")
        command = max((c for c in cli._COMMANDS if stem.startswith(c)), key=len)
        params.append(pytest.param(command, os.path.join(ROOT, "configs", name), id=name))
    bench = os.path.join(ROOT, "perfbench")
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    for w in workloads.WORKLOADS.values():
        params += [pytest.param(w.command, w.make_config(seed), id=f"{w.name}_seed{seed}")
                   for seed in (0, 3)]
    return params


@pytest.mark.parametrize("command, config", shipped_configs())
def test_shipped_configs_parse(command, config, tmp_path, monkeypatch):
    # a workload's config is written out and read back, as the benchmark
    # hands it to the command line
    def no_solve(*args, **kwargs):
        raise AssertionError("parsing solved something")

    monkeypatch.setattr(pde, "solve", no_solve)
    monkeypatch.setattr(pde, "make_grid", no_solve)
    monkeypatch.setattr(capacity, "minimize_condenser", no_solve)
    path = config if isinstance(config, str) else write_cfg(tmp_path, "config.json", config)
    cfg = cli.parse_experiment(cli.load_config(path), command, "unused", 1)
    assert cfg.raw["schema_version"] == 1
    assert set(cfg.values) == set(cli._COMMANDS[command].keys)


def test_unknown_datum_kind(tmp_path, capsys):
    cfg = solve_cfg()
    cfg["datum"] = {"kind": "bogus"}
    rc, _ = run(tmp_path, "solve", cfg)
    assert rc == 2
    assert "unknown datum kind 'bogus'" in capsys.readouterr().err


# -- capacity -----------------------------------------------------------------

def test_capacity_half_space_values(tmp_path):
    cfg = capacity_cfg()
    rc, out = run(tmp_path, "capacity", cfg)
    assert rc == 0
    echoed, header, rows = read_csv(out / "capacity.csv")
    assert echoed == cfg
    assert header == ["rho", "cap_obstacle", "cap_full", "delta", "iters"]
    assert len(rows) == 2
    for row, rho in zip(rows, cfg["radii"]):
        assert float(row[0]) == rho
        cap_full = 2.0 * (0.5 * rho) ** -2.0
        assert abs(float(row[2]) - cap_full) <= 1e-8 * cap_full
        assert abs(float(row[3]) - DELTA_HALF_1D) <= 1e-12
    report = read_report(out)
    assert report["config"] == cfg
    assert [r["delta"] for r in report["capacity_table"]] == \
        [float(r[3]) for r in rows]
    assert "capacity" in report["timings"]
    assert set(report["versions"]) == {"package", "python", "numpy", "scipy"}
    assert (out / "capacity.dat").exists()


def test_capacity_rejects_nonpositive_radius(tmp_path, capsys):
    cfg = capacity_cfg()
    cfg["radii"] = [0.25, -0.5]
    rc, _ = run(tmp_path, "capacity", cfg)
    assert rc == 2
    assert "radii must be positive" in capsys.readouterr().err


def test_capacity_worker_count_does_not_change_output(tmp_path):
    cfg = capacity_cfg()
    cfg["radii"] = [0.25, 0.375, 0.5]
    rc1, out1 = run(tmp_path, "capacity", cfg, tag="serial")
    rc2, out2 = run(tmp_path, "capacity", cfg, tag="pooled",
                    extra=("--workers", "3"))
    assert rc1 == 0 and rc2 == 0
    assert (out1 / "capacity.csv").read_bytes() == (out2 / "capacity.csv").read_bytes()


def test_bad_worker_count(tmp_path, capsys):
    rc, _ = run(tmp_path, "capacity", capacity_cfg(), extra=("--workers", "0"))
    assert rc == 2
    assert "--workers must be positive" in capsys.readouterr().err


# -- delta-profile ------------------------------------------------------------

def test_delta_profile_half_space(tmp_path):
    cfg = half_space_1d()
    cfg.update({"x_o": [0.0], "R_o": 0.5, "depth": 4})
    rc, out = run(tmp_path, "delta-profile", cfg)
    assert rc == 0
    _, header, rows = read_csv(out / "profile.csv")
    assert header == ["index", "rho", "delta", "A", "wiener_partial"]
    assert len(rows) == 4
    a_ref = math.sqrt(DELTA_HALF_1D)
    for i, row in enumerate(rows):
        assert int(row[0]) == i
        assert abs(float(row[1]) - 0.5 * 0.25 ** i) <= 1e-15
        # the half-space condenser is scale free, so delta repeats exactly
        assert abs(float(row[2]) - DELTA_HALF_1D) <= 1e-12
        assert abs(float(row[3]) - a_ref) <= 1e-12
        assert abs(float(row[4]) - (i + 1) * LN4 * a_ref) <= 1e-11
    report = read_report(out)
    assert report["profile"]["lambda"] == 2
    assert report["profile"]["c_bar"] == 0.25
    diag = report["profile"]["wiener_diagnostic"]
    assert diag["verdict"] == "diverging"
    assert abs(diag["tail_slope"]) <= 0.05


@pytest.mark.parametrize("workers", ["1", "2"])
def test_delta_profile_solves_the_denominator_once(tmp_path, monkeypatch, workers):
    # the half-space mask repeats at every radius: one full-cube and one
    # obstacle solve for the run; a second run in the same process repeats
    # both, since nothing outlives a call
    cfg = half_space_1d()
    cfg.update({"x_o": [0.0], "R_o": 0.5, "depth": 4})
    solved = count_condensers(monkeypatch)
    counts = []
    for tag in ("first", "second"):
        before = len(solved)
        rc, _ = run(tmp_path, "delta-profile", cfg, tag=tag, extra=("--workers", workers))
        assert rc == 0
        counts.append(len(solved) - before)
        assert solved.distinct_masks(before) == 2
    assert counts == [2, 2]
    # every solve is on the unit lattice
    assert [p.outer.half_edge for p in solved] == [1.5] * 4


def test_capacity_solves_the_denominator_once(tmp_path, monkeypatch):
    cfg = capacity_cfg()
    cfg["radii"] = [0.25, 0.375, 0.5]
    solved = count_condensers(monkeypatch)
    rc, out = run(tmp_path, "capacity", cfg)
    assert rc == 0
    # one unit-lattice solve of the shared half-space mask, one of the full cube
    assert [p.outer.half_edge for p in solved] == [1.5, 1.5]
    assert solved.distinct_masks() == 2
    _, _, rows = read_csv(out / "capacity.csv")
    for row, rho in zip(rows, cfg["radii"]):
        cap_full = 2.0 * (0.5 * rho) ** -2.0
        assert abs(float(row[2]) - cap_full) <= 1e-8 * cap_full


def test_delta_profile_validation(tmp_path, capsys):
    cfg = half_space_1d()
    cfg.update({"x_o": [0.0], "R_o": -1.0, "depth": 4})
    rc, _ = run(tmp_path, "delta-profile", cfg, tag="neg_radius")
    assert rc == 2
    assert "R_o must be positive" in capsys.readouterr().err
    cfg["R_o"] = 0.5
    cfg["depth"] = 0
    rc, _ = run(tmp_path, "delta-profile", cfg, tag="zero_depth")
    assert rc == 2
    assert "depth must be positive" in capsys.readouterr().err


# -- cascade ------------------------------------------------------------------

def test_cascade_constant_profile_closed_form(tmp_path):
    rc, out = run(tmp_path, "cascade", cascade_cfg(mu_o=1.0))
    assert rc == 0
    report = read_report(out)
    casc = report["cascade"]
    assert casc["branch"] == "cascade"
    assert casc["truncated"] is False
    assert casc["subsequence"] == list(range(6))
    # delta = 1 shaves by exactly 1 - 1/gamma_2 = 1/2 per level
    assert casc["mu_seq"] == [2.0 ** -j for j in range(7)]
    assert all(casc["nesting_ok"]) and all(casc["sub_bd_ok"])
    assert report["profile"]["deltas"] == [1.0] * 6
    _, header, rows = read_csv(out / "envelope.csv")
    assert header == ["rho", "wiener_sum", "envelope", "branch", "truncated"]
    for i, row in enumerate(rows):
        assert float(row[0]) == 0.25 ** i
        assert abs(float(row[1]) - i * LN4) <= 1e-12
        assert float(row[2]) == 2.0 ** -i
        assert row[3] == "cascade"
        assert row[4] == "False"


def test_cascade_power_law_branch(tmp_path):
    rc, out = run(tmp_path, "cascade", cascade_cfg(mu_o=0.5))
    assert rc == 0
    casc = read_report(out)["cascade"]
    assert casc["branch"] == "power_law"
    assert casc["power_law_bound"] == 1.0  # R_o^{eps/(p-2)} at R_o = 1
    assert casc["subsequence"] == []
    _, _, rows = read_csv(out / "envelope.csv")
    assert all(float(row[2]) == 0.5 for row in rows)
    assert all(row[3] == "power_law" for row in rows)


def test_cascade_seeded_profile_follows_seed_flag(tmp_path):
    # the seed is the config's profile.seed, the only one
    cfg = cascade_cfg()
    runs = []
    for seed, tag in ((7, "s7a"), (7, "s7b"), (8, "s8")):
        cfg["profile"] = {"mode": "seeded", "R_o": 1.0, "depth": 5,
                          "low": 0.3, "high": 0.9, "seed": seed}
        runs.append(run(tmp_path, "cascade", cfg, tag=tag))
    (rc1, out1), (rc2, out2), (rc3, out3) = runs
    assert rc1 == rc2 == rc3 == 0
    r1, r2, r3 = read_report(out1), read_report(out2), read_report(out3)
    assert strip_timings(r1) == strip_timings(r2)
    expected = np.random.default_rng(7).uniform(0.3, 0.9, 5).tolist()
    assert r1["profile"]["deltas"] == expected
    assert r3["profile"]["deltas"] != expected


def test_cascade_profile_validation(tmp_path, capsys):
    cfg = cascade_cfg()
    cfg["profile"]["mode"] = "bogus"
    rc, _ = run(tmp_path, "cascade", cfg, tag="bad_mode")
    assert rc == 2
    assert "unknown profile mode 'bogus'" in capsys.readouterr().err
    cfg = cascade_cfg()
    cfg["profile"]["value"] = 1.5
    rc, _ = run(tmp_path, "cascade", cfg, tag="bad_value")
    assert rc == 2
    assert "profile.value must lie in [0, 1]" in capsys.readouterr().err
    cfg = cascade_cfg()
    cfg["c_bar"] = 1.5
    rc, _ = run(tmp_path, "cascade", cfg, tag="bad_cbar")
    assert rc == 2
    assert "c_bar must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("mu_o", -1, "mu_o must be positive, got -1.0"),
    ("epsilon", 1.5, "epsilon must lie in (0, 1), got 1.5")], ids=["mu_o", "epsilon"])
def test_cascade_range_errors_exit_2(tmp_path, capsys, key, value, message):
    cfg = cascade_cfg()
    cfg[key] = value
    rc, out = run(tmp_path, "cascade", cfg)
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# -- solve ---------------------------------------------------------------------

def test_solve_source_solution_run(tmp_path):
    cfg = solve_cfg()
    rc, out = run(tmp_path, "solve", cfg)
    assert rc == 0
    _, header, rows = read_csv(out / "energy.csv")
    assert header == ["step", "time", "energy"]
    assert len(rows) == 17
    assert [int(r[0]) for r in rows] == list(range(17))
    energies = [float(r[2]) for r in rows]
    assert all(math.isfinite(e) and e >= 0.0 for e in energies)

    snap = pde.load_snapshot(str(out / "field_step16.csv"))
    meta = snap["meta"]
    assert meta["h"] == 0.3125
    assert meta["step"] == 16
    assert meta["time"] == 1.0
    assert meta["p"] == 3.0
    assert meta["box_center"] == (0.0,)
    assert meta["box_half_edge"] == 2.5
    # datum evaluates the source profile at t + t_offset, so step 16 sits at
    # self-similar time 2; coarse grid, loose tolerance
    exact = pde.barenblatt(snap["points"], 2.0, 3.0, 1.0)
    assert float(np.max(np.abs(snap["values"] - exact))) < 0.05
    assert (out / "field_step0.csv").exists()

    report = read_report(out)
    assert report["solve"]["shape"] == [17]
    assert report["solve"]["n_steps"] == 16
    assert report["solve"]["inside_nodes"] == 15
    assert report["solve"]["datum"]["name"] == "barenblatt"
    assert report["solve"]["snapshots"] == ["field_step0.csv", "field_step16.csv"]
    # energy.csv and energy.dat hold the energy table
    assert "energy_table" not in report["solve"]
    # every stage is timed, the table and snapshot writes included
    assert set(report["timings"]) == {"grid", "solve", "energy", "write"}


def test_solve_barenblatt_datum_in_2d(tmp_path):
    cfg = solve_cfg()
    cfg.update(N=2, box={"center": [0.0, 0.0], "half_edge": 2.5})
    cfg["datum"]["mass_scale"] = 0.3
    cfg["snapshot_steps"] = [16]
    rc, out = run(tmp_path, "solve", cfg)
    assert rc == 0
    snap = pde.load_snapshot(str(out / "field_step16.csv"))
    exact = pde.barenblatt(snap["points"], 2.0, 3.0, 0.3)
    # the first rung of the 2D source-solution ladder
    assert float(np.max(np.abs(snap["values"] - exact))) < 2e-3


def test_solve_rejects_an_unstored_snapshot_step_before_solving(tmp_path, capsys,
                                                                monkeypatch):
    def no_solve(*args):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(pde, "solve", no_solve)
    cfg = solve_cfg()
    cfg["snapshot_steps"] = [0, 999]
    rc, _ = run(tmp_path, "solve", cfg, tag="range")
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: snapshot_steps: step 999 is not stored")
    n_steps = cfg["time"]["steps"]
    for step in (-1, n_steps + 1):
        cfg["snapshot_steps"] = [n_steps, step]
        rc, _ = run(tmp_path, "solve", cfg, tag=f"step{step}")
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"config error: snapshot_steps: step {step} is not stored")


def test_solve_snapshot_steps_must_be_integers(tmp_path, capsys):
    cfg = solve_cfg()
    cfg["snapshot_steps"] = [0, "last"]
    rc, _ = run(tmp_path, "solve", cfg)
    assert rc == 2
    assert "snapshot_steps must be an array of integers" in capsys.readouterr().err


# -- verify --------------------------------------------------------------------

def test_verify_synthetic_pipeline(tmp_path):
    rc, out = run(tmp_path, "verify", verify_cfg(0.36))
    assert rc == 0
    report = read_report(out)
    for section in ("constants", "realize", "profile", "measure", "cascade",
                    "regression"):
        assert section in report
    assert report["realize"]["mode"] == "explicit"
    assert report["constants"]["lambda"] == 2
    assert [e["delta"] for e in report["profile"]["entries"]] == [0.36] * 3
    measure = report["measure"]
    assert measure["depth_feasible_at_t_o"] is True
    assert 0.0 < measure["window_depth"] <= 0.01
    assert measure["omega_o"] > 0.0
    assert measure["osc_g"] == 0.0  # the datum vanishes on the obstacle side
    oscs = [m["osc"] for m in measure["measured"]]
    assert all(o > 0.0 for o in oscs)
    reg = report["regression"]
    assert reg["n_used"] == 3
    assert reg["slope"] < 0.0
    assert report["cascade"]["branch"] in ("cascade", "power_law")
    _, header, rows = read_csv(out / "envelope.csv")
    assert header == ["rho", "wiener_sum", "osc", "envelope"]
    assert len(rows) == 3
    assert (out / "profile.csv").exists()
    assert (out / "field_step10.csv").exists()


def test_verify_is_deterministic_outside_timings(tmp_path):
    cfg = verify_cfg(0.36)
    rc1, out1 = run(tmp_path, "verify", cfg, tag="first")
    rc2, out2 = run(tmp_path, "verify", cfg, tag="second")
    assert rc1 == 0 and rc2 == 0
    r1, r2 = read_report(out1), read_report(out2)
    assert strip_timings(r1) == strip_timings(r2)
    assert r1["timings"].keys() == r2["timings"].keys()
    assert "write" in r1["timings"]
    for name in ("envelope.csv", "profile.csv", "field_step10.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_solves_each_radius_once(tmp_path, monkeypatch):
    # realize and profile share one memo: each radius, R_o included, is
    # rasterized once, and the half-space mask that every radius shares is
    # solved once, as is the full cube
    cfg = verify_cfg(0.36)
    del cfg["synthetic_delta"]
    del cfg["R_o"]
    cfg["realize"] = {"r_max": 0.5, "max_halvings": 6}
    cfg["solver"] = {"nodes_across": 17}
    solved = count_condensers(monkeypatch)
    rasterize, rasterized = capacity.rasterize_obstacle, []

    def counted(domain, inner, grid_h):
        rasterized.append(inner.half_edge)
        return rasterize(domain, inner, grid_h)

    monkeypatch.setattr(capacity, "rasterize_obstacle", counted)
    counts, runs = [], []
    for tag in ("first", "second"):
        before, before_radii = len(solved), len(rasterized)
        rc, out = run(tmp_path, "verify", cfg, tag=tag)
        assert rc == 0
        counts.append(len(solved) - before)
        runs.append(rasterized[before_radii:])
    report = read_report(out)
    r_o = report["realize"]["R_o"]
    scanned = [0.5 * 2.0 ** -k for k in range(7) if 0.5 * 2.0 ** -k >= r_o]
    profiled = [e["rho"] for e in report["profile"]["entries"]]
    assert r_o < 0.5 and profiled[0] == r_o
    radii = set(scanned) | set(profiled)
    assert len(radii) == len(scanned) + len(profiled) - 1
    assert [sorted(run_radii) for run_radii in runs] == [sorted(radii)] * 2
    assert counts == [2, 2]
    assert solved.distinct_masks(counts[0]) == 2
    assert [p.outer.half_edge for p in solved] == [1.5] * 4
    assert all(abs(e["delta"] - DELTA_HALF_1D) <= 1e-12
               for e in report["profile"]["entries"])


def test_verify_report_shape_with_probes(tmp_path):
    # a box wide enough that the front from the left face is still moving at
    # t_o, so both probes find their windows and hypotheses
    cfg = verify_cfg(0.36)
    cfg.update({
        "R_o": 0.5, "probe_radii": [0.25, 0.125, 0.0625],
        "box": {"center": [0.0], "half_edge": 1.0}, "grid_h": 0.0625,
        "datum": {"kind": "ramped_distance", "scale": 0.5, "ramp_time": 0.002},
        "probes": {"harnack": {"y": [-0.75], "s": 0.004, "rho": 0.0625},
                   "spreading": {"y": [-0.875], "rho": 0.0625, "t_bar": 0.004,
                                 "k": 0.1}}})
    rc, out = run(tmp_path, "verify", cfg)
    assert rc == 0
    report = read_report(out)
    harnack, spreading = report["probes"]["harnack"], report["probes"]["spreading"]
    assert set(harnack) == {"y", "rho", "s", "harnack_c", "avg", "theta", "branch",
                            "window", "inf_later", "ratio", "remark_applies"}
    assert set(spreading) == {"y", "rho", "t_bar", "k", "samples", "fitted_nu",
                              "holds", "capped"}
    assert set(report["regression"]) == {"points", "slope", "intercept", "correlation",
                                         "n_used", "dropped", "envelope_ok"}
    assert harnack["y"] == [-0.75] and len(harnack["window"]) == 2
    assert harnack["branch"] == "intrinsic" and harnack["ratio"] > 1.0
    assert spreading["holds"] is True
    assert all(len(sample) == 3 for sample in spreading["samples"])
    assert all(len(point) == 2 for point in report["regression"]["points"])


def _no_solve(*args, **kwargs):
    raise AssertionError("pde.solve must not run")


def test_verify_default_probe_radii_are_checked_before_the_solve(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(pde, "solve", _no_solve)
    cfg = verify_cfg(0.36)
    del cfg["probe_radii"]
    cfg["depth"] = 2    # the default R_o/16 lies below the deepest radius R_o/4
    rc, out = run(tmp_path, "verify", cfg)
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: probe radius ")
    assert not out.exists()


def test_verify_searched_R_o_checks_probe_radii_before_the_profile(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(pde, "solve", _no_solve)
    cfg = verify_cfg(0.36)
    del cfg["R_o"]
    cfg["realize"] = {"r_max": 0.5, "max_halvings": 5}
    cfg["probe_radii"] = [0.5]
    rc, out = run(tmp_path, "verify", cfg)
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "error: stage 'realize' failed: probe radius 0.5 outside the profile range")
    report = read_report(out)
    assert report["error"]["stage"] == "realize"
    assert "profile" not in report and "solve" not in report["timings"]


def test_verify_needs_exactly_one_radius_source(tmp_path, capsys):
    cfg = verify_cfg(0.36)
    cfg["realize"] = {"r_max": 0.5}
    rc, _ = run(tmp_path, "verify", cfg, tag="both")
    assert rc == 2
    assert "exactly one of 'R_o' and 'realize'" in capsys.readouterr().err
    del cfg["realize"]
    del cfg["R_o"]
    rc, _ = run(tmp_path, "verify", cfg, tag="neither")
    assert rc == 2
    assert "exactly one of 'R_o' and 'realize'" in capsys.readouterr().err


def test_verify_validation(tmp_path, capsys):
    cfg = verify_cfg(0.36)
    cfg["depth"] = 1
    rc, _ = run(tmp_path, "verify", cfg, tag="shallow")
    assert rc == 2
    assert "depth must be at least 2" in capsys.readouterr().err
    cfg = verify_cfg(0.36)
    cfg["epsilon"] = 1.5
    rc, _ = run(tmp_path, "verify", cfg, tag="eps")
    assert rc == 2
    assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
    cfg = verify_cfg(0.36)
    cfg["probes"] = {"bogus": {}}
    rc, _ = run(tmp_path, "verify", cfg, tag="probes")
    assert rc == 2
    assert "unknown key 'probes.bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("datum", {"kind": "bogus"}), ("grid_h", "x"), ("R_o", -1), ("c_bar", 2),
    ("probe_radii", []), ("snapshot_steps", [1.5]), ("probe_radii", [0.5]),
    ("realize", {"r_max": -1}), ("realize", {"r_max": 0}), ("realize", {"max_halvings": -1}),
    ("probes", {"harnack": {"y": [-0.0625], "s": 0.004, "rho": 0}}),
    ("probes", {"harnack": {"y": [-0.0625], "s": 0.004, "rho": 0.01, "c": 0.5}}),
    ("probes", {"spreading": {"y": [-0.0625], "rho": -1, "t_bar": 0.004, "k": 0.1}}),
    ("probes", {"spreading": {"y": [-0.0625], "rho": 0.01, "t_bar": 0.004, "k": 0}})])
def test_verify_config_errors_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      key, value):
    solves = []
    monkeypatch.setattr(pde, "solve", lambda *args: solves.append(args))
    cfg = verify_cfg(0.36)
    del cfg["synthetic_delta"]
    cfg["solver"] = {"nodes_across": 17}
    cfg[key] = value
    if key == "realize":
        del cfg["R_o"]      # the search replaces the given radius
    solved = count_condensers(monkeypatch)
    rc, out = run(tmp_path, "verify", cfg)
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert solved == [] and solves == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["capacity", "delta-profile", "cascade", "solve",
                                     "verify"])
def test_numeric_failure_leaves_a_partial_report(tmp_path, capsys, monkeypatch, command):
    corner = {"schema_version": 1, "p": 3.0, "N": 2, "x_o": [0.0, 0.0],
              "domain": {"kind": "exterior_cube", "anchor": [0.0, 0.0], "half_edge": 0.5}}
    cfg = {"capacity": dict(corner, radii=[0.25]),
           "delta-profile": dict(corner, R_o=0.25, depth=2),
           "cascade": cascade_cfg(), "solve": solve_cfg(),
           "verify": verify_cfg(0.36)}[command]
    if command == "cascade":
        cfg["profile"]["value"] = 0.0   # A = 0: the cascade has no subsequence
    else:
        cfg["solver"] = {"nodes_across": 17}
        monkeypatch.setattr(lattice, "_MAX_ITER", 1)
    stage = {"capacity": "capacity", "delta-profile": "profile", "cascade": "cascade",
             "solve": "solve", "verify": "solve"}[command]
    rc, out = run(tmp_path, command, cfg)
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: stage '{stage}' failed: ")
    report = read_report(out)
    assert report["error"]["stage"] == stage
    assert report["error"]["message"]
    assert stage in report["timings"]
    if command == "solve":
        assert report["error"]["step_index"] >= 1
        assert math.isfinite(report["error"]["last_energy"])
    assert "write" not in report["timings"]


def test_profile_failure_in_a_fanned_out_solve_leaves_a_partial_report(tmp_path, capsys,
                                                                       monkeypatch):
    # distinct masks at every radius, solved over two workers; the first
    # ConvergenceError ends the stage
    monkeypatch.setattr(lattice, "_MAX_ITER", 1)
    cfg = {"schema_version": 1, "p": 3.0, "N": 2, "x_o": [0.0, 0.0],
           "domain": {"kind": "exterior_cube", "anchor": [0.0, 0.0], "half_edge": 0.05},
           "R_o": 0.25, "depth": 3, "solver": {"nodes_across": 17}}
    rc, out = run(tmp_path, "delta-profile", cfg, extra=("--workers", "2"))
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "error: stage 'profile' failed: condenser minimization did not converge")
    report = read_report(out)
    assert report["error"]["stage"] == "profile"
    assert math.isfinite(report["error"]["last_energy"])
    assert "profile" in report["timings"] and "write" not in report["timings"]


def test_verify_zero_capacity_fails_in_cascade_stage(tmp_path, capsys):
    rc, out = run(tmp_path, "verify", verify_cfg(0.0))
    assert rc == 3
    assert "stage 'cascade' failed" in capsys.readouterr().err
    report = read_report(out)  # partial report still written
    assert report["error"]["stage"] == "cascade"
    assert "A must be positive" in report["error"]["message"]
    measure = report["measure"]
    assert measure["window_depth"] == "inf"  # non-finite floats serialize as text
    assert measure["depth_feasible_at_t_o"] is False
    assert "regression" not in report


def test_verify_realize_fails_when_capacity_vanishes(tmp_path, capsys):
    cfg = verify_cfg(0.0)
    del cfg["R_o"]
    cfg["realize"] = {"r_max": 0.5, "max_halvings": 5}
    rc, out = run(tmp_path, "verify", cfg)
    assert rc == 3
    assert "stage 'realize' failed" in capsys.readouterr().err
    report = read_report(out)
    assert report["error"]["stage"] == "realize"
    assert "no admissible R_o" in report["error"]["message"]
    assert "constants" in report
    assert "realize" not in report


def test_verify_probe_with_unresolvable_window_is_reported(tmp_path, capsys):
    # theta * rho^p is far below dt here; the probe cannot find a stored
    # slice and the pipeline reports the stage instead of inventing data
    cfg = verify_cfg(0.36)
    cfg["probes"] = {"harnack": {"y": [-0.0625], "s": 0.004, "rho": 0.015625}}
    rc, out = run(tmp_path, "verify", cfg)
    assert rc == 3
    assert "stage 'probes' failed" in capsys.readouterr().err
    report = read_report(out)
    assert report["error"]["stage"] == "probes"
    assert "no stored slices" in report["error"]["message"]
    assert "regression" in report  # stages before the failure are preserved


def test_verify_convergence_failure_keeps_step_and_energy(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lattice, "_MAX_ITER", 1)
    cfg = verify_cfg(0.36)
    rc, out = run(tmp_path, "verify", cfg)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'solve' failed: time step ")
    report = read_report(out)
    assert report["error"]["stage"] == "solve"
    assert report["error"]["message"] in err
    step = report["error"]["step_index"]
    assert isinstance(step, int) and step >= 1
    assert f"time step {step} did not converge" in report["error"]["message"]
    assert math.isfinite(report["error"]["last_energy"])
    assert report["error"]["last_energy"] >= 0.0
