"""The in-process counters of tools/bench_record.py, on shipped configs."""

from __future__ import annotations

import importlib
import json
import pathlib

import pytest

from capflow import lattice, pde
from capflow.lattice import LatticeSystem
from helpers import count_calls, count_solves

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_record")


def test_a_1d_verify_run_counts_solves_and_no_factor(bench_record, monkeypatch, tmp_path):
    # the 1D time loop solves by dptsv: it makes and uses no SuperLU factor
    solves = count_solves(monkeypatch)
    objectives = count_calls(monkeypatch, LatticeSystem, "energy_from_gsq")
    steps = count_calls(monkeypatch, pde, "minimize")
    counts = bench_record.count(["verify", "--config", str(ROOT / "configs/verify_synthetic.json"),
                                 "--out", str(tmp_path / "out")])
    assert set(counts) == set(bench_record.COUNTERS)
    assert counts["solve_dirichlet"] == len(solves) > 0
    assert counts["objective_evals"] == len(objectives) > 0
    # the config's 10 time steps all move
    assert counts["time_steps_minimized"] == len(steps) == 10
    assert counts["splu"] == counts["triangular_solves"] == counts["failed_lagged"] == 0


def test_a_2d_profile_counts_the_same_work_twice(bench_record, monkeypatch, tmp_path):
    # condensers fanned out over two threads, each with its own system: the
    # counts repeat exactly, and the wrappers are gone after each call
    solves = count_solves(monkeypatch)
    originals = (LatticeSystem.solve_dirichlet, LatticeSystem.energy_from_gsq,
                 lattice.spla.splu, lattice._lagged_solve, pde.minimize)
    runs = []
    for k in range(2):
        runs.append(bench_record.count(
            ["delta-profile", "--config", str(ROOT / "configs/delta_profile_slit.json"),
             "--out", str(tmp_path / f"out{k}"), "--workers", "2"]))
        assert (LatticeSystem.solve_dirichlet, LatticeSystem.energy_from_gsq,
                lattice.spla.splu, lattice._lagged_solve, pde.minimize) == originals
    assert runs[0] == runs[1]
    assert 2 * runs[0]["solve_dirichlet"] == len(solves)
    assert 0 < runs[0]["splu"] < runs[0]["triangular_solves"]
    assert runs[0]["time_steps_minimized"] == 0     # no time loop


def test_the_traced_peak_holds_at_least_the_stored_field(bench_record, tmp_path):
    # a 1D verify run holds (steps + 1) x nodes float64 values of field
    config = ROOT / "configs/verify_synthetic.json"
    counts, peak = bench_record.traced_peak(
        bench_record.count, ["verify", "--config", str(config), "--out", str(tmp_path / "out")])
    assert set(counts) == set(bench_record.COUNTERS)
    cfg = json.loads(config.read_text(encoding="utf-8"))
    nodes = round(2 * cfg["box"]["half_edge"] / cfg["grid_h"]) + 1
    assert peak >= (cfg["time"]["steps"] + 1) * nodes * 8 / 2 ** 20 > 0.0


def test_a_failed_call_raises(bench_record, tmp_path):
    with pytest.raises(RuntimeError, match="exited with 2"):
        bench_record.count(["verify", "--config", str(tmp_path / "missing.json"),
                            "--out", str(tmp_path / "out")])
