"""The three workloads: config generation from a seed, and correctness gates.

A seed picks a translation of the whole geometry by a whole number of cells
of every lattice the workload builds, with a dyadic step so node coordinates
stay exact.  The work is the same for every seed; the input floats differ.
Seed 0 is the untranslated configuration.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import accuracy

HERE = os.path.dirname(os.path.abspath(__file__))

# cantor_profile's delta values at the seed commit (seed 0), and how far a
# run may move from them; see README.md for how the tolerance was chosen
with open(os.path.join(HERE, "reference", "cantor_profile.json"), encoding="utf-8") as fh:
    CANTOR_REFERENCE = json.load(fh)
CANTOR_DELTA_TOL = CANTOR_REFERENCE["tolerance"]
# largest nodal error against the exact solution that source_1d accepts
SOURCE_REF_ERR_MAX = 2.0e-4


def _shift(seed: int, ndim: int, max_units: int) -> list[int]:
    if seed == 0:
        return [0] * ndim
    rng = random.Random(seed)
    return [rng.randint(-max_units, max_units) for _ in range(ndim)]


def _moved(point, units, unit_length):
    return [float(c + k * unit_length) for c, k in zip(point, units)]


def corner_config(seed: int) -> dict:
    # unit 1/128: a whole number of cells of the 1/512 time-loop lattice and
    # of every condenser lattice (realize from r_max 0.25 down, then the
    # profile radii below R_o = 0.0625)
    k = _shift(seed, 2, 16)
    return {
        "schema_version": 1, "p": 3.0, "N": 2,
        "constants": {"bar_gamma": 0.0},
        "domain": {"kind": "exterior_cube", "anchor": _moved([0.0, 0.0], k, 1 / 128),
                   "half_edge": 0.5},
        "x_o": _moved([0.0, 0.0], k, 1 / 128),
        "t_o": 0.02, "epsilon": 0.5,
        "realize": {"r_max": 0.25, "max_halvings": 6},
        "depth": 3,
        "box": {"center": _moved([0.0, 0.0], k, 1 / 128), "half_edge": 0.125},
        "grid_h": 0.001953125,
        "time": {"mode": "uniform", "T": 0.02, "steps": 100},
        "datum": {"kind": "ramped_distance", "scale": 0.05, "ramp_time": 0.004},
        "solver": {"nodes_across": 65},
    }


def cantor_config(seed: int) -> dict:
    # unit 1/64: three cells of the R_o = 0.25 lattice (h = 1/192) and 3 * 4**i
    # cells at radius 0.25**i * R_o
    k = _shift(seed, 2, 16)
    return {
        "schema_version": 1, "p": 3.0, "N": 2,
        "domain": {"kind": "cantor_obstacle", "anchor": _moved([0.0, 0.0], k, 1 / 64),
                   "level": 6, "ratio": 0.25},
        "x_o": _moved([0.0, 0.0], k, 1 / 64),
        "R_o": 0.25, "depth": 6,
        "solver": {"nodes_across": 97},
    }


SOURCE_H = 0.01953125


def source_config(seed: int) -> dict:
    # the source sits at the origin; the box moves by whole cells around it
    k = _shift(seed, 1, 8)
    return {
        "schema_version": 1, "p": 3.0, "N": 1,
        "domain": {"kind": "full_space"},
        "box": {"center": _moved([0.0], k, SOURCE_H), "half_edge": 2.5},
        "grid_h": SOURCE_H,
        "time": {"mode": "uniform", "T": 1.0, "steps": 1024},
        "datum": {"kind": "barenblatt", "t_offset": 1.0, "mass_scale": 1.0},
        "snapshot_steps": [1024],
    }


# -- gates ---------------------------------------------------------------------

def _report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _deltas_ok(deltas) -> bool:
    return all(0.0 <= d <= 1.0 for d in deltas)


def corner_gate(out_dir: str, config: dict) -> list[str]:
    rep = _report(out_dir)
    problems = []
    if rep["realize"]["R_o"] != 0.0625:
        problems.append(f"R_o {rep['realize']['R_o']} != 0.0625")
    reg = rep["regression"]
    if not reg["slope"] < 0.0:
        problems.append(f"slope {reg['slope']} not negative")
    if not abs(reg["correlation"]) >= 0.9:
        problems.append(f"|corr| {abs(reg['correlation'])} < 0.9")
    oscs = [m["osc"] for m in rep["measure"]["measured"]]
    if len(oscs) != 4 or not all(b <= a * 1.05 for a, b in zip(oscs, oscs[1:])):
        problems.append(f"oscillations {oscs} not monotone within 5%")
    if not _deltas_ok(e["delta"] for e in rep["profile"]["entries"]):
        problems.append("delta outside [0, 1]")
    return problems


def cantor_gate(out_dir: str, config: dict) -> list[str]:
    deltas = [e["delta"] for e in _report(out_dir)["profile"]["entries"]]
    problems = []
    if not _deltas_ok(deltas):
        problems.append(f"delta outside [0, 1]: {deltas}")
    ref = CANTOR_REFERENCE["delta"]
    if len(deltas) != len(ref):
        problems.append(f"profile depth {len(deltas)} != {len(ref)}")
    else:
        worst = max(abs(d - r) for d, r in zip(deltas, ref))
        if not worst <= CANTOR_DELTA_TOL:
            problems.append(f"profile differs from the reference by {worst:.3g} "
                            f"> {CANTOR_DELTA_TOL:g}")
    return problems


def source_ref_err(out_dir: str, config: dict) -> float:
    """Largest nodal error of the written final snapshot against the exact
    Barenblatt solution."""
    steps = config["time"]["steps"]
    with open(os.path.join(out_dir, f"field_step{steps}.csv"), encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]   # drop header
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    datum = config["datum"]
    exact = accuracy.barenblatt(data[:, 0], config["time"]["T"] + datum["t_offset"],
                                config["p"], datum["mass_scale"])
    return float(np.max(np.abs(data[:, 2] - exact)))


def source_gate(out_dir: str, config: dict) -> list[str]:
    err = source_ref_err(out_dir, config)
    if not err <= SOURCE_REF_ERR_MAX:
        return [f"ref_err {err:.3g} > {SOURCE_REF_ERR_MAX:g}"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    make_config: Callable[[int], dict]
    gate: Callable[[str, dict], list[str]]
    err_key: str            # the certificate reported as the workload's err_max

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir,
                "--workers", str(self.workers)]


WORKLOADS = {
    w.name: w for w in (
        Workload("corner_verify", "verify", 1, corner_config, corner_gate,
                 "step_err_max"),
        Workload("cantor_profile", "delta-profile", 2, cantor_config, cantor_gate,
                 "condenser_resid_max"),
        Workload("source_1d", "solve", 1, source_config, source_gate,
                 "step_err_max"),
    )
}
