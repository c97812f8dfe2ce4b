"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import accuracy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("shape,h", [((9,), 0.3), ((7, 7), 0.2)])
def test_energy_gradient_matches_finite_differences(shape, h):
    from capflow.lattice import LatticeSystem
    system = LatticeSystem(shape, h)
    u = np.random.default_rng(1).random(system.n_nodes)
    p, eps = 3.0, 1e-6
    grad = accuracy.p_energy_gradient(u.reshape(shape), h, p, len(shape)).ravel()
    fd = [(system.energy(u + eps * e, p) - system.energy(u - eps * e, p)) / (2 * eps * p)
          for e in np.eye(system.n_nodes)]
    np.testing.assert_allclose(grad, fd, atol=1e-7 * np.abs(grad).max())


def test_self_time_subtracts_union_of_children():
    tracer = spans.Tracer()
    outer = spans.Span(1, "lattice.solve_dirichlet", 0.0, None, 0)
    outer.end = 10.0
    outer.info["unknowns"] = 4
    kids = [("lattice.laplacian", 1.0, 3.0), ("lattice.linsolve", 2.0, 5.0),
            ("lattice.linsolve", 7.0, 8.0)]
    tracer.spans.append(outer)
    for sid, (name, lo, hi) in enumerate(kids, start=2):
        span = spans.Span(sid, name, lo, 1, 0)
        span.end = hi
        tracer.spans.append(span)
    m = spans.summarize(tracer.spans, workers=1)
    assert m["lattice.slice_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert m["lattice.linsolve_s"] == pytest.approx(4.0)
    assert m["lattice.solve_calls"] == 1


def test_seed_zero_is_the_documented_config_and_seeds_translate():
    corner = workloads.corner_config(0)
    assert corner["time"]["steps"] == 100 and "R_o" not in corner
    assert corner["x_o"] == corner["box"]["center"] == corner["domain"]["anchor"] == [0.0, 0.0]
    moved = workloads.corner_config(7)
    assert moved["x_o"] == moved["box"]["center"] == moved["domain"]["anchor"]
    assert all(c * 128 == int(c * 128) for c in moved["x_o"])
    assert workloads.cantor_config(7) == workloads.cantor_config(7)
    assert workloads.source_config(0)["box"]["center"] == [0.0]


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _bench(tmp_path, "--workload", "source_1d", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


@pytest.mark.parametrize("workload", ["source_1d", "cantor_profile"])
def test_two_traced_runs_give_identical_counters(workload):
    counters = []
    for _ in range(2):
        res = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", "1")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert json.loads(lines[-1])["correct"]
        counters.append(next(json.loads(line.split(":", 1)[1]) for line in lines
                             if line.startswith("counters:")))
    assert counters[0] == counters[1]
    assert counters[0]["lattice.solve_calls"] > 0
