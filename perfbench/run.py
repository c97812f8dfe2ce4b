"""capflow benchmark: one workload, closed loop, one client.

Usage (from the root of a capflow checkout):

    python3 perfbench/run.py --workload corner_verify --seed 0 --seconds 20 --trace 0

Runs `capflow.cli.main` on a config generated from the seed, back to back,
until --seconds have passed (at least once), and checks every call's output
against the workload's correctness gate.  With --trace 0 the last stdout line
reports the end-to-end metrics; with --trace 1 the same untraced loop runs,
followed by a traced loop whose spans give the per-layer metrics.  The
workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
# accuracy certificates are reported no lower than this, so an exact solver
# reads as a steady floor instead of round-off noise
ERR_FLOOR = 1e-9
# BLAS pools pinned to one thread; the CLI's own fan-out stays at --workers.
# They must be set before NumPy loads, so the benchmark's own NumPy-using
# modules (accuracy, spans, workloads) are imported inside functions.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "err_max": "1"}
PER_LAYER_UNITS = {
    "lattice.slice_s": "s", "lattice.assemble_s": "s", "lattice.assemble_calls": "count",
    "lattice.linsolve_s": "s", "lattice.solve_calls": "count",
    "lattice.unknowns_mean": "count", "lattice.energy_s": "s",
    "lattice.energy_calls": "count", "lattice.weights_s": "s",
    "capacity.condenser_s": "s", "capacity.condenser_calls": "count",
    "capacity.full_cube_s": "s", "capacity.iters_mean": "count",
    "capacity.iters_max": "count", "capacity.backtracks": "count",
    "capacity.delta_calls": "count", "capacity.resid_max": "1",
    "geometry.rasterize_s": "s", "geometry.rasterize_calls": "count",
    "wiener.realize_s": "s", "wiener.profile_s": "s", "wiener.fanout_eff": "1",
    "pde.solve_s": "s", "pde.steps": "count", "pde.solves_per_step_mean": "count",
    "pde.solves_per_step_max": "count", "pde.backtracks": "count",
    "pde.step_s_max": "s", "pde.datum_s": "s", "pde.measure_s": "s",
    "pde.snapshot_s": "s", "pde.step_err_max": "1", "pde.ref_err": "1",
    "probes.regression_s": "s", "cli.parse_s": "s", "cli.write_s": "s",
    "setup.import_s": "s", "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def host_calib_s() -> float:
    """Median time of a fixed pure-Python loop.  The shared host's speed
    drifts; this gauge, printed next to the numbers, shows by how much."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(src: str, cli_args: list[str]) -> list[tuple[float, float]]:
    """(spawn-to-ready seconds, import seconds) of fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), src, "--",
                 *cli_args], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or not line:
            raise SetupError(f"set-up probe failed with exit code {rc}")
        out.append((ready, json.loads(line)["import_s"]))
    return out


class Capture:
    """Keeps the fields a call returns, for the accuracy certificates."""

    def __init__(self):
        self.fields = []
        self.condensers = []

    def install(self, patches) -> None:
        from capflow import capacity, pde

        def keep_field(solve):
            @functools.wraps(solve)
            def wrapper(*args, **kwargs):
                field = solve(*args, **kwargs)
                self.fields.append(field)
                return field
            return wrapper

        def keep_condenser(minimize):
            @functools.wraps(minimize)
            def wrapper(*args, **kwargs):
                result = minimize(*args, **kwargs)
                self.condensers.append((args[0] if args else kwargs["problem"], result[0]))
                return result
            return wrapper

        patches.wrap(pde, "solve", keep_field)
        patches.wrap(capacity, "minimize_condenser", keep_condenser)
        if patches.missing:
            raise SetupError(f"capflow lacks {', '.join(patches.missing)}")

    def step_err_max(self) -> float:
        import accuracy
        worst = 0.0
        for field in self.fields:
            grid = field.grid
            if list(field.stored_steps) != list(range(grid.n_steps + 1)):
                raise SetupError("the solve did not store every time step")
            errs = accuracy.step_errors(field.values, grid.times, grid.inside,
                                        grid.shape, grid.h, field.p)
            worst = max(worst, float(errs.max()))
        return worst

    def condenser_resid_max(self) -> float:
        import accuracy
        worst = 0.0
        for problem, psi in self.condensers:
            plate = accuracy.condenser_plate(problem, psi.shape)
            worst = max(worst, accuracy.condenser_residual(psi, plate, problem.obstacle.h,
                                                           problem.p))
        return worst


class Runner:
    def __init__(self, workload, config: dict, work: str):
        self.workload = workload
        self.config = config
        self.work = work
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
        self.calls = 0

    def cli_args(self, out_dir: str) -> list[str]:
        return self.workload.argv(self.config_path, out_dir)

    def call(self, tracer=None) -> dict:
        """One cli.main call; returns its wall time, gate problems and
        accuracy certificates."""
        import spans
        import workloads
        from capflow import cli

        self.calls += 1
        out_dir = os.path.join(self.work, f"call{self.calls}")
        capture = Capture()
        patches = spans.Patches()
        capture.install(patches)
        if tracer is not None:
            spans.install(tracer, patches)
        try:
            t0 = time.perf_counter()
            rc = cli.main(self.cli_args(out_dir))
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            rc, wall = None, None
        finally:
            patches.undo()
        result = {"wall_s": wall, "missing": patches.missing,
                  "problems": [] if rc == 0 else [f"exit code {rc}"]}
        if rc == 0:
            try:
                result["problems"] += self.workload.gate(out_dir, self.config)
                result["step_err_max"] = capture.step_err_max()
                result["condenser_resid_max"] = capture.condenser_resid_max()
                if self.workload.name == "source_1d":
                    result["ref_err"] = workloads.source_ref_err(out_dir, self.config)
            except (KeyError, ValueError, OSError) as exc:
                result["problems"].append(f"output check raised {exc!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def loop(self, seconds: float, make_tracer=None) -> list[dict]:
        results = []
        t_end = time.perf_counter() + seconds
        while True:
            tracer = make_tracer() if make_tracer else None
            res = self.call(tracer)
            res["tracer"] = tracer
            results.append(res)
            for msg in res["problems"]:
                print(f"{self.workload.name}: call {self.calls} failed: {msg}",
                      file=sys.stderr)
            figures = {k: res[k] for k in ("wall_s", "step_err_max",
                                           "condenser_resid_max", "ref_err") if k in res}
            print(f"{self.workload.name}: call {self.calls} "
                  f"{'traced ' if tracer else ''}{json.dumps(figures)}", file=sys.stderr)
            if time.perf_counter() >= t_end:
                return results


def run(args) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "capflow", "cli.py")):
        raise SetupError(f"no capflow sources under {src}; run from the root of a "
                         "capflow checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import capflow
    if not os.path.abspath(capflow.__file__).startswith(src + os.sep):
        raise SetupError(f"capflow imported from {capflow.__file__}, not from {src}")
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_out", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(workload, workload.make_config(args.seed), work)
        env = environment()
        calib_before = host_calib_s()
        setup = measure_setup(src, runner.cli_args(os.path.join(work, "setup")))
        plain = runner.loop(args.seconds)
        traced = runner.loop(args.seconds, spans.Tracer) if args.trace else []
        env["host_calib_s"] = [calib_before, host_calib_s()]
        print("env: " + json.dumps(env, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = plain + traced
    failed = sum(1 for r in calls if r["problems"])
    ok = [r for r in calls if not r["problems"]]
    walls = [r["wall_s"] for r in plain if not r["problems"]]
    summary = {"correct": failed == 0, "attempted": len(calls), "failed": failed}
    if not walls:
        summary["metrics"] = {}
        return summary

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s[0] for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "err_max": max(ERR_FLOOR, *(r[workload.err_key] for r in ok)),
        }
        units = END_TO_END_UNITS
    else:
        traced_ok = [r for r in traced if not r["problems"]]
        if not traced_ok:
            summary["metrics"] = {}
            return summary
        layers = [spans.summarize(r["tracer"].spans, workload.workers) for r in traced_ok]
        metrics = {}
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if name in spans.COUNTERS:
                if any(v != values[0] for v in values):
                    print(f"counter {name} differs between traced calls: {values}",
                          file=sys.stderr)
                    summary["correct"] = False
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["capacity.resid_max"] = max(r["condenser_resid_max"] for r in ok)
        metrics["pde.step_err_max"] = max(r["step_err_max"] for r in ok)
        metrics["pde.ref_err"] = max((r.get("ref_err", 0.0) for r in ok))
        metrics["setup.import_s"] = statistics.median(s[1] for s in setup)
        traced_wall = statistics.median(r["wall_s"] for r in traced_ok)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        print("counters: " + json.dumps({k: metrics[k] for k in spans.COUNTERS}))
        missing = sorted(set(traced_ok[0]["missing"]))
        if missing:
            print("not traced (entry point not found): " + ", ".join(missing))
        write_trace(os.path.join(root, ".bench_out", f"trace-{workload.name}.json"),
                    traced_ok[-1]["tracer"])
        units = PER_LAYER_UNITS
    summary["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return summary


def write_trace(path: str, tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([s.to_dict() for s in tracer.spans], fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
