"""Record one capflow source tree's benchmark figures in a BENCH file.

Usage (from anywhere):

    python3 tools/bench_record.py TREE --out BENCH_<n>.json
        [--runs N] [--seed S] [--seconds T] [--counter-seed C]

For each benchmark workload it runs TREE's own `perfbench/run.py --workload W
--seed S+i --seconds T --trace 0` N times (at least 3), from the root of
TREE and through `tools/bench_pairs.py`'s `bench`: each run's bytecode
cache is a fresh, empty temporary directory, so TREE's `__pycache__` is not
read.  It
records each end-to-end metric's median, quartiles and values, each run's
`host_calib_s` (the host-speed gauge of `run.py`), the first run's `env`
record, and the runs that gave no result, read `correct: false` or counted a
failed call.

Then it calls TREE's `capflow.cli.main` once per workload in this process,
on the workload's config at seed C, with the workload's own arguments, and
records deterministic counters of that call (see `COUNTERS`).  They are
counted by wrapping library functions for the call, so they show a change of
solver work when wall-clock time is too noisy to.  Beside them it records
`traced_peak_mb`, the `tracemalloc` peak of that call in MB of 2**20 bytes
(the unit of perfbench's `peak_rss_mb`): the most memory the call's Python
and NumPy allocations held at once.  It repeats to about 0.01% on a large
config but moves by up to 40% on a tiny one, so it is not a counter.  The
file also records `git describe --always --dirty` of TREE, or null outside
a git checkout.
Exits 0 when every run was correct and 1 otherwise; the file is written
either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

from bench_pairs import bench, quartiles

# what each counter counts, over one CLI call
COUNTERS = {
    "objective_evals": "LatticeSystem.energy_from_gsq calls: objective evaluations "
                       "of minimize, and the energies of a solve's energy table",
    "solve_dirichlet": "LatticeSystem.solve_dirichlet calls",
    "splu": "SuperLU factorizations (scipy.sparse.linalg.splu calls from lattice)",
    "triangular_solves": "solve calls on those factors",
    "failed_lagged": "lagged PCG attempts on a factor that failed, so that the "
                     "solve factored afresh",
    "time_steps_minimized": "capflow.pde.minimize calls: the time steps that ran the "
                            "minimizer, and not a repeated stationary step",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _CountingLU:
    """A SuperLU factor whose solve calls are counted."""

    def __init__(self, lu, tick):
        self._lu = lu
        self._tick = tick

    def solve(self, rhs):
        self._tick("triangular_solves")
        return self._lu.solve(rhs)


def count(argv: list[str]) -> dict[str, int]:
    """Call `capflow.cli.main(argv)` once in this process and return the
    counters of `COUNTERS`.  The wrappers are removed afterwards.  Raises
    RuntimeError when a wrapped name is missing or the call fails."""
    from capflow import cli, lattice, pde

    counts = dict.fromkeys(COUNTERS, 0)
    lock = threading.Lock()      # the CLI may fan out over threads

    def tick(name: str) -> None:
        with lock:
            counts[name] += 1

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick(name)
            return fn(*args, **kwargs)
        return wrapper

    def factor(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick("splu")
            return _CountingLU(fn(*args, **kwargs), tick)
        return wrapper

    def lagged(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is None:
                tick("failed_lagged")
            return out
        return wrapper

    system = lattice.LatticeSystem
    wraps = [(system, "energy_from_gsq", functools.partial(counted, "objective_evals")),
             (system, "solve_dirichlet", functools.partial(counted, "solve_dirichlet")),
             (lattice.spla, "splu", factor),
             (lattice, "_lagged_solve", lagged),
             (pde, "minimize", functools.partial(counted, "time_steps_minimized"))]
    missing = [f"{owner.__name__}.{name}" for owner, name, _ in wraps
               if not hasattr(owner, name)]
    if missing:
        raise RuntimeError(f"capflow lacks {', '.join(missing)}")
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in wraps]
    try:
        for owner, name, wrap in wraps:
            setattr(owner, name, wrap(getattr(owner, name)))
        rc = cli.main(argv)
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    if rc != 0:
        raise RuntimeError(f"capflow {' '.join(argv)} exited with {rc}")
    return counts


def traced_peak(fn, *args):
    """(fn(*args), the `tracemalloc` peak of that call in MB).  Tracing
    stops afterwards unless it was on before."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        if not was_tracing:
            tracemalloc.stop()


def commit(tree: str) -> str | None:
    """`git describe --always --dirty` of `tree`, or None outside a checkout."""
    done = subprocess.run(["git", "-C", tree, "describe", "--always", "--dirty"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def record_timings(tree: str, workload: str, seeds: list[int], seconds: float,
                   metrics: list[dict]) -> dict:
    """The end-to-end figures of one run of `workload` per seed."""
    runs = [bench(tree, workload, seed, seconds) for seed in seeds]
    out: dict = {"seeds": seeds, "metrics": {}, "bad_runs": []}
    for seed, res in zip(seeds, runs):
        if res is None:
            out["bad_runs"].append(f"seed {seed}: no result")
        elif not res.get("correct") or res.get("failed", 0) > 0:
            out["bad_runs"].append(f"seed {seed}: correct {res.get('correct')}, failed "
                                   f"{res.get('failed')} of {res.get('attempted')}")
    for metric in metrics:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs
                  if r and name in r.get("metrics", {})]
        if values:
            q1, q2, q3 = quartiles(values)
            out["metrics"][name] = {"unit": metric["unit"], "median": q2, "q1": q1, "q3": q3,
                                    "values": values}
    envs = [r["env"] for r in runs if r and "env" in r]
    if envs:
        out["env"] = {k: v for k, v in envs[0].items() if k != "host_calib_s"}
        out["host_calib_s"] = [e.get("host_calib_s") for e in envs]
    return out


def record_counters(tree: str, seed: int) -> dict:
    """The counters and the traced peak of one CLI call per workload of
    `tree` at `seed`, as {workload: (counters, traced_peak_mb)}."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    root = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import capflow
    import workloads

    if not os.path.abspath(capflow.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"capflow imported from {capflow.__file__}, not from {tree}")
    out = {}
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        for w in workloads.WORKLOADS.values():
            config = os.path.join(tmp, f"{w.name}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(w.make_config(seed), fh)
            out[w.name] = traced_peak(count, w.argv(config, os.path.join(tmp, w.name)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="capflow source tree")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first run")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--counter-seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    with open(os.path.join(args.tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)

    seeds = list(range(args.seed, args.seed + args.runs))
    result = {"commit": commit(args.tree), "runs": args.runs, "seconds": args.seconds,
              "counter_seed": args.counter_seed, "counters": COUNTERS, "workloads": {}}
    for w in benchmark["workloads"]:
        result["workloads"][w["name"]] = record_timings(
            args.tree, w["name"], seeds, args.seconds, benchmark["end_to_end"])
        print(f"{w['name']}: timed {args.runs} runs", file=sys.stderr)
    for name, (counts, peak) in record_counters(args.tree, args.counter_seed).items():
        result["workloads"][name]["counters"] = counts
        result["workloads"][name]["traced_peak_mb"] = peak
        print(f"{name}: {json.dumps(counts)}, traced peak {peak:.2f} MB", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    bad = [f"{name} {line}" for name, w in result["workloads"].items() for line in w["bad_runs"]]
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
