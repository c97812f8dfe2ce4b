"""Compare two capflow source trees on one benchmark workload, run in pairs.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W
        [--pairs N] [--seed S] [--seconds T]

Pair i runs each tree's own `perfbench/run.py --workload W --seed S+i
--seconds T --trace 0`, from the root of that tree, once per tree: the parent
first in even pairs and the change first in odd ones, so neither side always
runs on a warmer or a cooler host.  Each run reads and writes bytecode only
under a fresh, empty temporary directory set as its PYTHONPYCACHEPREFIX and
removed afterwards.  So neither tree's `__pycache__` is read, and bytecode
left in one tree by a test run cannot make its imports look faster; nothing
is written under either tree's `perfbench/`.  `run.py` keeps its scratch
files under `.bench_out/` at the root of the tree.

For each end-to-end metric of CHANGE_TREE's `BENCHMARK.json` it then prints
each side's median and quartiles, the number of pairs in which the change
was strictly better, the parent's interquartile range, and the metric's
`verdict` against its bound.  Every run whose result reads `correct:
false`, counts a failed call, or gives no result is printed on a line of
its own, and its metrics, if any, still count.  Exits 0 when every run was
correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run of `tree`, with the run's `env:`
    record under "env" when it printed one, or None without a result.  The
    run's bytecode cache is a fresh, empty temporary directory."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        res = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith("env: "):
                res["env"] = json.loads(line[len("env: "):])
    except json.JSONDecodeError:
        return None
    return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """How the change's runs of one metric compare with the parent's, given
    the metric's relative `bound` and whether lower is better: "worse beyond
    bound" when the change's median is worse than the parent's by more than
    `bound` times the parent's median, "unresolved" when the parent's
    interquartile range exceeds that, and "within bound" otherwise."""
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if (cm - pm if lower else pm - cm) > bound * abs(pm):
        return "worse beyond bound"
    if p3 - p1 > bound * abs(pm):
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent source tree")
    parser.add_argument("change", help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    trees = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict | None]] = {"parent": [], "change": []}
    bad = []
    for i in range(args.pairs):
        seed = args.seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            res = bench(trees[side], args.workload, seed, args.seconds)
            results[side].append(res)
            if res is None:
                bad.append(f"pair {i} (seed {seed}) {side}: no result")
            elif not res.get("correct") or res.get("failed", 0) > 0:
                bad.append(f"pair {i} (seed {seed}) {side}: correct "
                           f"{res.get('correct')}, failed {res.get('failed')} of "
                           f"{res.get('attempted')}")
            print(f"pair {i} seed {seed} {side}: "
                  f"{json.dumps(res['metrics'] if res else None)}", file=sys.stderr)

    for line in bad:
        print(line)
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{args.seconds:g} s per run")
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] if r and name in r.get("metrics", {})
                         else None for r in runs] for side, runs in results.items()}
        pairs = [(a, b) for a, b in zip(values["parent"], values["change"])
                 if a is not None and b is not None]
        if not pairs:
            print(f"{name}: no pair has it")
            continue
        won = sum(1 for a, b in pairs if (b < a if lower else b > a))
        present = {side: [v for v in vals if v is not None] for side, vals in values.items()}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(present[side]) for side in ("parent", "change"))
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}]; "
              f"change better in {won} of {len(pairs)} pairs; parent IQR {p3 - p1:.3g}, "
              f"median change {(cm - pm) / pm if pm else float('nan'):+.1%}; "
              f"{verdict(present['parent'], present['change'], metric['bound'], lower)} "
              f"({metric['bound']:.0%})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
