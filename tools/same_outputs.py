"""Compare the outputs of two capflow source trees, file by file.

Usage (from anywhere):

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE [EXTRA_CONFIG_DIR ...]

Runs every `configs/*.json` of each tree, and every `*.json` of each extra
directory, once with PARENT_TREE's `src` and once with CHANGE_TREE's `src` on
PYTHONPATH.  The file name picks the subcommand by its prefix: `capacity_`,
`delta_profile_`, `cascade_`, `solve_` or `verify_`.  BLAS pools run on one
thread.  Then it prints every output file that differs between the two runs,
one per line as `<config>/<file>`, and a summary line.  `report.json` is
compared as parsed JSON without its `timings` section, which holds wall-clock
times; every other file byte for byte.  A config whose exit status differs,
or that exists in only one tree, counts as one differing file.  Exits 0 when
nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = ("capacity", "delta-profile", "cascade", "solve", "verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def subcommand(stem: str) -> str:
    for name in COMMANDS:
        if stem.startswith(name.replace("-", "_") + "_"):
            return name
    raise SystemExit(f"{stem}.json: no subcommand prefix ({', '.join(COMMANDS)})")


def configs(dirs: list[str]) -> dict[str, str]:
    """Config stem -> path over `dirs`; a stem may appear only once."""
    found: dict[str, str] = {}
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "*.json"))):
            stem = os.path.splitext(os.path.basename(path))[0]
            if stem in found:
                raise SystemExit(f"config {stem} is in both {found[stem]} and {path}")
            found[stem] = path
    return found


def run(tree: str, config: str, out: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    stem = os.path.splitext(os.path.basename(config))[0]
    os.makedirs(out)
    done = subprocess.run([sys.executable, "-m", "capflow.cli", subcommand(stem),
                           "--config", os.path.abspath(config), "--out", out],
                          env=env, cwd=out, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def outputs(out: str) -> dict[str, object]:
    """Relative path -> comparable content of every file under `out`."""
    files: dict[str, object] = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            if name == "report.json":
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                report.pop("timings", None)
                files[os.path.relpath(path, out)] = report
            else:
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent source tree")
    parser.add_argument("change", help="changed source tree")
    parser.add_argument("extra", nargs="*", help="more directories of configs")
    args = parser.parse_args(argv)

    per_tree = {tree: configs([os.path.join(tree, "configs"), *args.extra])
                for tree in (args.parent, args.change)}
    stems = sorted(set(per_tree[args.parent]) | set(per_tree[args.change]))
    differ, compared = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for stem in stems:
            if not all(stem in per_tree[t] for t in per_tree):
                differ.append(f"{stem}: config in one tree only")
                continue
            result = []
            for label, tree in (("parent", args.parent), ("change", args.change)):
                out = os.path.join(tmp, label, stem)
                result.append((run(tree, per_tree[tree][stem], out), outputs(out)))
            (code_a, files_a), (code_b, files_b) = result
            if code_a != code_b:
                differ.append(f"{stem}: exit status {code_a} != {code_b}")
            for name in sorted(set(files_a) | set(files_b)):
                compared += 1
                if files_a.get(name) != files_b.get(name):
                    differ.append(f"{stem}/{name}")
    for line in differ:
        print(line)
    print(f"{len(differ)} of {compared} output files differ over {len(stems)} configs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
