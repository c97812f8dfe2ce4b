"""Count the code lines of every capflow module in one or two source trees.

Usage (from anywhere):

    python3 tools/code_lines.py TREE [CHANGE_TREE]

A code line is a line of a module under `src/capflow` that holds a token
other than a comment and is not part of a docstring: blank lines, comment
lines and the docstrings of modules, classes and functions (found with
`ast`) do not count.  A line that holds both code and a comment counts.  With
one tree it prints each module's count and the total; with two it prints both
counts of each module and their difference, CHANGE_TREE minus TREE.  It reads
the files only, so it writes no bytecode.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python module `source`."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def count_tree(tree: str) -> dict[str, int]:
    """Code lines of each module in `tree`/src/capflow, by file name."""
    paths = glob.glob(os.path.join(tree, "src", "capflow", "*.py"))
    if not paths:
        raise SystemExit(f"no src/capflow modules under {tree}")
    counts = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = code_lines(fh.read())
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("change_tree", nargs="?")
    args = parser.parse_args(argv)
    base = count_tree(args.tree)
    if args.change_tree is None:
        for name, n in sorted(base.items()):
            print(f"{name:16s} {n:6d}")
        print(f"{'total':16s} {sum(base.values()):6d}")
        return 0
    change = count_tree(args.change_tree)
    for name in sorted(base.keys() | change.keys()):
        a, b = base.get(name, 0), change.get(name, 0)
        print(f"{name:16s} {a:6d} {b:6d} {b - a:+6d}")
    a, b = sum(base.values()), sum(change.values())
    print(f"{'total':16s} {a:6d} {b:6d} {b - a:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
