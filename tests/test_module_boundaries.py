"""No module of the package reads a private name of a sibling module.

A name with a leading underscore belongs to its module: a limit, a switch
or a helper that another module needs is stated through the owner's API
instead, as `lattice.minimize` states its iteration limit in its
ConvergenceError.  Tests may still patch private names; the package may not
read them.
"""

from __future__ import annotations

import ast
import pathlib

import capflow

PACKAGE = pathlib.Path(capflow.__file__).parent


def sibling_private_reads(path: pathlib.Path) -> list[str]:
    """`file:line: X._name` for every read of a private name of a module X
    that `path` imports by `from . import X`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for alias in node.names}
    return [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_") and not node.attr.startswith("__")]


def test_no_module_reads_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in sibling_private_reads(path)] == []


def test_the_guard_sees_a_private_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import lattice\nfrom . import pde as p\n"
                    "x = lattice._MAX_ITER + p._TOL + lattice.minimize.__name__\n")
    assert sibling_private_reads(path) == ["mod.py:3: lattice._MAX_ITER", "mod.py:3: p._TOL"]
