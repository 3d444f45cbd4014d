"""Source checks on src/cppforge that need only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cppforge"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, sorted.  ``__future__``
    imports are directives, not names; a name read only in a quoted
    annotation counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_dead_names():
    assert unused_imports("from math import isqrt\nimport numpy as np\nnp.zeros(1)\n") == ["isqrt"]
    assert unused_imports("from __future__ import annotations\n"
                          "from .perm import PermTable, npower_rows\n"
                          "def f(t: 'PermTable') -> int: ...\n") == ["npower_rows"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports_in_src():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = {p.name: names for p in modules if (names := unused_imports(p.read_text()))}
    assert dead == {}
