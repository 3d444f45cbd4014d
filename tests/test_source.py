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


def dead_private_names(sources: dict) -> list[str]:
    """Module-level private functions, classes and assigned names that no
    module of ``sources`` (module name -> source) reads, as ``module.name``,
    sorted.  A name that is only the target of item assignment, such as a
    cache written and never looked up, counts as unread."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((module, n) for n in names
                           if n.startswith("_") and not n.startswith("__"))
        stored = {id(n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and id(node) not in stored:
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{m}.{n}" for m, n in defined if n not in read)


def test_dead_private_names_finds_unread_names():
    sources = {"a": "_CACHE: dict = {}\n_USED = 1\n"
                    "def _helper():\n    return _USED\n"
                    "def f(k):\n    _CACHE[k] = 2\n"
                    "class _Kept:\n    pass\n",
               "b": "from . import a\nfrom .a import _Kept\nx = _Kept(), a._LATER\n"
                    "_LATER = 2\n"}
    assert dead_private_names(sources) == ["a._CACHE", "a._helper"]


def test_no_dead_private_names_in_src():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []
