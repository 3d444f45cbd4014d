"""Source checks on src/cppforge that need only the standard library."""

import ast
import re
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


def hand_rolled_caches(sources: dict) -> list[str]:
    """Module-level dicts of ``sources`` (module name -> source) that any
    module item-assigns, or calls ``setdefault`` or ``update`` on, as
    ``module.name``, sorted, plus ``module:lru_cache`` for each module that
    names ``lru_cache``.  A dict that is only read, such as a registry built
    once, passes: the one memo idiom is a ``functools.cache``d function."""
    trees = {m: ast.parse(s) for m, s in sources.items()}
    dicts = {}  # name -> defining module
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"):
                dicts.update((t.id, module) for t in targets if isinstance(t, ast.Name))
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("setdefault", "update"):
                target = node.func.value
            elif (isinstance(node, ast.Name) and node.id == "lru_cache") or \
                    (isinstance(node, ast.Attribute) and node.attr == "lru_cache") or \
                    (isinstance(node, ast.alias) and node.name == "lru_cache"):
                found.add(f"{module}:lru_cache")
                continue
            else:
                continue
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name in dicts:
                found.add(f"{dicts[name]}.{name}")
    return sorted(found)


def test_hand_rolled_caches_finds_written_dicts():
    sources = {"a": "_CACHE: dict = {}\nTABLE = {'x': 1}\n_MEMO = dict()\n"
                    "def f(k):\n    _CACHE[k] = TABLE['x']\n    return _CACHE[k]\n",
               "b": "from . import a\nimport functools\n_SEEN = {}\n"
                    "def g(k):\n    a._MEMO.setdefault(k, 2)\n    _SEEN.update({k: 1})\n"
                    "@functools.lru_cache(maxsize=None)\ndef h(k):\n    return k\n",
               "c": "from functools import cache, lru_cache\nPLAIN = {}\n"
                    "@cache\ndef i(k):\n    out = {}\n    out[k] = PLAIN.get(k)\n    return out\n"}
    assert hand_rolled_caches(sources) == ["a._CACHE", "a._MEMO", "b._SEEN",
                                           "b:lru_cache", "c:lru_cache"]


def test_one_memo_idiom_in_src():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert hand_rolled_caches(sources) == []


def unread_public_names(defining: dict, readers: list, text: str = "") -> list[str]:
    """Public module-level functions and classes of ``defining`` (module
    name -> source) that no source in ``readers`` reads, as a name or an
    attribute, and no word of ``text`` names, as ``module.name``, sorted.
    A definition, or an import, is not a read."""
    read = set(re.findall(r"\w+", text))
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}.{node.name}" for module, source in defining.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def test_unread_public_names_finds_unread_definitions():
    defining = {"a": "def used():\n    pass\n"
                     "def unread():\n    pass\n"
                     "class Documented:\n    pass\n"
                     "def _private():\n    pass\n"
                     "def method_holder():\n    class Inner:\n        pass\n",
                "b": "from .a import unread, used\nimport a\n"
                     "def called():\n    return a.method_holder()\n"}
    readers = list(defining.values()) + ["from b import called\ncalled()\nused()\n"]
    assert unread_public_names(defining, readers, "See `Documented`.") == ["a.unread"]
    assert unread_public_names(defining, readers) == ["a.Documented", "a.unread"]


def test_every_public_name_in_src_is_read():
    root = SRC.parent.parent
    readers = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in sorted((root / d).rglob("*.py"))]
    defining = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_public_names(defining, readers, (root / "README.md").read_text()) == []


def readers_of(source: str, name: str) -> list[str]:
    """The top-level functions and classes of a module whose code reads the
    name ``name``, sorted, with "<module>" for a read at module level.  An
    import is not a read."""
    return sorted({node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                  ast.ClassDef)) else "<module>"
                   for node in ast.parse(source).body for n in ast.walk(node)
                   if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)})


def reads_attribute(source: str, owner: str, attr: str) -> bool:
    """Whether any code of a module reads ``owner.attr``."""
    return any(isinstance(n, ast.Attribute) and n.attr == attr
               and isinstance(n.value, ast.Name) and n.value.id == owner
               for n in ast.walk(ast.parse(source)))


def test_readers_of_and_reads_attribute_find_reads():
    source = ("from .perm import PermTable\nfrom . import construct\nKINDS = (PermTable,)\n"
              "def f():\n    return PermTable(1)\n"
              "def g(t: PermTable):\n    return construct.build(t)\n"
              "def h():\n    return construct.build_rows, construct\n")
    assert readers_of(source, "PermTable") == ["<module>", "f", "g"]
    assert readers_of(source, "construct") == ["g", "h"]
    assert reads_attribute(source, "construct", "build")
    assert not reads_attribute(source.replace("construct.build(t)", "t"), "construct", "build")


def test_sweeps_judge_stacks_not_permtables():
    # the section-3 and section-4 sweeps build and judge stacked tables:
    # only the exploratory sweep wraps a table in a PermTable, and nothing
    # in verify builds one case at a time through construct.build
    source = (SRC / "verify.py").read_text()
    assert readers_of(source, "PermTable") == ["explore_quadratic"]
    assert not reads_attribute(source, "construct", "build")


def test_one_judge_in_verify():
    # every verdict of verify comes from one judge: only _steps reads the
    # row-wise bijectivity and cycle kernels, the collision witness and the
    # witness cycle
    source = (SRC / "verify.py").read_text()
    for name in ("bijective_rows", "power_lengths_rows", "_collision", "first_cycle"):
        assert readers_of(source, name) == ["_steps"], name
    # and it judges by powers of sigma: no pointer-jumping census
    assert readers_of(source, "cycle_lengths_rows") == []
