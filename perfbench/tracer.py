"""Per-layer spans around cppforge's public functions, installed from outside.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
every public function of the eight layer modules, in every cppforge module
namespace that holds it, and every public method on the layer classes, with
a wrapper that records a span: name, layer, start, end, parent span and op
id.  Spans stay in memory; :meth:`Tracer.summary` reduces them to per-name
call counts and self times, and :meth:`Tracer.dump` writes them out.

Three groups of methods get no span:

* the ``FieldCtx`` scalar operations are only counted (``gf.scalar_calls``);
  a verify-full run makes about 7M of them, far too many to time;
* the ``FieldCtx`` digit plumbing (``digits``, ``undigits``, ``from_int``)
  is left alone for the same reason (1.8M calls per univariate run); its
  time lands in the calling span;
* properties and generator bodies, whose work runs outside the call.

Two dunder methods do get spans because the layer metrics need them:
``PermTable.__init__`` (tables built, entries, and the bijectivity check)
and ``Poly.__divmod__`` (polynomial division).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "cppforge"
LAYERS = ("gf", "poly", "linalg", "perm", "fieldext", "construct", "verify", "cli")

SCALAR = {"add", "sub", "neg", "mul", "inv", "pow"}  # FieldCtx methods, counted only
UNWRAPPED = {("FieldCtx", "digits"), ("FieldCtx", "undigits"), ("FieldCtx", "from_int")}
DUNDERS = {("PermTable", "__init__"), ("Poly", "__divmod__")}


class Tracer:
    """Span recorder for one workload process."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self.scalar_calls = [0]
        self.entries = [0]
        self._name = []
        self._parent = []
        self._op = []
        self._start = []
        self._end = []
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        s_name, s_parent, s_op = self._name, self._parent, self._op
        s_start, s_end, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(tracer.op)
            s_end.append(0.0)
            stack.append(sid)
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[sid] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn):
        cell = self.scalar_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _table_init(self, fn, name: str):
        spanned = self._span(fn, name)
        cell = self.entries

        @functools.wraps(fn)
        def wrapper(table, *args, **kwargs):
            spanned(table, *args, **kwargs)
            cell[0] += table.table.size

        return wrapper

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            key = (cls.__name__, attr)
            if key in UNWRAPPED or (attr.startswith("_") and key not in DUNDERS):
                continue
            kind = type(value) if isinstance(value, (staticmethod, classmethod)) else None
            fn = value.__func__ if kind else value
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if cls.__name__ == "FieldCtx" and attr in SCALAR:
                wrapped = self._counted(fn)
            elif key == ("PermTable", "__init__"):
                wrapped = self._table_init(fn, name)
            else:
                wrapped = self._span(fn, name)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replaced: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    replaced[id(value)] = (value, self._span(value, f"{layer}.{attr}"))
        # A function imported by name lives on in the importer's namespace.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- results ------------------------------------------------------------

    def _arrays(self):
        n = len(self._start)
        start = np.fromiter(self._start, dtype=np.float64, count=n)
        end = np.fromiter(self._end, dtype=np.float64, count=n)
        parent = np.fromiter(self._parent, dtype=np.int64, count=n)
        name = np.fromiter(self._name, dtype=np.int64, count=n)
        op = np.fromiter(self._op, dtype=np.int64, count=n)
        return start, end, parent, name, op

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus time covered by top spans.

        A span's self time is its duration minus the durations of its
        direct children, which never overlap in one thread.
        """
        start, end, parent, name, _ = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by_name = np.bincount(name, weights=self_s, minlength=k)
        return {
            "spans": int(len(dur)),
            "covered_s": float(dur[~has_parent].sum()),
            "names": {self.names[i]: [int(calls[i]), float(self_by_name[i])]
                      for i in range(k) if calls[i]},
            "scalar_calls": self.scalar_calls[0],
            "entries": self.entries[0],
        }

    def dump(self, path) -> None:
        """Write every span (start, end, parent, name id, op id) as .npz."""
        start, end, parent, name, op = self._arrays()
        names = np.array(self.names)
        layers = np.array([n.split(".", 1)[0] for n in self.names])
        np.savez(path, start=start, end=end, parent=parent, name=name, op=op,
                 names=names, layers=layers)
