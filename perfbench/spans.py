"""Spans around the public functions of ``tpscaffold``, recorded from outside.

``Tracer.install`` wraps every public function of the package's modules and
rebinds *every* module-level name that refers to it across ``tpscaffold.*``.
Patching only the defining module is not enough: ``bordering``, ``insertion``
and ``cli`` import ``gamma_scaffold``, ``matrix_from_scaffold`` and ``det``
by name, so their nested calls would escape the trace.  Functions imported
inside a function body (``is_totally_positive`` does this) are looked up on
the defining module at call time and are caught by the same rebinding.

A span records its name, start, end and the span that was open when it
began, so self time (duration minus the time its child spans cover) is
computed after the run.  Spans stay in compact arrays until the run ends.
Wrappers record only inside ``span``, so the benchmark's own checks between
operations leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("matrix", "cauchon", "graph", "bordering", "insertion", "cli")


def public_functions():
    """(qualified name, function) for each public function of each layer."""
    for layer in LAYERS:
        module = importlib.import_module(f"tpscaffold.{layer}")
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{layer}.{name}", obj


class Tracer:
    def __init__(self, stash_names=()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.active = False
        self._stack = [-1]
        self._patched: list[tuple] = []
        # Calls to these functions keep (name, args, result) for the benchmark
        # to inspect after the operation; cleared by ``take_stash``.
        self._stash_names = frozenset(stash_names)
        self._stash: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        if raised:
            self.raised[idx] = 1

    def span(self, name: str, fn):
        """Call ``fn()`` inside a root span named ``name``, recording the
        spans of the wrapped functions it calls."""
        self.active = True
        idx = self._open(self.name_id(name))
        try:
            result = fn()
        except BaseException:
            self._close(idx, True)
            raise
        finally:
            self.active = False
        self._close(idx, False)
        return result

    def _wrap(self, name: str, fn):
        name_id = self.name_id(name)
        stash = name in self._stash_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if stash:
                self._stash.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        originals = {id(fn): (name, fn) for name, fn in public_functions()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "tpscaffold" and not modname.startswith("tpscaffold."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take_stash(self) -> list:
        out, self._stash = self._stash, []
        return out

    def summarize(self) -> dict:
        """Per span name: calls, raised, total and self nanoseconds; and per
        root span name: the number of calls of each name beneath it."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        root = list(range(count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]  # parents are opened, so numbered, first
        per_name: dict[str, dict] = {}
        under_root: dict[str, dict] = {}
        for i in range(count):
            name = self.names[self.name_of[i]]
            s = per_name.setdefault(name, {"calls": 0, "raised": 0, "total_ns": 0, "self_ns": 0})
            s["calls"] += 1
            s["raised"] += self.raised[i]
            s["self_ns"] += dur[i] - child[i]
            if self.parent[i] < 0:
                s["total_ns"] += dur[i]
            else:
                rname = self.names[self.name_of[root[i]]]
                u = under_root.setdefault(rname, {})
                u[name] = u.get(name, 0) + 1
        return {"per_name": per_name, "under_root": under_root}
