"""Per-layer tracing of stabame from outside: wrap each module's public functions.

Every public function defined in a traced module is replaced by a wrapper,
in every stabame module that binds it: ``from .pauli import multiply`` in
``ame`` gives ``ame`` its own name for the function, so patching only
``pauli`` would miss those calls.

A wrapper keeps no per-call record. It pushes a child-time accumulator,
times the call, and on return adds the call's duration to its parent's
accumulator and ``duration - child time`` to its own self time. Memory
therefore stays fixed however many calls run (``pauli.multiply`` runs
hundreds of thousands of times per search shard), and the self times of
all traced functions add up to the time spent inside the outermost
traced calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "search", "ame", "stabgroup", "ring", "pauli", "statevec", "nogo")


class Tracer:
    def __init__(self, package: str = "stabame"):
        self.package = package
        self.stats: dict[str, list] = {}  # "module.function" -> [calls, self seconds]
        self._stack = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {key: (s[0], s[1]) for key, s in self.stats.items()}

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[0] += 1
                stat[1] += duration - stack.pop()
                stack[-1] += duration

        return wrapper


def delta(after: dict, before: dict) -> dict[str, tuple[int, float]]:
    """Per-function (calls, self seconds) between two snapshots."""
    return {
        key: (calls - before.get(key, (0, 0.0))[0], self_s - before.get(key, (0, 0.0))[1])
        for key, (calls, self_s) in after.items()
    }
