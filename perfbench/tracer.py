"""Timing wrappers around the public functions of every qck module.

`Tracer.install` replaces each public function and each public or arithmetic
method defined in a qck module by a wrapper that counts calls and adds up
total and self time (total minus the time of wrapped callees). A name bound
by `from ... import` is a second binding, so every qck module namespace that
holds the same object gets the same wrapper. `uninstall` puts the originals
back. Per-function aggregates stay in memory: a function called millions of
times costs one list, not one record per call.
"""

import functools
import importlib
import time

MODULES = (
    "weyl",
    "intlinalg",
    "qtorus",
    "strings",
    "wiring",
    "pivots",
    "slq2_tensor",
    "appendix_congruence",
    "cli",
)
OPERATORS = {"__add__": "add", "__sub__": "sub", "__mul__": "mul", "__neg__": "neg",
             "__pow__": "pow", "__eq__": "eq"}

# work counted besides calls: trace key -> units(args, result)
UNITS = {
    "wiring.enumerate_paths": lambda args, result: len(result),
    "wiring.enumerate_families": lambda args, result: len(result),
    "qtorus.QTorusElement.mul": lambda args, result: len(args[0].terms) * len(args[1].terms),
}

CALLS, TOTAL_S, SELF_S, UNITS_DONE = range(4)


def _targets(module):
    """(trace key, owner, attribute name, function) for one module."""
    name = module.__name__.rpartition(".")[2]
    for attr, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__ or attr.startswith("_"):
            continue
        if isinstance(obj, type):
            for meth, fn in vars(obj).items():
                label = OPERATORS.get(meth, None if meth.startswith("_") else meth)
                if label and (callable(fn) or isinstance(fn, classmethod)) and not isinstance(fn, type):
                    yield f"{name}.{attr}.{label}", obj, meth, fn
        elif callable(obj):
            yield f"{name}.{attr}", module, attr, obj


class Tracer:
    def __init__(self):
        self.stats = {}  # trace key -> [calls, total_s, self_s, units]
        self.active = True
        self._stack = []  # time spent in wrapped callees, per open call
        self._saved = []  # (owner, attribute, original)

    def wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        units = UNITS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stats[CALLS] += 1
                stats[TOTAL_S] += elapsed
                stats[SELF_S] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if units:
                stats[UNITS_DONE] += units(args, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"qck.{name}") for name in MODULES]
        wrappers = {}  # id(original) -> wrapper
        for module in modules:
            for key, owner, attr, fn in _targets(module):
                raw = fn.__func__ if isinstance(fn, (classmethod, staticmethod)) else fn
                wrapper = self.wrap(key, raw)
                wrappers[id(raw)] = wrapper
                new = type(fn)(wrapper) if raw is not fn else wrapper
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, new)
        for module in modules:  # second bindings made by `from ... import`
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def install_copy(self, namespace, name):
        """Wrap the public functions that a second copy of qck module `name`
        defines in `namespace`, its globals: `python -m qck.cli` runs cli.py
        again under runpy, and that copy's functions call each other through
        these globals. The copy dies with its process; nothing is restored."""
        for attr, obj in list(namespace.items()):
            if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == namespace["__name__"]):
                namespace[attr] = self.wrap(f"{name}.{attr}", obj)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
