"""Per-layer call counts and self time, measured from outside toriq.

`Tracer.install()` replaces every public function of each toriq module,
and the `__init__` of every public class, with a wrapper that counts the
call and times it.  References bound elsewhere (`from .covering import
analyze` in `cli`, the package namespace) are replaced too, so calls
between modules are seen.  Self time is a wrapper's duration minus the
time spent in wrapped calls made inside it.  Nothing inside the library
changes; the cached functions keep their caches and `cache_info()`.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("intmat", "linprog", "gale", "polytope", "fans", "covering", "classify", "bounds", "cli")


def layer_modules() -> dict:
    """layer name -> imported toriq module."""
    import toriq  # noqa: F401  (imports every layer)

    return {name: sys.modules[f"toriq.{name}"] for name in LAYERS}


def cached_functions() -> dict:
    """Public name -> function, for every toriq function with `cache_info`."""
    out = {}
    for mod in layer_modules().values():
        for name, obj in vars(mod).items():
            if not name.startswith("_") and hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.stats = {}  # "layer.name" -> [calls, self seconds]
        self._stack = []  # time spent in wrapped children, per open frame

    def _wrap(self, key: str, fn):
        entry = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                entry[1] += took - stack.pop()
                if stack:
                    stack[-1] += took

        return traced

    def install(self) -> None:
        modules = layer_modules()
        swaps = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if "__init__" in vars(obj):
                        obj.__init__ = self._wrap(f"{layer}.{name}", vars(obj)["__init__"])
                elif callable(obj):
                    swaps[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        targets = [sys.modules["toriq"], *modules.values()]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                hit = swaps.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def layer_totals(self) -> dict:
        """layer -> (calls, self seconds)."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, self_s) in self.stats.items():
            total = totals[key.split(".", 1)[0]]
            total[0] += calls
            total[1] += self_s
        return totals
