"""Outside-in layer trace: timing wrappers around each layer's public functions.

``LayerTrace.install`` replaces every public module-level function of the
traced contactres modules with a wrapper, in the defining module and in
every contactres module that imported it by name (``contactres.cones.
nullspace``, ``contactres.oracle_lab.rank``, ...). A call that enters a
layer from another layer (or from the benchmark) opens a span whose parent
is the span it was called from; a call made from inside its own layer
runs straight through and only feeds the work counters. When a span
closes, its duration minus the time of its child spans is added to the
layer's self time, so self times of all layers add up to the time spent
inside contactres.

Generator functions are left unwrapped: a wrapper would time only the
creation of the generator. Nothing is written while spans are open; the
totals stay in memory until the run reports them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "report", "resolutions", "cones", "oracle_lab", "orbits",
          "lie_core", "ratlinalg")


def _shape(rows) -> tuple[int, int]:
    # Only sequences are measured: counting an iterator would consume it.
    if not isinstance(rows, (list, tuple)) or not rows:
        return 0, 0
    return len(rows), len(rows[0])


class LayerTrace:
    def __init__(self):
        # Each frame is [layer, time spent in child spans]; the bottom frame
        # stands for the benchmark itself.
        self._stack = [[None, 0.0]]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.max_dim = 0
        self._patched: list[tuple[object, str, object]] = []
        self._root_system_cache = None
        self._cache_before = None

    # --- work counters, keyed by the wrapped function -------------------------

    def _count_rank(self, caller, args, result):
        r, c = _shape(args[0])
        self.counters["ratlinalg.rank_cells"] += r * c
        self.max_dim = max(self.max_dim, r, c)

    def _count_rref(self, caller, args, result):
        r, c = _shape(args[0])
        self.counters["ratlinalg.rref_cells"] += r * c
        self.max_dim = max(self.max_dim, r, c)

    def _count_nullspace(self, caller, args, result):
        if caller == "cones":
            self.counters["cones.dd_candidates"] += 1

    def _count_polar_rays(self, caller, args, result):
        rays, lineality = result
        self.counters["cones.dd_rays_returned"] += len(rays) + len(lineality)

    def _count_model(self, caller, args, result):
        self.counters["oracle_lab.models"] += 1

    def _count_poincare(self, caller, args, result):
        self.counters["lie_core.poincare_calls"] += 1

    def _hooks(self):
        return {
            ("ratlinalg", "rank"): self._count_rank,
            ("ratlinalg", "rref"): self._count_rref,
            ("ratlinalg", "nullspace"): self._count_nullspace,
            ("cones", "_polar_rays"): self._count_polar_rays,
            ("oracle_lab", "matrix_model"): self._count_model,
            ("lie_core", "poincare_polynomial"): self._count_poincare,
        }

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, layer, fn, hook):
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][0]
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    stack[-1][1] += elapsed
                    calls[layer] += 1
            if hook is not None:
                hook(caller, args, result)
            return result
        return wrapper

    def _counting_permutations(self, permutations):
        counters = self.counters

        def counted(iterable, r=None):
            seen = set()
            for perm in permutations(iterable, r):
                seen.add(perm)
                counters["resolutions.permutations"] += 1
                yield perm
            counters["resolutions.distinct_permutations"] += len(seen)
        return counted

    def install(self):
        modules = {name: sys.modules[f"contactres.{name}"] for name in LAYERS}
        hooks = self._hooks()
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, value in vars(mod).items():
                hook = hooks.get((layer, name))
                public = (not name.startswith("_")
                          and getattr(value, "__module__", None) == mod.__name__
                          and callable(value) and not isinstance(value, type)
                          and not inspect.isgeneratorfunction(value))
                if public or hook is not None:
                    wrappers[id(value)] = self._wrap(layer, value, hook)
        lie_core = modules["lie_core"]
        self._root_system_cache = lie_core.build_root_system
        self._cache_before = self._root_system_cache.cache_info()
        resolutions = modules["resolutions"]
        self._patch(resolutions, "permutations",
                    self._counting_permutations(resolutions.permutations))
        for modname, mod in list(sys.modules.items()):
            if modname != "contactres" and not modname.startswith("contactres."):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)

    def _patch(self, mod, name, value):
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # --- report -----------------------------------------------------------------

    def root_system_hit_ratio(self) -> float:
        after = self._root_system_cache.cache_info()
        hits = after.hits - self._cache_before.hits
        misses = after.misses - self._cache_before.misses
        return hits / (hits + misses) if hits + misses else 0.0
