"""Per-layer span tracing of gordian, installed from outside the library.

The tracer replaces every public function and method of each layer module
with a wrapper that records a span (name, start, end, parent span, item id).
A function is replaced in every namespace that binds it, because modules
import each other's functions by name (signature binds to_chebyshev,
torus_factorization and as_turn; graph binds p_sequence), and the sort key
signature._ANGLE_KEY, which captured angle_cmp at import time, is rebuilt
around the wrapper.  Spans stay in memory in flat arrays until the run ends;
self time and call counts are derived from them afterwards.  Self time
leaves out the wrapper's own cost, calibrated on a function that does
nothing (span_overhead), because the layers differ a lot in how many small
calls they make.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path
from types import ModuleType

LAYERS = ("laurent", "sturm", "circle", "signature", "knots", "graph")

# Dunder methods that do a layer's arithmetic; other dunders (equality,
# hashing, ordering) stay with their caller.
WRAPPED_DUNDERS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__", "__call__",
)

# Calls whose result decides a useful outcome, counted for hit ratios.
OUTCOMES = {"laurent.torus_factorization": lambda result: result is not None}


def span_overhead(calls: int = 20000, rounds: int = 5) -> tuple[float, float]:
    """Seconds the wrapper adds to each call inside its own span, and outside
    it, where the time lands in the caller's self time.  Measured from direct
    and traced calls of a function that does nothing; medians over rounds."""

    def nothing():
        return None

    probe = Tracer(ModuleType("probe"))
    traced = probe._wrap(nothing, "probe.nothing")
    clock = time.perf_counter
    inner, outer = [], []
    for _ in range(rounds):
        first = len(probe.name_id)
        t0 = clock()
        for _ in range(calls):
            nothing()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        inside = statistics.median(probe.end[i] - probe.start[i] for i in range(first, len(probe.name_id)))
        inner.append(inside)
        outer.append((t2 - t1 - (t1 - t0)) / calls - inside)
    return statistics.median(inner), statistics.median(outer)


def _counting(fn, useful, outcomes: list[int], nid: int):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        if useful(result):
            outcomes[nid] += 1
        return result

    return functools.update_wrapper(counted, fn)


def _is_traced_method(attr: str, value) -> bool:
    if isinstance(value, classmethod):
        value = value.__func__
    if not inspect.isfunction(value):
        return False
    return attr in WRAPPED_DUNDERS or not attr.startswith("_")


class Tracer:
    """Span recorder for one gordian package object (see module docstring)."""

    def __init__(self, package: ModuleType):
        self.package = package
        self.modules = [package] + [
            m for m in vars(package).values() if isinstance(m, ModuleType) and m.__name__.startswith(package.__name__ + ".")
        ]
        self.names: list[str] = []
        self.errors: list[int] = []
        self.outcomes: list[int] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_item = [-1]
        self.inner_s = self.outer_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.inner_s, self.outer_s = span_overhead()
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._install_methods(layer, value)
                elif inspect.isroutine(value):
                    wrapper = self._wrap(value, f"{layer}.{attr}")
                    for ns in self.modules:
                        for name, bound in list(vars(ns).items()):
                            if bound is value:
                                self._set(ns, name, wrapper)
        signature = self.package.signature
        self._set(signature, "_ANGLE_KEY", functools.cmp_to_key(signature.angle_cmp))

    def _install_methods(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if not _is_traced_method(attr, value):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, classmethod):
                self._set(cls, attr, classmethod(self._wrap(value.__func__, name)))
            else:
                self._set(cls, attr, self._wrap(value, name))

    def _set(self, ns, attr: str, value) -> None:
        self._undo.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.errors.append(0)
        self.outcomes.append(0)
        if name in OUTCOMES:
            fn = _counting(fn, OUTCOMES[name], self.outcomes, nid)
        name_id, parent, item, start, end = self.name_id, self.parent, self.item, self.start, self.end
        stack, current_item, errors = self.stack, self.current_item, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            item.append(current_item[0])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[nid] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def set_item(self, item_id: int) -> None:
        self.current_item[0] = item_id

    # -- analysis ---------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = Counter(self.name_id)
        return {name: counts.get(nid, 0) for nid, name in enumerate(self.names)}

    def self_times(self) -> dict[str, float]:
        """Seconds inside each function minus the time its child spans cover
        and minus the wrapper overhead: inner_s for the span itself and
        outer_s for each child span."""
        n = len(self.name_id)
        child = [0.0] * n
        count = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                count[p] += 1
        per_name = [0.0] * len(self.names)
        name_id, inner, outer = self.name_id, self.inner_s, self.outer_s
        for i in range(n):
            per_name[name_id[i]] += end[i] - start[i] - child[i] - inner - outer * count[i]
        return {name: max(0.0, t) for name, t in zip(self.names, per_name)}

    def descendants_of(self, ancestor: str, name: str) -> int:
        """Number of spans called `name` that run inside a span called `ancestor`."""
        aid, nid = self.names.index(ancestor), self.names.index(name)
        count = 0
        for i, k in enumerate(self.name_id):
            if k != nid:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name_id[p] == aid:
                    count += 1
                    break
                p = self.parent[p]
        return count

    def outcome_ratio(self, name: str) -> float:
        """Calls of `name` with a useful outcome divided by calls; 0 when never called."""
        nid = self.names.index(name)
        calls = self.calls()[name]
        return self.outcomes[nid] / calls if calls else 0.0

    def errors_by_name(self) -> dict[str, int]:
        return dict(zip(self.names, self.errors))

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines, one span each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.item[i]}\n"
                )
