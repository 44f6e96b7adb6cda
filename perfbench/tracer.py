"""Layer tracer: wraps the package's public functions from outside the package.

Every public function of a ``thermoshift`` module is wrapped once, by
identity, and every module attribute that refers to it (the defining module,
the modules that imported it by name, the package namespace) is rebound to
the one wrapper, so calls between modules go through it too.  A few methods
are wrapped on their classes.

Spans (name, start, end, parent, job) stay in memory until the caller
exports them.  Functions that run more than about 10^4 times per job only
count calls, because a span per call would cost more than the call.  Work
counts (rows of returned word arrays, block orders, candidates scored) are
read off arguments and results, never from inside the package.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
import weakref
from collections import Counter
from typing import Any, Callable, Optional

LAYERS = (
    "sft",
    "potentials",
    "pressure",
    "measures",
    "log_mass",
    "interval_maps",
    "multifractal",
    "documents",
    "cli",
)

# Module functions called more than ~10^4 times in one job of some workload.
COUNT_ONLY_FUNCTIONS = {
    "measures.integrate",
    "measures.entropy",
    "documents.format_float",
}

# (module, class, method) -> traced name: methods recorded as spans ...
SPAN_METHODS = {
    ("potentials", "LocallyConstantPotential", "values_on_windows"): "potentials.values_on_windows",
    ("measures", "CylinderMeasureOracle", "log_mass_words"): "measures.log_mass_words",
    ("measures", "MarkovMeasure", "log_mass_words"): "measures.log_mass_words",
    ("measures", "RpfGibbsData", "log_mass_words"): "measures.log_mass_words",
}
# ... and methods whose calls are only counted
COUNT_METHODS = {
    ("measures", "MarkovMeasure", "mass"): "measures.mass",
    ("measures", "TableMeasure", "mass"): "measures.mass",
    ("measures", "RpfGibbsData", "mass"): "measures.mass",
    ("measures", "MarkovMeasure", "__post_init__"): "measures.markov_measures_built",
}


def package_modules() -> list[types.ModuleType]:
    """The loaded ``thermoshift`` package and its submodules."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "thermoshift" or name.startswith("thermoshift."))
    ]


def public_functions() -> dict[int, tuple[str, Callable]]:
    """id -> (layer.name, function) for every public function of every layer."""
    found: dict[int, tuple[str, Callable]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"thermoshift.{layer}"]
        for name, value in vars(mod).items():
            if name.startswith("_") or inspect.isclass(value) or not callable(value):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            found[id(value)] = (f"{layer}.{name}", value)
    return found


class Tracer:
    """Installs wrappers, records spans and counts, and restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, job]
        self.counts: Counter[str] = Counter()
        self.block_order_max = 0
        self.job: Any = None
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._seen_arrays: dict[int, weakref.ref] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        targets = public_functions()
        observers = self._observers()
        wrappers = {
            key: self._wrap_function(name, fn, observers.get(name))
            for key, (name, fn) in targets.items()
        }
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][1] is value:
                    self._rebind(mod, attr, wrapper)
        for (layer, cls_name, meth), name in SPAN_METHODS.items():
            cls = getattr(sys.modules[f"thermoshift.{layer}"], cls_name)
            if meth in vars(cls):
                self._rebind(cls, meth, self._span_wrapper(name, vars(cls)[meth]))
        for (layer, cls_name, meth), name in COUNT_METHODS.items():
            cls = getattr(sys.modules[f"thermoshift.{layer}"], cls_name)
            if meth in vars(cls):
                self._rebind(cls, meth, self._count_wrapper(name, vars(cls)[meth]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        if name in COUNT_ONLY_FUNCTIONS:
            return self._count_wrapper(name + ".calls", fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(name, fn)
        return self._span_wrapper(name, fn, observe)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _generator_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".words"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    # -- counts read off arguments and results ----------------------------

    def _observers(self) -> dict[str, Callable]:
        def word_array(args, kwargs, result) -> None:
            self.counts["sft.word_array.rows"] += int(result.shape[0])
            self.counts["sft.word_array.calls"] += 1
            ref = self._seen_arrays.get(id(result))
            if ref is not None and ref() is result:
                self.counts["sft.word_array.hits"] += 1
            else:
                self._seen_arrays[id(result)] = weakref.ref(result)

        def block_transfer(args, kwargs, result) -> None:
            self.block_order_max = max(self.block_order_max, int(result.order))

        def spectrum_variational(args, kwargs, result) -> None:
            family = kwargs.get("family", args[3] if len(args) > 3 else None)
            if family is not None:
                self.counts["multifractal.candidates_scored"] += len(family.measures)

        return {
            "sft.word_array": word_array,
            "pressure.block_transfer": block_transfer,
            "multifractal.spectrum_variational": spectrum_variational,
        }

    # -- export ---------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """Plain data for a pipe: spans, counts and the largest block order."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "block_order_max": self.block_order_max,
        }


def unwrapped_references(targets: dict[int, tuple[str, Callable]]) -> list[str]:
    """Module attributes that still refer to an original (unwrapped) target."""
    stale = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if id(value) in targets and targets[id(value)][1] is value:
                stale.append(f"{mod.__name__}.{attr}")
    return stale


def self_times(spans: list[list[Any]]) -> list[tuple[str, Any, float]]:
    """(name, job, self seconds) per span: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [
        (name, job, (end - start) - child_time[i])
        for i, (name, start, end, parent, job) in enumerate(spans)
    ]


def merge(exports: list[dict[str, Any]]) -> dict[str, Any]:
    """Concatenate exported traces (one per job process) into one."""
    spans: list[list[Any]] = []
    counts: Counter[str] = Counter()
    order = 0
    for ex in exports:
        offset = len(spans)
        for name, start, end, parent, job in ex["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, job])
        counts.update(ex["counts"])
        order = max(order, ex["block_order_max"])
    return {"spans": spans, "counts": dict(counts), "block_order_max": order}
