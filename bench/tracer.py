"""Span tracing at the package's module boundaries, from outside the package.

`Tracer.install` rebinds every public function of the traced modules, in
the defining module and in every other module that imported the same
object, and wraps the public methods of the classes those modules define.
Each call records a span (name, start, end, parent span, operation id) in
memory.  `uninstall` puts every original binding back.

Some spans are opaque: calls made inside them are not recorded, so a
per-point loop shows up as one span rather than thousands.  A layer's self
time is its spans' durations minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "partitions", "pgf", "statespace", "corrector",
    "simulate", "scenario",
    "oracle", "reductions", "synthetic", "verify",
)

# Binary operators are the only dunders wrapped; the rest are dataclass plumbing.
WRAPPED_DUNDERS = ("__add__", "__mul__")

# Per-point p.g.f. evaluation over the grid: one span, counted as p.g.f. work.
PER_POINT_PGF = (
    "statespace.SensorModel.meas_pgf_at_zero",
    "statespace.SensorModel.meas_derivatives_at_zero",
)

OPAQUE = PER_POINT_PGF + ("scenario.scenario_from_dict", "scenario.load_scenario")

LAYER_OVERRIDE = {name: "pgf" for name in PER_POINT_PGF}

BENCH_LAYER = "bench"


def self_times(starts, ends, parents) -> np.ndarray:
    """Per span: its duration minus the time its direct children cover.

    Spans come from one thread, so children are disjoint and lie inside
    their parent, and the covered time is the sum of the children's
    durations.
    """
    starts = np.asarray(starts, dtype=float)
    duration = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def _layer_modules(package: str):
    modules = {}
    for layer in LAYERS:
        # importlib, not attribute access: `etcphd.simulate` is the function.
        modules[layer] = importlib.import_module(f"{package}.{layer}")
    return modules


class Tracer:
    """Records spans and work counters for the package under `package`.

    Span names and hook keys are `<layer module>.<name>`, with the class
    name inserted for methods.  A hook whose target does not exist is never
    installed, and one that raises is switched off; either way the metrics
    it feeds stay absent.
    """

    def __init__(self, package: str = "etcphd"):
        self.package = package
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_ids: dict[str, int] = {}
        # Span columns, as typed arrays: a traced run can hold a million spans.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.suppress = 0
        self.op = -1
        self.counters: dict[int, dict[str, float]] = {}
        self.wrapped: set[str] = set()
        self.broken_hooks: set[str] = set()
        self._restore: list[tuple] = []
        self._hooks: dict[str, object] = {}
        self._installed = False
        self._self_times: np.ndarray | None = None

    # -- counters -----------------------------------------------------------

    def add_hook(self, qualname: str, hook) -> None:
        """`hook(tracer, args, kwargs, result, boundary)` runs after each
        recorded call of `qualname`; `boundary` is true when the caller is
        outside the callee's layer."""
        self._hooks[qualname] = hook

    def count(self, key: str, value: float = 1.0) -> None:
        bucket = self.counters.setdefault(self.op, {})
        bucket[key] = bucket.get(key, 0.0) + value

    def count_max(self, key: str, value: float) -> None:
        bucket = self.counters.setdefault(self.op, {})
        bucket[key] = max(bucket.get(key, value), value)

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self.name_ids[name]

    def span(self, name: str, layer: str = BENCH_LAYER):
        """Context manager recording a span opened by the benchmark itself."""
        return _BenchSpan(self, self._name_id(name, layer))

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(sid)
        return sid

    def _wrap(self, fn, qualname: str, layer: str):
        name_id = self._name_id(qualname, layer)
        opaque = qualname in OPAQUE
        hook = self._hooks.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.suppress:
                return fn(*args, **kwargs)
            stack = tracer.stack
            boundary = not stack or tracer.layers[tracer.span_name[stack[-1]]] != layer
            sid = tracer._open(name_id)
            if opaque:
                tracer.suppress += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if opaque:
                    tracer.suppress -= 1
                stack.pop()
                tracer.span_start[sid] = start
                tracer.span_end[sid] = end
            if boundary:
                tracer.count(f"{layer}.calls")
            if hook is not None and qualname not in tracer.broken_hooks:
                try:
                    hook(tracer, args, kwargs, result, boundary)
                except Exception:
                    # A counter that no longer fits the package must not fail
                    # the call it observes; its metrics are dropped instead.
                    tracer.broken_hooks.add(qualname)
            return result

        traced.__wrapped_by_bench__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = _layer_modules(self.package)
        package_modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        replacement: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    qualname = f"{layer}.{attr}"
                    wrapped = self._wrap(value, qualname, LAYER_OVERRIDE.get(qualname, layer))
                    replacement[id(value)] = (value, wrapped)
                    self.wrapped.add(qualname)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        # Rebind in every package module that holds one of the originals.
        try:
            for mod in package_modules:
                namespace = vars(mod)
                for attr, value in list(namespace.items()):
                    entry = replacement.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, entry[1])
        except BaseException:
            self.uninstall()
            raise
        self._installed = True

    def _wrap_class(self, cls, layer: str) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            span_layer = LAYER_OVERRIDE.get(qualname, layer)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, qualname, span_layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, qualname, span_layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, qualname, span_layer)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)
            self.wrapped.add(qualname)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        if self._self_times is None or len(self._self_times) != len(self.span_name):
            self._self_times = self_times(self.span_start, self.span_end, self.span_parent)
        return self._self_times

    def _sums(self, values) -> dict[int, dict[int, float]]:
        """op id -> name id -> sum of `values` over that op's spans of that name."""
        out: dict[int, dict[int, float]] = {}
        if not len(self.span_name):
            return out
        ops = np.asarray(self.span_op, dtype=np.int64)
        low = int(ops.min())
        width = len(self.names)
        keys = (ops - low) * width + np.asarray(self.span_name, dtype=np.int64)
        sums = np.bincount(keys, weights=values)
        for key in np.flatnonzero(np.bincount(keys)):
            op, name_id = divmod(int(key), width)
            out.setdefault(op + low, {})[name_id] = float(sums[key])
        return out

    def _durations(self) -> np.ndarray:
        return np.asarray(self.span_end) - np.asarray(self.span_start)

    def per_op_layer_self(self) -> dict[int, dict[str, float]]:
        """op id -> layer -> summed self time."""
        out: dict[int, dict[str, float]] = {}
        for op, by_name in self._sums(self.self_times()).items():
            bucket = out.setdefault(op, {})
            for name_id, value in by_name.items():
                layer = self.layers[name_id]
                bucket[layer] = bucket.get(layer, 0.0) + value
        return out

    def _per_op_names(self, values, names) -> dict[int, dict[str, float]]:
        wanted = {self.name_ids[n]: n for n in names if n in self.name_ids}
        return {
            op: {wanted[i]: v for i, v in by_name.items() if i in wanted}
            for op, by_name in self._sums(values).items()
        }

    def per_op_name_totals(self, names) -> dict[int, dict[str, float]]:
        """op id -> name -> summed (inclusive) duration, for the given names."""
        return self._per_op_names(self._durations(), names)

    def per_op_name_self(self, names) -> dict[int, dict[str, float]]:
        """op id -> name -> summed self time, for the given names."""
        return self._per_op_names(self.self_times(), names)

    def export(self) -> dict:
        """Span columns plus the name and layer tables they index."""
        return {
            "names": list(self.names),
            "layers": list(self.layers),
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
            "op": self.span_op,
        }


class _BenchSpan:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id
        self.sid = -1

    def __enter__(self):
        self.sid = self.tracer._open(self.name_id)
        self.tracer.span_start[self.sid] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.span_end[self.sid] = time.perf_counter()
        self.tracer.stack.pop()
        return False
