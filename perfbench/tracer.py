"""Per-layer tracer for gaussdet, installed from outside the package.

``Tracer.install`` wraps every public function and every public or
arithmetic method of the gaussdet modules, then rebinds each name that still
points at an original function: the module that defines it, every module
that imported it with ``from .x import name``, and class-body aliases such
as ``__rmul__ = __mul__``.  Wrapping only the defining module would miss the
calls made through those aliases and undercount without any error.

A layer is the module that defines the called function.  Time is charged to
the innermost open span, so each layer's self time excludes the spans of
other layers nested in it, and the self times of one invocation add up to the
time spent inside its outermost span.  Size counters are taken from return
values, never from timers; the bookkeeping for them is excluded from every
layer and shows up as unattributed time.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "closedform", "exact", "multisets", "neville", "tpprobe")

# Methods wrapped besides the public ones: the arithmetic the layers are made
# of, and rendering, which the CLI reports spend time on.  Equality and
# hashing stay unwrapped because dict and set operations call them implicitly.
_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__", "__mod__",
    "__divmod__", "__pow__", "__call__", "__str__",
})


def _coeff_bits(value) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    bits = 0
    for c in value:
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def _entry_size(entry) -> tuple[int, int]:
    """(eta-degree, coefficient bits) of one elimination-stage entry."""
    if hasattr(entry, "num"):  # EtaRatFunc
        polys = (entry.num, entry.den)
        return max(p.degree for p in polys), max(_coeff_bits(p.coefficients) for p in polys)
    return 0, _coeff_bits((entry,))


class Tracer:
    """Aggregated spans and counters for one traced pass of a workload."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # qualified function name -> [calls, inclusive seconds of outermost calls]
        self.functions: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.specs: set = set()
        self.stack: list[str] = []
        self.last = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        key = f"{layer}.{fn.__qualname__}"
        counter = _COUNTERS.get(key)
        stat = self.functions.setdefault(key, [0, 0.0])
        depth = 0
        clock = time.perf_counter
        self_s, calls, stack = self.self_s, self.calls, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            start = clock()
            if stack:
                self_s[stack[-1]] += start - self.last
            stack.append(layer)
            self.last = start
            depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[layer] += end - self.last
                stack.pop()
                depth -= 1
                calls[layer] += 1
                stat[0] += 1
                if depth == 0:
                    stat[1] += end - start
                self.last = end
            if counter is not None:
                counter(self, args, result)
                self.last = clock()
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the gaussdet modules in place; call once, after importing them."""
        import gaussdet.cli  # noqa: F401  (imports every layer)

        # id of an original function -> (original, wrapper)
        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"gaussdet.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # rebind every module-level name of an original, wherever it was imported
        for name, module in list(sys.modules.items()):
            if name != "gaussdet" and not name.startswith("gaussdet."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def _wrap_class(self, layer: str, cls) -> None:
        # keyed by id so that class-body aliases (__rmul__ = __mul__) share a wrapper
        wrapped: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if id(raw) not in wrapped:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped[id(raw)] = type(raw)(self._wrap(layer, raw.__func__))
                elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                    wrapped[id(raw)] = self._wrap(layer, raw)
                else:
                    continue
            setattr(cls, attr, wrapped[id(raw)])

    # -- results -----------------------------------------------------------

    def function(self, key: str) -> tuple[int, float]:
        calls, seconds = self.functions.get(key, (0, 0.0))
        return calls, seconds


def _count_minors(tracer, args, report) -> None:
    tracer.counts["tpprobe.minors"] += report.minors_checked


def _count_minor(tracer, args, value) -> None:
    tracer.counts["tpprobe.minors"] += 1


def _count_stage_sizes(tracer, args, trace) -> None:
    last = trace.stages[-1]
    for row in last.rows:
        for entry in row:
            degree, bits = _entry_size(entry)
            if degree > tracer.counts["neville.max_degree"]:
                tracer.counts["neville.max_degree"] = degree
            if bits > tracer.counts["neville.max_coeff_bits"]:
                tracer.counts["neville.max_coeff_bits"] = bits


def _count_permutations(tracer, args, det) -> None:
    tracer.counts["neville.oracle_permutations"] += math.factorial(args[0].size)


def _count_entries(tracer, args, report) -> None:
    tracer.counts["closedform.entries_checked"] += report.entries_checked


def _count_elements(tracer, args, multiset) -> None:
    tracer.counts["multisets.elements"] += multiset.total()
    tracer.specs.add(args[0])


_COUNTERS = {
    "tpprobe.all_minors_positive": _count_minors,
    "tpprobe.minor_value": _count_minor,
    "neville.neville_eliminate": _count_stage_sizes,
    "neville.brute_force_det": _count_permutations,
    "closedform.verify_closed_form": _count_entries,
    "multisets.enumerate_simplex": _count_elements,
}


def summary(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    out: dict[str, float] = {f"{layer}.self_s": tracer.self_s[layer] for layer in LAYERS}
    counts = tracer.counts
    minors = counts["tpprobe.minors"]
    out["tpprobe.calls"] = tracer.calls["tpprobe"]
    out["tpprobe.minors"] = minors
    out["tpprobe.us_per_minor"] = tracer.self_s["tpprobe"] * 1e6 / minors if minors else 0.0
    for name, key in (
        ("exact.poly_mul", "exact.EtaPoly.__mul__"),
        ("exact.poly_divmod", "exact.EtaPoly.__divmod__"),
        ("exact.poly_gcd", "exact.poly_gcd"),
        ("neville.eliminate", "neville.neville_eliminate"),
        ("multisets.enumerate", "multisets.enumerate_simplex"),
        ("multisets.identity", "multisets.verify_identity"),
    ):
        out[f"{name}_calls"], out[f"{name}_s"] = tracer.function(key)
    out["exact.series_mul_s"] = tracer.function("exact.TruncatedSeries.__mul__")[1]
    out["neville.oracle_s"] = tracer.function("neville.brute_force_det")[1]
    out["closedform.series_s"] = tracer.function("closedform.series_determinant")[1]
    out["multisets.lift_s"] = tracer.function("multisets.lift_duality")[1]
    for name in ("neville.oracle_permutations", "neville.max_degree",
                 "neville.max_coeff_bits", "closedform.entries_checked",
                 "multisets.elements"):
        out[name] = counts[name]
    enumerations = out["multisets.enumerate_calls"]
    out["multisets.distinct_spec_ratio"] = len(tracer.specs) / enumerations if enumerations else 0.0
    out["cli.invocations"] = tracer.function("cli.main")[0]
    return out
