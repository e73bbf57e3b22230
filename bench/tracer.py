"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions of every angleworks
module (and the private ones another module imports) with timing wrappers,
in every module namespace that holds them, so calls between modules go
through the wrappers too.  Each layer is one module.  A layer's self time
is the time inside its wrappers minus the time of the wrapped calls they
make.  A span is recorded only where a call crosses from one layer into
another; the arithmetic of ``PiNumber``, ``FourierPoly`` and the Laurent
series runs hundreds of thousands of times, so it keeps aggregate counters
and records no spans.

Nothing here changes what the program computes: each wrapper calls the
original and returns its result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "exact_scalars",
    "series_kernel",
    "angle_engine",
    "trig_algebra",
    "polytope_engine",
    "quadrature",
    "montecarlo",
    "cli",
)

#: class methods wrapped with counters only (no spans)
_ARITHMETIC = {
    "PiNumber": ("__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__pow__", "__truediv__", "inverse",
                 "evaluate", "to_float"),
    "FourierPoly": ("__init__", "__add__", "__neg__", "__sub__", "scaled", "__mul__",
                    "__pow__"),
}

#: layer functions whose calls are too many to record as spans
_NO_SPAN = {"laurent", "coeff_at", "coefficient", "residue", "add", "scale", "shift",
            "multiply", "reciprocal", "int_power", "monomial", "bernoulli",
            "format_pinumber", "gamma_half", "c_beta", "c_tilde_beta"}

SPANS_PER_QUERY = 40


class Tracer:
    def __init__(self) -> None:
        self.active = True
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.caches: dict[str, object] = {}
        self._stack: list[list] = []  # [layer, child time, span id]
        self._query = None
        self._query_id = None
        self._query_spans = 0
        self._last_exc = None

    # -- installation -------------------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {name: importlib.import_module(f"angleworks.{name}") for name in LAYERS}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "angleworks" or name.startswith("angleworks.")]
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                    tracer.caches[f"{layer}.{name}"] = obj
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                private = name.startswith("_")
                if private and not _used_by_other_module(obj, mod, namespaces):
                    continue
                replace[id(obj)] = tracer._wrap(layer, name, obj, span=name not in _NO_SPAN)
            for cls_name, methods in _ARITHMETIC.items():
                klass = vars(mod).get(cls_name)
                if klass is None or klass.__module__ != mod.__name__:
                    continue
                wrapped = {}
                for meth in methods:
                    fn = vars(klass)[meth]
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = tracer._wrap(layer, f"{cls_name}.{meth}", fn, span=False)
                    setattr(klass, meth, wrapped[id(fn)])
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replace:
                    setattr(ns, name, replace[id(obj)])
        return tracer

    def _wrap(self, layer: str, name: str, fn, span: bool):
        hook = _HOOKS.get(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            span_id = None
            if span and (parent is None or parent[0] != layer):
                span_id = self._open_span(layer, name, parent)
            frame = [layer, 0.0, span_id if span_id is not None else (parent[2] if parent else None)]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.errors[layer] += 1
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                self.self_s[layer] += dur - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                if span_id is not None:
                    self.spans[span_id][5] = self.spans[span_id][4] + dur
            if hook is not None:
                hook(self, args, result, dur)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- spans ----------------------------------------------------------------------

    def _open_span(self, layer: str, name: str, parent) -> int | None:
        if self._query_spans >= SPANS_PER_QUERY:
            self.spans_dropped += 1
            return None
        self._query_spans += 1
        parent_id = parent[2] if parent and parent[2] is not None else self._query
        t = time.perf_counter()
        self.spans.append([len(self.spans), parent_id, f"{layer}.{name}", self._query_id, t, t])
        return len(self.spans) - 1

    def begin_query(self, query_id: str) -> None:
        self._query_id = query_id
        self._query_spans = 0
        t = time.perf_counter()
        self.spans.append([len(self.spans), None, "query", query_id, t, t])
        self._query = len(self.spans) - 1

    def end_query(self) -> None:
        self.spans[self._query][5] = time.perf_counter()
        self._query = None

    # -- report -----------------------------------------------------------------------

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "caches": {name: fn.cache_info()._asdict() for name, fn in self.caches.items()},
            "spans": [dict(zip(("id", "parent", "name", "query", "start", "end"), s))
                      for s in self.spans],
            "spans_dropped": self.spans_dropped,
        }


def _used_by_other_module(obj, home, namespaces) -> bool:
    return any(ns is not home and any(v is obj for v in vars(ns).values()) for ns in namespaces)


# -- counters read at layer boundaries ------------------------------------------------


def _multiply(tr: Tracer, args, result, dur) -> None:
    s, t = args[0], args[1]
    if not s.coeffs or not t.coeffs:
        return
    ls, lt = len(s.coeffs), len(t.coeffs)
    if s.order is None and t.order is None:
        length = ls + lt - 1
    else:
        cands = []
        if t.order is not None:
            cands.append(t.order + s.valuation)
        if s.order is not None:
            cands.append(s.order + t.valuation)
        length = min(cands) - s.valuation - t.valuation
    tr.counters["coeff_products"] += sum(max(0, min(lt, length - i)) for i in range(ls))
    tr.maxima["max_window"] = max(tr.maxima["max_window"], length)


def _reciprocal(tr: Tracer, args, result, dur) -> None:
    s = args[0]
    if s.order is None:
        return
    length, la = s.order - s.valuation, len(s.coeffs)
    tr.counters["coeff_products"] += sum(min(n, la - 1) for n in range(1, length))
    tr.maxima["max_window"] = max(tr.maxima["max_window"], length)


def _residue(tr: Tracer, args, result, dur) -> None:
    tr.counters["residue_calls"] += 1
    if result == 0:
        tr.counters["zero_residues"] += 1


def _time_in(counter: str):
    def hook(tr: Tracer, args, result, dur) -> None:
        tr.counters[counter] += dur

    return hook


def _fourier_mul(tr: Tracer, args, result, dur) -> None:
    tr.counters["fourier_mul_calls"] += 1
    tr.counters["fourier_term_products"] += len(args[0].terms) * len(args[1].terms)
    tr.maxima["max_fourier_terms"] = max(tr.maxima["max_fourier_terms"], len(result.terms))


def _pi_result(tr: Tracer, args, result, dur) -> None:
    if result is NotImplemented:
        return
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.terms.values()), default=0)
    if bits > tr.maxima["max_coeff_bits"]:
        tr.maxima["max_coeff_bits"] = bits


def _quad(tr: Tracer, args, result, dur) -> None:
    tr.counters["evaluations"] += result.evaluations
    tr.maxima["max_error_estimate"] = max(tr.maxima["max_error_estimate"],
                                          result.abs_error_estimate)


def _mc(tr: Tracer, args, result, dur) -> None:
    tr.counters["trials"] += result.trials
    tr.counters["mc_s"] += dur


_HOOKS = {
    "multiply": _multiply,
    "reciprocal": _reciprocal,
    "residue_rational": _residue,
    "bernoulli_fill": _time_in("fill_s"),
    "bJ_exact_case_iii": _time_in("tan_algebra_s"),
    "FourierPoly.__mul__": _fourier_mul,
    "PiNumber.__mul__": _pi_result,
    "PiNumber.__add__": _pi_result,
    "cosh_kernel": _quad,
    "mc_angle_sum": _mc,
    "mc_beta_hull_2d": _mc,
    "mc_voronoi_2d": _mc,
}
