"""Span tracing for traced benchmark repetitions, installed from outside.

`Tracer.install()` replaces the public functions listed in `SPANS` with
wrappers that record one span (name, parent, start, end) per call.  A
function is replaced in every `ribbonvol` module namespace that binds it
(for example `pfaffian` in `kformula` and `wittencycle`, and
`kontsevich_volume` where `volumes._W` looks it up), so no call path
escapes the trace.  A method is replaced on its class under every name that
refers to it (`Poly.__mul__` is also `Poly.__rmul__`).

A span's self time is its duration minus the durations of its direct
children, so time spent in the standard library (`fractions`, `json`) counts
toward the layer that called it.  A layer is a span name without its last
component: `exact.linalg.pfaffian` belongs to the layer `exact.linalg`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced function; "Class.method" names a method.
SPANS = [
    ("ribbonvol.cli", "main"),
    ("ribbonvol.ribbon", "enumerate_graphs"),
    ("ribbonvol.ribbon", "enumerate_trivalent"),
    ("ribbonvol.volumes", "kontsevich_volume"),
    ("ribbonvol.volumes", "psi_numbers"),
    ("ribbonvol.volumes", "lhs_laplace"),
    ("ribbonvol.exact.poly", "poly_integrate"),
    ("ribbonvol.exact.poly", "Poly.__mul__"),
    ("ribbonvol.exact.ratfun", "RationalFunction.evaluate"),
    ("ribbonvol.exact.ratfun", "RationalFunction.reduced"),
    ("ribbonvol.exact.ratfun", "orthant_exponential_integral"),
    ("ribbonvol.kformula", "verify_kcf"),
    ("ribbonvol.kformula", "rhs_terms"),
    ("ribbonvol.kformula", "rhs_evaluate"),
    ("ribbonvol.kformula", "verify_form_identities"),
    ("ribbonvol.kformula", "cell_density"),
    ("ribbonvol.kformula", "kernel_normalization"),
    ("ribbonvol.kformula", "restrict_form"),
    ("ribbonvol.kformula", "kontsevich_form"),
    ("ribbonvol.multicurve", "intersection_matrix"),
    ("ribbonvol.hypgeom", "crossing_cos_exact"),
    ("ribbonvol.wittencycle", "witten12_report"),
    ("ribbonvol.wittencycle", "example5_charts"),
    ("ribbonvol.wittencycle", "witten_cycle_intersections"),
    ("ribbonvol.wittencycle", "cell_volume_laplace"),
    ("ribbonvol.wittencycle", "form_on_kernel_basis"),
    ("ribbonvol.wittencycle", "asymptotic_form"),
] + [("ribbonvol.exact.linalg", name) for name in (
    "identity", "mat_mul", "mat_vec", "transpose", "mat_rank", "mat_det",
    "mat_inverse", "kernel_basis", "right_inverse", "pfaffian")]

# Called too often, and too cheaply, for a span each: only counted.
COUNTED = [("ribbonvol.ribbon", "RibbonGraph.canonical_form")]


def span_name(module: str, attr: str) -> str:
    return module.removeprefix("ribbonvol.") + "." + attr.rsplit(".", 1)[-1]


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _matrix_dim(arg) -> int:
    if isinstance(arg, list) and arg and isinstance(arg[0], list):
        return max(len(arg), len(arg[0]))
    return 0


class Tracer:
    """Spans and counters of one traced repetition, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.counts = Counter()
        self.classes = 0     # sum of lengths returned by enumerate_graphs
        self.max_dim = 0     # largest matrix side passed to exact.linalg
        self._stack = []
        self._originals = {}

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observer(self, name):
        if name == "ribbon.enumerate_graphs":
            def observe(args, result):
                self.classes += len(result)
            return observe
        if name.startswith("exact.linalg."):
            def observe(args, result):
                if args:
                    self.max_dim = max(self.max_dim, _matrix_dim(args[0]))
            return observe
        return None

    def install(self):
        """Replace every traced function and method; call once per process."""
        for module, attr in SPANS:
            name = span_name(module, attr)
            self._replace(module, attr,
                          lambda fn, n=name: self._span(n, fn, self._observer(n)))
        for module, attr in COUNTED:
            name = span_name(module, attr)
            self._replace(module, attr, lambda fn, n=name: self._counter(n, fn))

    def original(self, module: str, attr: str):
        return self._originals[(module, attr)]

    def _replace(self, module, attr, make):
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            wrapper = make(original)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, wrapper)
        else:
            original = getattr(owner, attr)
            wrapper = make(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "ribbonvol" and not mod_name.startswith("ribbonvol."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self._originals[(module, attr)] = original

    def summary(self) -> dict:
        """Per span name: calls and inclusive seconds (outermost calls only);
        per layer: self seconds; per (parent name, name): direct-child calls."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        incl = defaultdict(float)
        layer_self = defaultdict(float)
        under = Counter()
        for i, (name, parent, start, end) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            layer_self[layer_of(name)] += dur - child_time[i]
            if parent >= 0:
                under[(spans[parent][0], name)] += 1
            if not self._has_ancestor(i, name):
                incl[name] += dur
        return {"calls": calls, "incl": incl, "layer_self": layer_self, "under": under}

    def _has_ancestor(self, i, name) -> bool:
        spans = self.spans
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][1]
        return False


def layer_metrics(tracer: Tracer, cache_info, output_bytes: int) -> dict:
    """The per-layer metrics of one traced repetition, as name -> number."""
    s = tracer.summary()
    calls, incl, layer_self = s["calls"], s["incl"], s["layer_self"]
    linalg = [n for n in calls if layer_of(n) == "exact.linalg"]
    classes = tracer.classes
    canonical = tracer.counts["ribbon.canonical_form"]
    points = calls["kformula.rhs_evaluate"]
    rhs_terms = s["under"][("kformula.rhs_evaluate", "exact.ratfun.evaluate")]
    return {
        "cli.self_s": layer_self["cli"],
        "cli.output_bytes": output_bytes,
        "ribbon.enumerate_s": incl["ribbon.enumerate_graphs"],
        "ribbon.self_s": layer_self["ribbon"],
        "ribbon.enumerate_calls": calls["ribbon.enumerate_graphs"],
        "ribbon.classes": classes,
        "ribbon.canonical_calls": canonical,
        "ribbon.canonical_per_class": canonical / classes if classes else 0.0,
        "volumes.kontsevich_volume_s": incl["volumes.kontsevich_volume"],
        "volumes.kontsevich_volume_calls": calls["volumes.kontsevich_volume"],
        "volumes.self_s": layer_self["volumes"],
        "volumes.psi_numbers_s": incl["volumes.psi_numbers"],
        "volumes.lhs_laplace_s": incl["volumes.lhs_laplace"],
        "volumes.cache_hits": cache_info.hits,
        "volumes.cache_misses": cache_info.misses,
        "exact.poly.integrate_calls": calls["exact.poly.poly_integrate"],
        "exact.poly.integrate_s": incl["exact.poly.poly_integrate"],
        "exact.poly.mul_calls": calls["exact.poly.__mul__"],
        "exact.poly.mul_s": incl["exact.poly.__mul__"],
        "exact.ratfun.evaluate_calls": calls["exact.ratfun.evaluate"],
        "exact.ratfun.evaluate_s": incl["exact.ratfun.evaluate"],
        "exact.ratfun.orthant_calls": calls["exact.ratfun.orthant_exponential_integral"],
        "exact.ratfun.orthant_s": incl["exact.ratfun.orthant_exponential_integral"],
        "exact.ratfun.reduced_s": incl["exact.ratfun.reduced"],
        "kformula.verify_kcf_s": incl["kformula.verify_kcf"],
        "kformula.rhs_terms_s": incl["kformula.rhs_terms"],
        "kformula.points": points,
        "kformula.terms_per_point": rhs_terms / points if points else 0.0,
        "exact.linalg.calls": sum(calls[n] for n in linalg),
        "exact.linalg.self_s": layer_self["exact.linalg"],
        "exact.linalg.pfaffian_calls": calls["exact.linalg.pfaffian"],
        "exact.linalg.pfaffian_s": incl["exact.linalg.pfaffian"],
        "exact.linalg.max_dim": tracer.max_dim,
        "kformula.identities_s": incl["kformula.verify_form_identities"],
        "kformula.cell_density_s": incl["kformula.cell_density"],
        "kformula.self_s": layer_self["kformula"],
        "multicurve.intersection_matrix_calls": calls["multicurve.intersection_matrix"],
        "multicurve.intersection_matrix_s": incl["multicurve.intersection_matrix"],
        "wittencycle.cell_volume_laplace_calls": calls["wittencycle.cell_volume_laplace"],
        "wittencycle.self_s": layer_self["wittencycle"],
        "hypgeom.crossing_cos_exact_calls": calls["hypgeom.crossing_cos_exact"],
    }
