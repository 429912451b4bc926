"""Call tracing of discde from outside the package.

The tracer replaces public functions and methods of ``discde`` with timing
wrappers for the duration of a traced round and restores the originals
afterwards; no program source is touched.  A function is replaced at every
module that binds it (``find_zeros`` is bound in ``zeros``, ``suites``,
``cli``, ``schwarzian`` and the package itself), methods and properties are
replaced on their class.

Spans: every wrapped call records name, start, end and the span that caused
it.  Coarse calls (a find_zeros, a build_g0, a suite run) are kept one record
each; hot calls (series evaluation, a single jet, a square's children) run
millions of times, so they are aggregated per (parent span, name) into call
count, total time and self time.  Self time is the call's duration minus the
time of the traced calls made inside it.  Spans are held in memory and
written once, at the end of the run.

Each benchmark operation opens a root span; every span records the root's
operation id, so the spans of one operation share an identifier.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Span stack, aggregates and counters for one traced run."""

    def __init__(self):
        self.spans = []          # finished coarse spans, one dict each
        self.leaf = defaultdict(lambda: [0, 0.0, 0.0])  # (parent id, name)
        self._stack = []         # open frames: [name, t0, child_s, span_id]
        self._active = Counter()
        self._next_id = 1
        self._op_id = None
        self._restore = []
        self.patched_sites = defaultdict(list)
        self.reset_round()

    # -- per-round statistics ------------------------------------------------

    def reset_round(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self s
        self.counters = Counter()
        self.min_trust = math.inf
        self.ops = 0

    def active(self, name):
        return self._active[name] > 0

    # -- spans ---------------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def call(self, name, coarse, fn, args, kwargs, attrs=None):
        """Run fn inside a span; a call re-entering ``name`` is not re-timed."""
        if self._active[name]:
            return fn(*args, **kwargs)
        self._active[name] += 1
        span_id = None
        if coarse:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id]
        parent = self._parent_span()
        self._stack.append(frame)
        t0 = frame[1] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self._stack.pop()
            self._active[name] -= 1
            dur = t1 - t0
            self_s = dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += self_s
            if coarse:
                record = {"id": span_id, "parent": parent, "op": self._op_id,
                          "name": name, "start": t0, "end": t1,
                          "self_s": self_s}
                if attrs:
                    record.update(attrs)
                self.spans.append(record)
            else:
                agg = self.leaf[(parent, name)]
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_s

    def operation(self, op_id, label, fn):
        """Root span of one benchmark operation."""
        self._op_id = op_id
        self.ops += 1
        try:
            return self.call("op", True, fn, (), {}, {"label": label})
        finally:
            self._op_id = None

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, coarse, original, wrap_arg=None, after=None,
              name_of=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            if self._active[span]:
                return original(*args, **kwargs)
            if wrap_arg is not None:
                args, kwargs = self._count_callable_arg(args, kwargs,
                                                        *wrap_arg)
            result = self.call(span, coarse, original, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _count_callable_arg(self, args, kwargs, kwname, counter):
        """Replace the callable first argument by one that counts its calls."""
        if args:
            fn, rest = args[0], args[1:]
        else:
            fn, rest = kwargs.pop(kwname), ()

        def counted(*a, **k):
            self.counters[counter] += 1
            if counter == "stopping.wprime_calls" and (
                    self.active("stopping.build_g0")
                    or self.active("stopping.refine_generation")):
                self.counters["stopping.descent_wprime_calls"] += 1
            return fn(*a, **k)

        return (counted,) + tuple(rest), kwargs

    def patch_function(self, module, attr, name, coarse, **opts):
        """Replace module.attr at every discde module that binds it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, coarse, original, **opts)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "discde" and not mod_name.startswith("discde."):
                continue
            if mod is not None and mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))
                self.patched_sites[name].append(mod_name)

    def patch_method(self, cls, attr, name, coarse, **opts):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(self._wrap(name, coarse, original.fget, **opts))
        else:
            wrapped = self._wrap(name, coarse, original, **opts)
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, original))
        self.patched_sites[name].append(f"{cls.__module__}.{cls.__name__}")

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path, meta):
        leaf = [{"parent": parent, "name": name, "calls": c, "total_s": t,
                 "self_s": s}
                for (parent, name), (c, t, s) in self.leaf.items()]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "patched_sites": self.patched_sites,
                       "spans": self.spans, "aggregated": leaf}, fh)


# ---------------------------------------------------------------------------
# what is traced


def _after_trust(tracer, args, kwargs, result):
    if result < tracer.min_trust:
        tracer.min_trust = result


def _after_taylor(tracer, args, kwargs, result):
    if tracer.active("ode.jet") or tracer.active("ode.make_basis"):
        tracer.counters["ode.expansions"] += 1


def _after_eval_array(tracer, args, kwargs, result):
    tracer.counters["expr.eval_array_points"] += getattr(result, "size", 1)


def _after_jet(tracer, args, kwargs, result):
    z = args[2] if len(args) > 2 else kwargs["z"]
    tracer.counters["ode.points"] += getattr(z, "size", 1)


def _after_children(tracer, args, kwargs, result):
    tracer.counters["geometry.squares"] += len(result)


def _after_find_zeros(tracer, args, kwargs, result):
    tracer.counters["zeros.found"] += len(result.zeros)


def _after_quadrature(tracer, args, kwargs, result):
    tracer.counters["functionals.quadrature_nodes"] += len(result[0])


def _after_build_g0(tracer, args, kwargs, forest):
    tracer.counters["stopping.selected"] += len(forest.generations[0])
    tracer.counters["stopping.unresolved"] += len(forest.unresolved[0])


def _after_refine(tracer, args, kwargs, next_gen):
    forest = args[0] if args else kwargs["forest"]
    tracer.counters["stopping.selected"] += len(next_gen)
    tracer.counters["stopping.unresolved"] += len(forest.unresolved[-1])


def _after_run_suite(tracer, args, kwargs, report):
    tracer.counters["suites.checks"] += len(report.checks)
    tracer.counters["suites.checks_failed"] += sum(
        1 for c in report.checks if c.passed is False)


def _suite_span(args, kwargs):
    suite_id = args[0] if args else kwargs["suite_id"]
    return f"suites.{suite_id}"


def install(tracer):
    """Patch every traced entry point of an imported discde."""
    # discde re-exports a function named ``schwarzian`` over the submodule
    (cli, expr, functionals, geometry, ode, schwarzian, series, stopping,
     suites, zeros) = (importlib.import_module(f"discde.{name}") for name in (
         "cli", "expr", "functionals", "geometry", "ode", "schwarzian",
         "series", "stopping", "suites", "zeros"))

    fn = tracer.patch_function
    fn(expr, "taylor_at", "expr.taylor_at", False, after=_after_taylor)
    fn(expr, "eval_array", "expr.eval_array", False, after=_after_eval_array)
    fn(expr, "eval_jet", "expr.eval_jet", False)
    fn(series, "estimate_trust_radius", "series.trust", False,
       after=_after_trust)
    tracer.patch_method(series.PowerSeries, "evaluate", "series.horner", False)
    tracer.patch_method(ode.ContinuableSystem, "jet", "ode.jet", False,
                        after=_after_jet)
    fn(ode, "make_basis", "ode.make_basis", True)
    tracer.patch_method(geometry.CarlesonSquare, "children",
                        "geometry.children", False, after=_after_children)
    tracer.patch_method(geometry.CarlesonSquare, "z_q", "geometry.z_q", False)
    fn(geometry, "generation_squares", "geometry.generation_squares", False,
       after=_after_children)
    wprime = ("wprime_abs", "stopping.wprime_calls")
    fn(stopping, "build_g0", "stopping.build_g0", True, wrap_arg=wprime,
       after=_after_build_g0)
    fn(stopping, "refine_generation", "stopping.refine_generation", True,
       after=_after_refine)
    fn(stopping, "exhaustive_g0", "stopping.exhaustive_g0", True,
       wrap_arg=wprime)
    fn(stopping, "nontangential_max_inv", "stopping.ntmax", True,
       wrap_arg=wprime)
    fn(stopping, "weak_lp_fit", "stopping.weak_lp_fit", True)
    fn(zeros, "find_zeros", "zeros.find_zeros", True,
       wrap_arg=("f_jet", "zeros.contour_points"), after=_after_find_zeros)
    fn(zeros, "count_zeros", "zeros.count_zeros", True)
    fn(zeros, "jensen_check", "zeros.jensen_check", True)
    fn(functionals, "fp_norm", "functionals.fp_norm", True)
    fn(functionals, "growth_norm", "functionals.growth_norm", True)
    fn(functionals, "weighted_area_integral", "functionals.area", True)
    fn(functionals, "normality_sigma", "functionals.sigma", True)
    fn(functionals, "bmoa_seminorm", "functionals.bmoa", True)
    fn(functionals, "polar_quadrature", "functionals.polar_quadrature", False,
       after=_after_quadrature)
    fn(schwarzian, "quotient_from_coefficient", "schwarzian.quotient", True)
    fn(schwarzian, "factorize", "schwarzian.factorize", True)
    fn(schwarzian, "bjest_check", "schwarzian.bjest_check", True)
    fn(suites, "run_suite", "suites.run_suite", True, after=_after_run_suite,
       name_of=_suite_span)
    fn(cli, "main", "cli.main", True)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, bytes_written):
    """Per-layer values of the round just traced, by metric name."""
    st, c = tracer.stats, tracer.counters

    def calls(name):
        return st[name][0] if name in st else 0

    def secs(name):
        return st[name][1] if name in st else 0.0

    def self_secs(name):
        return st[name][2] if name in st else 0.0

    m = {
        "expr.taylor_calls": calls("expr.taylor_at"),
        "expr.taylor_s": secs("expr.taylor_at"),
        "expr.eval_array_points": c["expr.eval_array_points"],
        "expr.eval_array_s": secs("expr.eval_array"),
        "expr.eval_jet_calls": calls("expr.eval_jet"),
        "expr.eval_jet_s": secs("expr.eval_jet"),
        "series.horner_calls": calls("series.horner"),
        "series.horner_s": secs("series.horner"),
        "series.trust_calls": calls("series.trust"),
        "series.trust_s": secs("series.trust"),
        "series.min_trust_radius": (tracer.min_trust
                                    if math.isfinite(tracer.min_trust)
                                    else 0.0),
        "ode.calls": calls("ode.jet"),
        "ode.points": c["ode.points"],
        "ode.points_per_call": _ratio(c["ode.points"], calls("ode.jet")),
        "ode.jet_s": secs("ode.jet"),
        "ode.jet_self_s": self_secs("ode.jet"),
        "ode.expansions": c["ode.expansions"],
        "ode.expansions_per_op": _ratio(c["ode.expansions"], tracer.ops),
        "ode.make_basis_s": secs("ode.make_basis"),
        "geometry.squares": c["geometry.squares"],
        "geometry.children_s": secs("geometry.children"),
        "geometry.z_q_calls": calls("geometry.z_q"),
        "geometry.z_q_s": secs("geometry.z_q"),
        "stopping.build_g0_s": secs("stopping.build_g0"),
        "stopping.refine_s": secs("stopping.refine_generation"),
        "stopping.exhaustive_s": secs("stopping.exhaustive_g0"),
        "stopping.ntmax_s": secs("stopping.ntmax"),
        "stopping.wprime_calls": c["stopping.wprime_calls"],
        "stopping.selected": c["stopping.selected"],
        "stopping.unresolved": c["stopping.unresolved"],
        "stopping.select_ratio": _ratio(c["stopping.selected"],
                                        c["stopping.descent_wprime_calls"]),
        "zeros.find_calls": calls("zeros.find_zeros"),
        "zeros.find_s": secs("zeros.find_zeros"),
        "zeros.count_calls": calls("zeros.count_zeros"),
        "zeros.count_s": secs("zeros.count_zeros"),
        "zeros.contour_points": c["zeros.contour_points"],
        "zeros.points_per_zero": _ratio(c["zeros.contour_points"],
                                        c["zeros.found"]),
        "zeros.jensen_s": secs("zeros.jensen_check"),
        "functionals.fp_norm_s": secs("functionals.fp_norm"),
        "functionals.growth_norm_s": secs("functionals.growth_norm"),
        "functionals.area_s": secs("functionals.area"),
        "functionals.sigma_s": secs("functionals.sigma"),
        "functionals.bmoa_s": secs("functionals.bmoa"),
        "functionals.quadrature_nodes": c["functionals.quadrature_nodes"],
        "schwarzian.quotient_s": secs("schwarzian.quotient"),
        "schwarzian.factorize_s": secs("schwarzian.factorize"),
        "schwarzian.bjest_s": secs("schwarzian.bjest_check"),
    }
    for i in range(1, 8):
        m[f"suites.S{i}_s"] = secs(f"suites.S{i}")
    m["suites.checks"] = c["suites.checks"]
    m["suites.checks_failed"] = c["suites.checks_failed"]
    m["cli.main_s"] = secs("cli.main")
    m["cli.self_s"] = self_secs("cli.main")
    m["cli.bytes_written"] = bytes_written
    return m
