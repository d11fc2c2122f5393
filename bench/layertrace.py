"""Outside-in layer trace: wrap the program's public functions from here.

Every traced function gets a call count and a self time (its duration minus
the time spent in traced functions it called).  Span functions (CLI
subcommands, verification suites, manifold traces) additionally record one
span each -- name, start, end, parent id and the change of every call count
while it ran -- kept in memory until the pass ends.  Hot leaves such as
``eval_f`` keep only the aggregate count and time.

Nothing under ``src/`` is modified: each wrapper replaces the original on
every ``surfauto`` module namespace that binds it (and on its class, for
methods), so calls between modules are counted as well.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Module -> qualified names of the layer functions the benchmark reports.
# Functions listed in SPANS also record spans.  A function the program no
# longer has is skipped and reports 0 calls.
LAYERS = {
    "verify": ["lattice_suite", "factorization_suite", "chart_suite",
               "parabolic_suite", "fixed_point_suite"],
    "picard": ["PicardLattice.build", "pushforward_matrix", "TSpace.__init__",
               "TSpace.project", "char_poly", "restricted_action",
               "gamma_closed_form", "minimality_report", "degree_sequence"],
    "exactmat": ["frac_solve", "frac_inv", "det_bareiss", "charpoly", "mat_mul"],
    "reflections": ["weyl_factorization_check", "coxeter_factorization_check",
                    "reversibility_check"],
    "mapfamily": ["eval_f_proj", "eval_f", "infinity_orbit", "center_series"],
    "charts": ["CenterTable.build", "fiber_transition_closed",
               "fiber_transition_numeric", "reversor_transition_numeric",
               "parabolic_check", "plane_to_chart", "route_chart"],
    "dual": ["richardson"],
    "dynamics": ["fixed_points", "unstable_manifold", "iterate_orbit"],
    "polyroots": ["aberth_roots"],
}
SPANS = {"verify.lattice_suite", "verify.factorization_suite", "verify.chart_suite",
         "verify.parabolic_suite", "verify.fixed_point_suite",
         "dynamics.unstable_manifold"}


def layer_name(module, qualname):
    """Metric stem of a layer function: ``TSpace.__init__`` reports as ``TSpace``."""
    return f"{module}.{qualname.removesuffix('.__init__')}"


class Tracer:
    """Call counts, self times and spans of the wrapped functions of one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []
        self._child_time = []     # one accumulator per active traced call
        self._span_ids = []       # ids of the active spans, innermost last
        self.origin = time.perf_counter()

    def leaf(self, name, fn):
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - child_time.pop()
                if child_time:
                    child_time[-1] += dt
        return wrapper

    def span(self, name, fn, summary=None):
        """Wrap ``fn`` so that each call records a span.  ``summary(result)``
        may add a dict of facts about the result to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run_span(name, fn, args, kwargs, summary)
        return wrapper

    def run_span(self, name, fn, args=(), kwargs=None, summary=None):
        span = {"id": len(self.spans), "name": name,
                "parent": self._span_ids[-1] if self._span_ids else None}
        self.spans.append(span)
        self._span_ids.append(span["id"])
        before = Counter(self.calls)
        self.calls[name] += 1
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if summary is not None:
                span.update(summary(result))
            return result
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            child = self._child_time.pop()
            self.self_s[name] += dt - child
            if self._child_time:
                self._child_time[-1] += dt
            self._span_ids.pop()
            span.update(start=t0 - self.origin, end=t1 - self.origin, self_s=dt - child,
                        calls={key: n for key, n in (self.calls - before).items() if key != name})

    def install(self, package="surfauto"):
        """Wrap every function in LAYERS on every module of ``package`` that
        binds it.  Call once, after the package is imported."""
        for module_name in LAYERS:
            importlib.import_module(f"{package}.{module_name}")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, qualnames in LAYERS.items():
            module = sys.modules[f"{package}.{module_name}"]
            for qualname in qualnames:
                name = layer_name(module_name, qualname)
                summary = _manifold_summary if name == "dynamics.unstable_manifold" else None
                wrap = ((lambda fn: self.span(name, fn, summary)) if name in SPANS
                        else (lambda fn: self.leaf(name, fn)))
                if "." in qualname:
                    _wrap_method(module, qualname, wrap)
                elif hasattr(module, qualname):
                    original = getattr(module, qualname)
                    wrapper = wrap(original)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is original:
                                setattr(mod, attr, wrapper)


def _wrap_method(module, qualname, wrap):
    cls_name, meth = qualname.split(".")
    cls = getattr(module, cls_name, None)
    raw = vars(cls).get(meth) if cls is not None else None
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, meth, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, meth, wrap(raw))


def _manifold_summary(line):
    return {"points": len(line.points), "x0": float(line.points[0][0]),
            "arclength": float(line.arclength[-1])}
