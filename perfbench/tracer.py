"""Per-layer call tracing by wrapping functions at the names callers resolve.

Several modules of the package import the names they call directly
(``from .linalg import solve_spd``), so wrapping the defining module alone
would miss those calls.  ``Tracer.install`` therefore replaces every
reference to a wrapped function in every loaded ``dualnewton`` module, and
wraps methods in their class dictionaries.  Classes must be patched before
the problem is built: ``BetaMixtureModel.dual_structure`` binds
``self.fisher_metric`` when the structure is created.

For every wrapped function the tracer records calls, total time, self time
(total minus the time of wrapped children), exceptions raised and, for
functions given a point argument, how many calls repeat a point already
passed to the same function within the current optimizer run.
"""

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "dualnewton"

# module (relative to the package) -> layer prefix of its metric names
LAYERS = {
    "models.loglinear": "loglinear",
    "models.betamix": "betamix",
    "models.gaussian": "gaussian",
    "geometry": "geometry",
    "linalg": "linalg",
    "objectives": "objectives",
    "optimizers": "optimizers",
    "experiments": "experiments",
}

# optimizer entry points and the method label each one runs
RUN_FUNCTIONS = {
    "dual_newton_run": "newton",
    "natural_gradient_run": "natgrad",
    "mirror_descent_run": "mirror",
    "adam_run": "adam",
}

# functions whose repeat share is measured; argument 1 is the point
POINT_FUNCTIONS = {
    "loglinear.fisher_metric",
    "loglinear.third_central_moment",
    "loglinear.christoffel",
    "betamix.fisher_metric",
    "betamix.christoffel",
}

# spans inside which the calls of every wrapped function are counted
SCOPES = {
    "optimizers.wolfe_line_search",
    "loglinear.moment_to_natural",
    "experiments.reference_point",
}

# private helpers on the run path that carry a layer's cost
EXTRA = {
    "experiments": ["_write_artifacts", "_Problem.reference_point"],
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "exceptions", "repeats")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.exceptions = 0
        self.repeats = 0


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(Stat)
        # (scope, function name) -> calls made while the scope was open;
        # scope "run" is any optimizer run, a method label one method
        self.inside = defaultdict(int)
        self.iterations = defaultdict(int)
        self._child = []
        self._scopes = []
        self._seen = defaultdict(set)
        self._patches = []

    # ---- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        child = self._child
        scopes = self._scopes
        inside = self.inside
        is_scope = name in SCOPES
        seen = self._seen[name] if name in POINT_FUNCTIONS else None
        clock = self.clock

        def traced(*args, **kwargs):
            stat.calls += 1
            for scope in scopes:
                inside[scope, name] += 1
            if seen is not None:
                key = np.asarray(args[1], dtype=float).tobytes()
                if key in seen:
                    stat.repeats += 1
                else:
                    seen.add(key)
            if is_scope:
                scopes.append(name)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.exceptions += 1
                raise
            finally:
                elapsed = clock() - start
                stat.total_s += elapsed
                stat.self_s += elapsed - child.pop()
                if child:
                    child[-1] += elapsed
                if is_scope:
                    scopes.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_run(self, fn, method):
        """Optimizer runs open the "run" scope and a method scope; a Newton
        run made by the reference polish is labelled "polish"."""
        tracer = self
        timed = {label: self._wrap(f"optimizers.{label}", fn) for label in (method, "polish")}

        def run(*args, **kwargs):
            label = "polish" if "experiments.reference_point" in tracer._scopes else method
            for points in tracer._seen.values():
                points.clear()
            tracer._scopes.extend(("run", label))
            try:
                trace = timed[label](*args, **kwargs)
            finally:
                del tracer._scopes[-2:]
            tracer.iterations[label] += trace.n_iterations
            return trace

        run.__wrapped__ = fn
        return run

    # ---- installation -----------------------------------------------------

    def install(self, full=True):
        """Wrap every public function and method of the layer modules.

        With ``full=False`` only the optimizer runs and the reference
        polish are wrapped: a handful of spans per pass, cheap enough for
        the untraced runs that time newton_s and baselines_s.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in LAYERS}
        replacements = {}
        for rel, module in modules.items():
            layer = LAYERS[rel]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and attr in RUN_FUNCTIONS:
                    replacements[id(obj)] = (obj, self._wrap_run(obj, RUN_FUNCTIONS[attr]))
                elif not full:
                    continue
                elif inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._patch_methods(obj, layer)
            for path in EXTRA.get(rel, ()):
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                obj = vars(owner)[attr]
                wrapped = self._wrap(f"{layer}.{attr.lstrip('_')}", obj)
                self._patches.append((owner, attr, obj))
                setattr(owner, attr, wrapped)
        # rebind every name a caller resolves, including `from x import y`
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return self

    def _patch_methods(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # ---- reading ----------------------------------------------------------

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def self_s(self, name):
        return self.stats[name].self_s if name in self.stats else 0.0

    def total_s(self, name):
        return self.stats[name].total_s if name in self.stats else 0.0

    def table(self):
        """Rows (name, calls, total_s, self_s, exceptions, repeats), by self time."""
        rows = [
            (name, s.calls, s.total_s, s.self_s, s.exceptions, s.repeats)
            for name, s in self.stats.items()
            if s.calls
        ]
        return sorted(rows, key=lambda r: -r[3])

    def layer_self_s(self):
        """Self time summed per layer prefix."""
        out = defaultdict(float)
        for name, s in self.stats.items():
            out[name.split(".", 1)[0]] += s.self_s
        return dict(out)
