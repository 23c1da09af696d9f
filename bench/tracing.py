"""Span tracing of the rtmodes layers, installed from outside the package.

A :class:`Tracer` replaces every public function of the layer modules, and
the public methods of the classes in ``TRACED_CLASSES``, with a wrapper that
records a span ``[name, start, end, parent, solve, info]``.  Modules import
functions by name (``from .eigen import smallest_eig``), so each wrapper is
installed in every ``rtmodes.*`` namespace that binds the original object.
Spans opened inside one ``dispersion.growth_rate`` call share its solve id.

A few scipy kernels are counted, not timed: their time stays with the
rtmodes span that is open when they run, and each call is attributed to the
module of that span.  Spans stay in memory until :meth:`Tracer.write`.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("eos", "profile", "mesh", "forms", "eigen", "dispersion", "residuals",
          "synthesis", "evolution", "verify", "config", "cli")
TRACED_CLASSES = {
    "eos": ("PressureLaw",),
    "profile": ("SteadyProfile",),
    "mesh": ("Mesh",),
    "synthesis": ("NonperiodicField", "PeriodicField"),
    "config": ("RunConfig",),
}
# (module, attribute, short name) of the counted scipy kernels
KERNELS = (
    ("scipy.sparse.linalg", "eigsh", "eigsh"),
    ("scipy.sparse.linalg", "splu", "splu"),
    ("scipy.linalg", "eigh", "eigh"),
    ("scipy.linalg", "lu_factor", "lu_factor"),
)
_MARK = "__rtmodes_traced__"

NAME, START, END, PARENT, SOLVE, INFO = range(6)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _density_info(args, kwargs, out):
    x = np.atleast_1d(np.asarray(args[1], dtype=float)).ravel().copy()
    side = _arg(args, kwargs, 2, "side")
    sides = np.where(x > 0, 1.0, -1.0) if side is None else float(side)
    return sides + 1j * x       # one complex key per (side, x3) point


def _growth_info(args, kwargs, out):
    profile, xi = args[0], float(_arg(args, kwargs, 2, "xi_mag"))
    return {"xi": xi, "xi_c": float(profile.xi_c), "stable": not hasattr(out, "lam")}


def _grid_points(args, kwargs, out):
    grid = _arg(args, kwargs, 1, "grid")
    return int(np.prod([np.size(g) for g in grid]))


def _field_points(args, kwargs, out):
    return int(np.size(_arg(args, kwargs, 1, "x")) // 3)


# span name -> info(args, kwargs, result); what the per-layer metrics need
INFO_OF = {
    "eos.PressureLaw.enthalpy_inverse": lambda a, k, o: 1,
    "eos.PressureLaw.enthalpy_inverse_vec": lambda a, k, o: int(np.size(a[1])),
    "profile.SteadyProfile.density": _density_info,
    "dispersion.growth_rate": _growth_info,
    "evolution.integrate": lambda a, k, o: len(o.times) - 1,
    "verify.run_battery": lambda a, k, o: len(o),
    "synthesis.NonperiodicField.sample": _grid_points,
    "synthesis.PeriodicField.sample": _grid_points,
    "synthesis.NonperiodicField.eta": _field_points,
    "synthesis.NonperiodicField.v": _field_points,
    "synthesis.NonperiodicField.q": _field_points,
    "synthesis.PeriodicField.eta": _field_points,
    "synthesis.PeriodicField.v": _field_points,
    "synthesis.PeriodicField.q": _field_points,
}


def _is_public_function(obj, module):
    return (inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not obj.__name__.startswith("_"))


def rtmodes_namespaces():
    """The package and every loaded ``rtmodes.*`` module."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "rtmodes" or n.startswith("rtmodes."))]


class Tracer:
    """Installs span wrappers on the rtmodes layers and keeps the spans."""

    def __init__(self):
        self.spans = []
        self.kernel_calls = []      # (kernel, innermost open span or -1, matrix order)
        self._stack = []
        self._solves = 0
        self._patches = []          # (owner, attribute, original raw value)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO_OF.get(name)
        clock = time.perf_counter
        new_solve = name == "dispersion.growth_rate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            solve = spans[parent][SOLVE] if parent >= 0 else 0
            if new_solve and solve == 0:
                self._solves += 1
                solve = self._solves
            rec = [name, 0.0, 0.0, parent, solve, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _counter(self, name, fn):
        calls, stack = self.kernel_calls, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = args[0] if args else next(iter(kwargs.values()))
            calls.append((name, stack[-1] if stack else -1, int(np.shape(a)[0])))
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        """Wrap every public function and traced method; idempotent per tracer."""
        if self._patches:
            return
        importlib.import_module("rtmodes")
        modules = {layer: importlib.import_module("rtmodes." + layer) for layer in LAYERS}
        namespaces = rtmodes_namespaces()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not _is_public_function(obj, mod):
                    continue
                wrapper = self._span(f"{layer}.{obj.__name__}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patch(ns, key, wrapper)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._span(name, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = self._span(name, raw)
                    else:
                        continue
                    self._patch(cls, attr, new)
        for mod_name, attr, short in KERNELS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._counter(short, getattr(mod, attr)))

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated lines: name start end parent solve."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tsolve\n")
            for s in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (s[NAME], s[START], s[END], s[PARENT], s[SOLVE]))


def unwrapped_bindings():
    """(namespace, name) pairs that still bind an unwrapped public function.

    Covers every ``rtmodes.*`` module and the public methods of the traced
    classes; after :meth:`Tracer.install` the list must be empty.
    """
    bad = []
    layer_modules = {"rtmodes." + layer for layer in LAYERS}
    for ns in rtmodes_namespaces():
        for key, val in vars(ns).items():
            if (inspect.isfunction(val) and val.__module__ in layer_modules
                    and not val.__name__.startswith("_") and not hasattr(val, _MARK)):
                bad.append((ns.__name__, key))
    for layer, classes in TRACED_CLASSES.items():
        mod = sys.modules["rtmodes." + layer]
        for cls_name in classes:
            for attr, raw in vars(getattr(mod, cls_name)).items():
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if (inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_"))
                        and not hasattr(fn, _MARK)):
                    bad.append((f"{mod.__name__}.{cls_name}", attr))
    return bad


# -- analysis -----------------------------------------------------------------


def self_times(spans):
    """Duration of each span minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[c][START], start), min(spans[c][END], end))
                           for c in children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def tail_value(values, beyond=10):
    """The highest percentile value with at least ``beyond`` samples above it.

    With ``beyond`` samples or fewer there is no such percentile, and the
    smallest sample is returned; report the sample count alongside.
    """
    if not values:
        return 0.0
    ordered = sorted(values, reverse=True)
    return float(ordered[min(beyond, len(ordered) - 1)])


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, kernel_calls, dense_cutoff):
    """Per-layer metrics of one traced run, keyed by metric name."""
    selfs = self_times(spans)
    layer_of = [s[NAME].split(".", 1)[0] for s in spans]
    m = {}

    def count(pred):
        return sum(1 for s in spans if pred(s))

    for layer in LAYERS:
        m[f"{layer}.calls"] = count(lambda s, L=layer: s[NAME].startswith(L + "."))
        m[f"{layer}.self_s"] = sum(t for t, L in zip(selfs, layer_of) if L == layer)

    def durations(name):
        return [s[END] - s[START] for s in spans if s[NAME] == name]

    def kernel(layer, name):
        return sum(1 for k, idx, _ in kernel_calls if k == name and idx >= 0 and layer_of[idx] == layer)

    # eos: densities recovered from the enthalpy, counted at the outermost inversion
    inversion = ("eos.PressureLaw.enthalpy_inverse", "eos.PressureLaw.enthalpy_inverse_vec")
    m["eos.inversions"] = sum(
        s[INFO] or 0 for s in spans
        if s[NAME] in inversion and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME] in inversion))

    # profile: every x3 sample handed to density, and how often each repeats
    samples = [s[INFO] for s in spans if s[NAME] == "profile.SteadyProfile.density" and s[INFO] is not None]
    points = sum(a.size for a in samples)
    distinct = np.unique(np.concatenate(samples)).size if samples else 0
    m["profile.density_points"] = points
    m["profile.repeat_ratio"] = points / distinct if distinct else 0.0

    assembles = durations("forms.assemble")
    m["forms.assemble.calls"] = len(assembles)
    m["forms.assemble.p50_s"] = _median(assembles)

    m["eigen.smallest_eig.p50_s"] = _median(durations("eigen.smallest_eig"))
    for k in ("eigsh", "eigh", "splu"):
        m[f"eigen.{k}.calls"] = kernel("eigen", k)
    m["eigen.fallbacks"] = sum(
        1 for k, idx, n in kernel_calls
        if k == "eigh" and idx >= 0 and spans[idx][NAME] == "eigen.smallest_eig" and n > dense_cutoff)
    oneshot = [i for i, s in enumerate(spans) if layer_of[i] == "eigen" and s[SOLVE] == 0]
    m["eigen.oneshot.calls"] = len(oneshot)
    m["eigen.oneshot.self_s"] = sum(selfs[i] for i in oneshot)

    solves = [s for s in spans if s[NAME] == "dispersion.growth_rate"]
    rates = [s[END] - s[START] for s in solves]
    m["dispersion.growth_rate.calls"] = len(solves)
    m["dispersion.growth_rate.p50_s"] = _median(rates)
    m["dispersion.growth_rate.tail_s"] = tail_value(rates)
    m["dispersion.growth_rate.samples"] = len(rates)
    converged = {s[SOLVE] for s in solves if s[INFO] and not s[INFO]["stable"]}
    mu_evals = count(lambda s: s[NAME] == "eigen.smallest_eig" and s[SOLVE] in converged)
    m["dispersion.mu_evals_per_solve"] = mu_evals / len(converged) if converged else 0.0
    stable = [s[INFO] for s in solves if s[INFO] and s[INFO]["stable"]]
    m["dispersion.stable"] = len(stable)
    m["dispersion.stable_in_window"] = sum(1 for i in stable if i["xi"] < i["xi_c"])

    m["synthesis.points"] = sum(
        s[INFO] for s in spans
        if s[NAME] in INFO_OF and s[NAME].startswith("synthesis.") and s[INFO] is not None
        and not (s[PARENT] >= 0 and layer_of[s[PARENT]] == "synthesis"))

    m["evolution.steps"] = sum(s[INFO] or 0 for s in spans if s[NAME] == "evolution.integrate")
    m["evolution.splu.calls"] = kernel("evolution", "splu")
    m["evolution.bound_check_s"] = sum(durations("evolution.growth_bound_check"))

    m["verify.checks"] = sum(s[INFO] or 0 for s in spans if s[NAME] == "verify.run_battery")
    m["trace.spans"] = len(spans)
    m["trace.self_sum_s"] = sum(selfs)
    return m
