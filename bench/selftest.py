"""Self-tests of the benchmark's own machinery.

Usage: python3 bench/selftest.py      (from the root of a source checkout)

1. Installing the tracer leaves no `rtmodes.*` namespace binding an
   unwrapped public function, and uninstalling restores every original.
2. Self time is a span's duration minus the union of its children,
   checked on a synthetic nested trace with overlapping children.
3. A dispersion curve whose rates are scaled by 1 + 1e-5 is flagged by both
   curve oracles (dense eigenvalue test, exact reference rate), and the
   unscaled curve passes them.

The traced benchmark run calls :func:`run_all` and fails if any test fails.
"""

import sys
from pathlib import Path

PERTURBATION = 1.0 + 1e-5


def check_tracer_install():
    import importlib

    import tracing

    importlib.import_module("rtmodes")

    def snapshot():
        owners = tracing.rtmodes_namespaces() + [
            getattr(sys.modules["rtmodes." + layer], cls)
            for layer, classes in tracing.TRACED_CLASSES.items() for cls in classes
        ] + [importlib.import_module(mod) for mod, _, _ in tracing.KERNELS]
        return {id(o): (o, dict(vars(o))) for o in owners}

    before = snapshot()
    if tracing.unwrapped_bindings() == []:
        return ["tracer: functions look wrapped before install"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        left = tracing.unwrapped_bindings()
    finally:
        tracer.uninstall()
    problems = [f"tracer: {ns}.{name} still unwrapped after install" for ns, name in left]
    after = snapshot()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        for name, val in attrs.items():
            if now.get(name) is not val:
                problems.append(f"tracer: {getattr(owner, '__name__', owner)}.{name} not restored")
    return problems


def check_self_time():
    from tracing import self_times, tail_value

    # root [0, 10]; a [1, 4] with child [2, 3]; b [3, 6] overlaps a; c [8, 12] ends past root
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],
        ["a.child", 2.0, 3.0, 1, 0, None],
        ["c", 8.0, 12.0, 0, 0, None],
    ]
    want = [3.0, 2.0, 3.0, 1.0, 4.0]
    got = self_times(spans)
    problems = [f"self time of {s[0]}: {g} != {w}" for s, g, w in zip(spans, got, want)
                if abs(g - w) > 1e-12]
    if tail_value(list(range(1, 21))) != 10 or tail_value([5.0, 1.0]) != 1.0:
        problems.append("tail_value does not leave ten samples beyond the tail")
    return problems


def check_perturbed_curve():
    from rtmodes import growth_rate, load_config, sweep
    from workloads import PHYSICS, XI_C, curve_failures

    cfg = load_config(None, [f"{k}={v!r}" for k, v in PHYSICS.items()]
                      + ["mesh.elements_per_side=32"])
    profile, mesh = cfg.profile(), cfg.mesh()
    c = sweep(profile, mesh, 0.1 * XI_C, 0.9 * XI_C, n=4)
    curve = {"xi": c.xi, "lambda": c.lam, "residual": c.residual}
    scaled = dict(curve, **{"lambda": c.lam * PERTURBATION})
    oracle = lambda xi: growth_rate(profile, mesh, float(xi)).lam
    problems = []
    for label, kw in (("dense", {}), ("reference rate", {"oracle": oracle})):
        if any(curve_failures(curve, c.Lambda, c.argmax_xi, profile, mesh, **kw)):
            problems.append(f"perturbed-curve test: the {label} oracle rejects a good curve")
        bad = curve_failures(scaled, c.Lambda * PERTURBATION, c.argmax_xi, profile, mesh, **kw)
        if not any(bad):
            problems.append(f"perturbed-curve test: the {label} oracle misses a scaled rate")
    return problems


def run_all():
    """Self-test name -> the problems it found; every list is empty when all pass."""
    return {test.__name__: test()
            for test in (check_tracer_install, check_self_time, check_perturbed_curve)}


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    failures = 0
    for name, problems in run_all().items():
        print(f"{name}: {'FAIL' if problems else 'pass'}")
        for p in problems:
            print("  " + p)
        failures += bool(problems)
    sys.exit(1 if failures else 0)
