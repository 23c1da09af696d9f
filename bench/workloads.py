"""The benchmark's workloads: seeded inputs, the CLI command, and output oracles.

Every workload runs the isothermal two-fluid slab of the default config
(K- = 2, K+ = 1, gamma = 1, rho- = 1, g = 1, sigma = 0.1).  The seed only
moves inputs inside ranges where the answer is pinned by an oracle that
needs no stored reference; a stored reference is compared as well when one
was recorded for exactly these inputs.
"""

import json
import math
import random
from pathlib import Path

import numpy as np

G, SIGMA, K_LOWER, K_UPPER, RHO_MINUS = 1.0, 0.1, 2.0, 1.0, 1.0
PHYSICS = {
    "geometry.m": 1.0, "geometry.ell": 1.0, "geometry.g": G, "geometry.sigma": SIGMA,
    "fluid.lower.K": K_LOWER, "fluid.lower.gamma": 1.0, "fluid.lower.rho0": RHO_MINUS,
    "fluid.upper.K": K_UPPER, "fluid.upper.gamma": 1.0,
}
# isothermal laws: pressure continuity gives rho+ = K- rho- / K+
RHO_JUMP = K_LOWER * RHO_MINUS / K_UPPER - RHO_MINUS
XI_C = math.sqrt(G * RHO_JUMP / SIGMA)

FIXED_POINT_TOL = 1e-9      # solver.fixed_point_tol default; the residual column must meet it
DENSE_TOL = 1e-8            # |bottom eigenvalue of (E0 + lam E1, J) + lam^2|
REFERENCE_RTOL = 1e-7       # against rates recorded at the seed commit
POLYTROPIC_TOL = 1e-6       # tabulated copy of a linear law against the law itself
TABLE_RHO = (0.05, 20.0)
TABLE_SAMPLES = 40
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def write_config(path, values):
    with open(path, "w") as fh:
        fh.write("# generated by the rtmodes benchmark\n")
        for key, val in values.items():
            fh.write(f"{key} = {val!r}\n" if isinstance(val, float) else f"{key} = {val}\n")


class Workload:
    """One workload: how to make its inputs, its command, and its oracle."""

    name = ""
    subcommand = ""
    elements = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.config = self.workdir / "input.cfg"
        self.rng = random.Random(f"{self.name}/{seed}")
        self.values = dict(PHYSICS, **{"mesh.elements_per_side": self.elements})

    def make_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        write_config(self.config, self.values)

    def cli_args(self, outdir):
        return [self.subcommand, "--config", str(self.config), "--set", f"output.dir={outdir}"]

    def check(self, outdirs, codes, logs):
        """(attempted, failed, notes) over the outputs of every process."""
        raise NotImplementedError


# -- dispersion curves ----------------------------------------------------------


def read_curve(outdir):
    outdir = Path(outdir)
    data = np.genfromtxt(outdir / "curve.csv", delimiter=",", names=True)
    data = np.atleast_1d(data)
    with open(outdir / "run.json") as fh:
        meta = json.load(fh)
    return {k: np.asarray(data[k], dtype=float) for k in data.dtype.names}, meta


def rate_bounds_ok(xi, lam):
    """lambda^2 <= g |xi| and the sigma-chained bound, with the verify battery's slack."""
    chained = G * (G * RHO_JUMP - SIGMA * xi**2) / (SIGMA * xi)
    return (lam**2 - G * xi <= 1e-8) & (lam**2 - chained <= 1e-6)


def dense_defect(profile, mesh, xi, lam):
    """|mu + lam^2| for the bottom eigenvalue mu of (E0 + lam E1, J), by dense LAPACK."""
    import scipy.linalg as sla
    from rtmodes import assemble

    E0, E1, J = assemble(profile, mesh, xi).dense()
    mu = sla.eigh(E0 + lam * E1, J, subset_by_index=[0, 0], eigvals_only=True)[0]
    return abs(float(mu) + lam**2)


def curve_failures(curve, Lambda, argmax_xi, profile, mesh, reference=None, oracle=None):
    """Per-operation verdicts for one dispersion curve: rows, then the maximum.

    ``oracle(xi) -> lambda`` is an exact reference rate; without one the
    endpoints and the argmax must pass the dense eigenvalue test.
    """
    xi, lam = curve["xi"], curve["lambda"]
    bad = ~((lam > 0) & (curve["residual"] <= FIXED_POINT_TOL) & rate_bounds_ok(xi, lam))
    bad_max = not (Lambda >= lam.max() and rate_bounds_ok(argmax_xi, Lambda))
    if oracle is not None:
        bad |= np.array([abs(l - oracle(x)) > POLYTROPIC_TOL for x, l in zip(xi, lam)])
        bad_max |= abs(Lambda - oracle(argmax_xi)) > POLYTROPIC_TOL
    else:
        for i in {0, len(xi) - 1}:
            bad[i] |= dense_defect(profile, mesh, xi[i], lam[i]) > DENSE_TOL
        bad_max |= dense_defect(profile, mesh, argmax_xi, Lambda) > DENSE_TOL
    if reference is not None:
        ref = np.asarray(reference["lambda"])
        bad |= np.abs(lam - ref) > REFERENCE_RTOL * np.abs(ref)
        bad_max |= abs(Lambda - reference["Lambda"]) > REFERENCE_RTOL * abs(reference["Lambda"])
    return [bool(b) for b in bad] + [bool(bad_max)]


class _Sweep(Workload):
    subcommand = "dispersion"
    points = 0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.values["sweep.n"] = self.points

    def operations(self):
        return self.points + 1       # every frequency, and the maximum Lambda

    def _profile_mesh(self):
        from rtmodes import load_config

        cfg = load_config(self.config)
        return cfg.profile(), cfg.mesh()

    def reference(self):
        return None

    def oracle(self):
        return None

    def check(self, outdirs, codes, logs):
        profile, mesh = self._profile_mesh()
        oracle, reference = self.oracle(), self.reference()
        attempted = failed = 0
        notes = []
        checked = None          # the first curve that passed through the full oracle
        for outdir, code in zip(outdirs, codes):
            attempted += self.operations()
            if code != 0:
                failed += self.operations()
                notes.append(f"{outdir}: exit code {code}")
                continue
            curve, meta = read_curve(outdir)
            if checked is not None and np.array_equal(curve["lambda"], checked[0]["lambda"]) \
                    and meta["Lambda"] == checked[1]["Lambda"]:
                continue        # same numbers as a curve already checked in full
            bad = curve_failures(curve, meta["Lambda"], meta["argmax_xi"], profile, mesh,
                                 reference, oracle)
            failed += sum(bad)
            if any(bad):
                notes.append(f"{outdir}: {sum(bad)} of {len(bad)} operations fail the oracle")
            elif checked is None:
                checked = (curve, meta)
        return attempted, failed, notes


class Dispersion(_Sweep):
    """`rtmodes dispersion` at 256 elements per side; ARPACK path, eigen-bound."""

    name = "dispersion"
    elements = 256
    points = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.values["sweep.xi_min"] = self.rng.uniform(0.02, 0.03) * XI_C
        self.values["sweep.xi_max"] = self.rng.uniform(0.95, 0.98) * XI_C

    def reference(self):
        if not REFERENCE.is_file():
            return None
        with open(REFERENCE) as fh:
            entry = json.load(fh).get(self.name, {}).get(str(self.seed))
        keys = ("sweep.xi_min", "sweep.xi_max", "sweep.n", "mesh.elements_per_side")
        if entry is None or any(entry["inputs"].get(k) != self.values[k] for k in keys):
            return None
        return entry


class Tabulated(_Sweep):
    """`rtmodes dispersion` with both laws as jittered (rho, P) tables of the
    same isothermal laws; quad/brentq profile evaluation dominates."""

    name = "tabulated"
    elements = 8
    points = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        for side in ("lower", "upper"):
            self.values[f"fluid.{side}.law"] = "tabulated"
            self.values[f"fluid.{side}.table"] = str(self.workdir / f"{side}.csv")
        lo, hi = (math.log(v) for v in TABLE_RHO)
        step = (hi - lo) / (TABLE_SAMPLES - 1)
        # interior samples move up to 40% of a log-step; the ends stay put
        logs = [lo + i * step + (self.rng.uniform(-0.4, 0.4) * step if 0 < i < TABLE_SAMPLES - 1 else 0.0)
                for i in range(TABLE_SAMPLES)]
        self.rho = [math.exp(v) for v in logs]

    def make_inputs(self):
        super().make_inputs()
        for side, K in (("lower", K_LOWER), ("upper", K_UPPER)):
            with open(self.workdir / f"{side}.csv", "w") as fh:
                fh.write("rho,P\n")
                fh.writelines(f"{r!r},{K * r!r}\n" for r in self.rho)

    def oracle(self):
        """The polytropic law itself: PCHIP reproduces a linear P(rho) exactly."""
        from rtmodes import growth_rate, load_config

        cfg = load_config(None, [f"{k}={v!r}" for k, v in PHYSICS.items()]
                          + [f"mesh.elements_per_side={self.elements}"])
        profile, mesh = cfg.profile(), cfg.mesh()
        return lambda xi: getattr(growth_rate(profile, mesh, float(xi)), "lam", 0.0)


class Verify(Workload):
    """`rtmodes verify` at 128 elements per side with jittered shear viscosity."""

    name = "verify"
    subcommand = "verify"
    elements = 128

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.values["sweep.n"] = 4
        for side in ("lower", "upper"):
            self.values[f"viscosity.{side}.eps"] = self.rng.uniform(0.09, 0.11)

    def check(self, outdirs, codes, logs):
        attempted = failed = 0
        notes = []
        for code, log in zip(codes, logs):
            rows = [ln.rsplit(None, 1)[-1] for ln in Path(log).read_text().splitlines()
                    if ln.rstrip().endswith((" pass", " FAIL"))]
            n = max(len(rows), 1)
            n_fail = n if code != 0 else rows.count("FAIL")
            attempted += n
            failed += n_fail
            if n_fail:
                notes.append(f"{log}: exit code {code}, {n_fail} of {n} checks fail")
        return attempted, failed, notes


WORKLOADS = {w.name: w for w in (Dispersion, Verify, Tabulated)}
