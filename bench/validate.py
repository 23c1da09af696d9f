"""Repeat benchmark runs over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 bench/validate.py [--workloads verify,tabulated]
        [--seeds 1-10] [--trace-seed N] [--roadmap] [--out summary.json]

Runs ``bench/run.py --trace 0`` once per workload and seed, one after
another, with the run length from BENCHMARK.json.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the metric's bound; a spread
above a third of the bound marks the metric as unsteady.  ``--trace-seed``
adds one traced run per workload and keeps its per-layer metrics.
``--roadmap`` also times the default `rtmodes verify` once and compares it,
with the traced figures, against the ROADMAP baseline (within 20%).
Exits 1 if a run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


# ROADMAP "Recent" baseline: (what, (low, high) figure, source of the measured value)
ROADMAP = (
    ("default verify wall, s", (40.0, 40.0), ("roadmap", "verify_default_wall_s")),
    ("growth_rate at 256 per side, s", (0.9, 1.2), ("verify", "ladder.n256.growth_rate_s")),
    ("eigen solves per growth_rate", (38.0, 38.0), ("verify", "dispersion.mu_evals_per_solve")),
    ("assemble at 256 per side, s", (0.009, 0.009), ("verify", "ladder.n256.assemble_s")),
)


def run_bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: run failed\n{proc.stdout}{proc.stderr}")
        return None
    return {k: m["value"] for k, m in result["metrics"].items()}


def default_verify_wall():
    """Wall time of `rtmodes verify` on the default config, one process."""
    out = ROOT / ".bench_work" / "roadmap"
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "rtmodes.cli", "verify", "--set", f"output.dir={out}"],
                   cwd=ROOT, env=env, check=True, capture_output=True)
    return time.perf_counter() - t0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--roadmap", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary, traces, ok = {}, {}, True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            t0 = time.perf_counter()
            result = run_bench(workload, seed, spec["run_seconds"], 0)
            if result is None:
                ok = False
                continue
            for name, v in result.items():
                values[name].append(v)
            print(f"{workload} seed {seed} ({time.perf_counter() - t0:.0f} s): " + ", ".join(
                f"{k}={v:.4g}" for k, v in result.items()), flush=True)
        if args.trace_seed is not None:
            traces[workload] = run_bench(workload, args.trace_seed, spec["run_seconds"], 1)
            ok = ok and traces[workload] is not None
        summary[workload] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                "unit": m["unit"], "runs": len(vals), "values": vals}
            flag = "ok" if spread < m["bound"] / 3 else "UNSTEADY"
            print(f"  {workload:<11} {m['name']:<12} median {med:10.4f} {m['unit']:<3} "
                  f"spread {spread:7.4f} (bound {m['bound']}) {flag}")
    report = {"seeds": args.seeds, "end_to_end": summary, "per_layer": traces}
    if args.roadmap:
        traces["roadmap"] = {"verify_default_wall_s": default_verify_wall()}
        report["roadmap"] = []
        for what, figure, (workload, key) in ROADMAP:
            measured = (traces.get(workload) or {}).get(key)
            within = measured is not None and 0.8 * figure[0] <= measured <= 1.2 * figure[1]
            report["roadmap"].append({"what": what, "roadmap": figure, "measured": measured,
                                      "within_20pct": within})
            print(f"  ROADMAP {what}: {figure} vs measured {measured} "
                  f"({'within' if within else 'NOT within'} 20%)")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
