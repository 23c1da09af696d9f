"""Record reference dispersion rates for the `dispersion` workload's seeds.

Usage, from the root of a source checkout:

    python3 bench/record_reference.py 0-20

For each seed, generates the workload's inputs, runs `rtmodes dispersion`
on them and stores the inputs with every rate and the maximum in
bench/reference.json.  The benchmark compares a run against the entry for
its seed when the inputs match exactly, to 1e-7 relative.  The stored
rates are a regression reference: record them only at a commit whose rates
are trusted, and say which commit in the file.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(seed_text):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from validate import seeds_arg
    from workloads import REFERENCE, Dispersion, read_curve

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data["commit"] = commit
    entries = data.setdefault(Dispersion.name, {})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for seed in seeds_arg(seed_text):
            w = Dispersion(seed, Path(tmp) / str(seed))
            w.make_inputs()
            out = w.workdir / "out"
            subprocess.run([sys.executable, "-m", "rtmodes.cli"] + w.cli_args(out),
                           cwd=w.workdir, env=env, check=True, capture_output=True)
            curve, meta = read_curve(out)
            entries[str(seed)] = {
                "inputs": {k: w.values[k] for k in
                           ("sweep.xi_min", "sweep.xi_max", "sweep.n", "mesh.elements_per_side")},
                "lambda": curve["lambda"].tolist(),
                "Lambda": meta["Lambda"],
            }
            print(f"seed {seed}: Lambda = {meta['Lambda']!r}", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "0-20")
