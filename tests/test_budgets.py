"""Work budgets: the exact band factorizations, solves and mat-vecs of each reference run.

Wall times on a shared box drift by about 20%, and interpreter start-up is most
of a short run, so a change that doubles solver work can hide in them.  The
counts that ``cli.main`` writes to ``run.json`` are exact and repeat from run
to run, so each run below must take exactly its budget.  A change that lowers
a count lowers its budget here and says so in CHANGES.md; one that raises a
count states the new count and the reason.  Whether a factorization succeeds
is decided at roundoff, so another BLAS build may move a count by a few.

Recorded with Python 3.11.7, numpy 2.4.6, scipy 1.17.1 and
OPENBLAS_NUM_THREADS=1.  The runs take about 0.7-0.9 s in all.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import rtmodes
from rtmodes.cli import main

BENCH = Path(rtmodes.__file__).resolve().parents[2] / "bench" / "workloads.py"

# run -> (argv without output.dir, factorizations, solves, mat-vecs); a "workload NAME"
# run is the command of that benchmark workload at seed 3
BUDGETS = {
    "dispersion": (["dispersion"], 197, 192, 817),
    "verify": (["verify"], 294, 301, 1017),
    "mode": (["mode"], 9, 8, 27),
    "evolve": (["evolve"], 10, 2401, 2422),
    "synthesize": (["synthesize"], 65, 63, 267),
    "lattice --L 1.3": (["lattice", "--L", "1.3"], 58, 52, 199),
    "profile": (["profile"], 0, 0, 0),
    "forms --xi 1.0": (["forms", "--xi", "1.0"], 0, 0, 0),
    "workload verify": (None, 269, 276, 943),
    "workload tabulated": (None, 24, 15, 53),
}


def _workload_argv(name, workdir, out):
    """The benchmark's command for workload ``name`` at seed 3, its inputs written to workdir."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name](3, workdir)
    workload.make_inputs()
    return workload.cli_args(out)


@pytest.mark.parametrize("run", BUDGETS)
def test_run_takes_exactly_its_work_budget(tmp_path, capsys, run):
    argv, *budget = BUDGETS[run]
    out = tmp_path / "out"
    if argv is None:
        argv = _workload_argv(run.split()[1], tmp_path / "inputs", out)
    else:
        argv = [*argv, "--set", f"output.dir={out}"]
    assert main(argv) == 0
    capsys.readouterr()
    meta = json.loads((out / "run.json").read_text())
    assert [meta["factorizations"], meta["solves"], meta["matvecs"]] == budget
