"""Work budgets: the exact band factorizations and solves of each reference run.

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

# run -> (argv without output.dir, factorizations, solves); a "workload NAME" run is
# the command of that benchmark workload at seed 3
BUDGETS = {
    "dispersion": (["dispersion"], 333, 328),
    "verify": (["verify"], 374, 381),
    "mode": (["mode"], 10, 9),
    "evolve": (["evolve"], 11, 2402),
    "synthesize": (["synthesize"], 120, 118),
    "lattice --L 1.3": (["lattice", "--L", "1.3"], 73, 67),
    "profile": (["profile"], 0, 0),
    "forms --xi 1.0": (["forms", "--xi", "1.0"], 0, 0),
    "workload verify": (None, 379, 386),
    "workload tabulated": (None, 25, 16),
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
    argv, factorizations, solves = BUDGETS[run]
    out = tmp_path / "out"
    if argv is None:
        argv = _workload_argv(run.split()[1], tmp_path / "inputs", out)
    else:
        argv = [*argv, "--set", f"output.dir={out}"]
    assert main(argv) == 0
    capsys.readouterr()
    meta = json.loads((out / "run.json").read_text())
    assert (meta["factorizations"], meta["solves"]) == (factorizations, solves)
