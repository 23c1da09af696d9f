"""rtmodes benchmark: runs one workload as a user would and reports its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {verify,tabulated,dispersion} \
        --seed N --seconds S --trace {0,1}

Each operation of a run is a fresh `python3 -m rtmodes.cli ...` process,
started after the previous one exits (a closed loop with one client), on
inputs generated from the seed.  With ``--trace 0`` the run repeats the
command for about S seconds and reports the end-to-end metrics as medians
over its processes; set-up time is the median of several fresh probes.
With ``--trace 1`` it runs the command untraced, then with every layer
wrapped (bench/traced_cli.py), then untraced again; times the mesh-size
ladder (bench/ladder.py); runs the self-tests; and reports the per-layer
metrics.
Outputs are checked against the workload's oracles outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric by name and unit.  Scratch files go to
``.bench_work/`` in the checkout and are removed at the end of the run,
apart from ``.bench_work/results.jsonl``, which keeps every run's record.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 140.0        # stop starting processes past this, whatever --seconds says


def child_env():
    """Environment of every process the benchmark starts: src/ importable, and
    OpenBLAS on one thread.  On a few shared cores, OpenBLAS's spinning worker
    threads turn any competing load into large swings of wall time."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv, cwd, log):
    """Run argv to completion; wall, CPU (user + system) and peak RSS of the child."""
    with open(log, "wb") as out:
        start_epoch = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "start_epoch": start_epoch,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def cli_argv(workload, outdir):
    return [sys.executable, "-m", "rtmodes.cli"] + workload.cli_args(outdir)


def probe(workload, tag):
    log = workload.workdir / f"probe-{tag}.log"
    rec = run_process([sys.executable, str(BENCH / "probe.py"), str(workload.config)],
                      workload.workdir, log)
    if rec["code"] != 0:
        raise RuntimeError(f"set-up probe failed:\n{log.read_text()}")
    return json.loads(log.read_text().splitlines()[-1])


def measure(workload, seconds):
    """End-to-end run: set-up probes, then the command in a closed loop."""
    probe(workload, "warm")                   # bytecode and file caches, untimed
    probes = [probe(workload, i) for i in range(SETUP_PROBES)]
    samples, outdirs, logs = [], [], []
    t0 = time.perf_counter()
    while True:
        i = len(samples)
        outdirs.append(workload.workdir / f"out{i}")
        logs.append(workload.workdir / f"cli{i}.log")
        samples.append(run_process(cli_argv(workload, outdirs[-1]), workload.workdir, logs[-1]))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(s["wall_s"] for s in samples)
        # at least MIN_PROCESSES, so one slow process cannot move the median; past
        # that, start another only if it should end nearer to --seconds than not
        if elapsed + typical > RUN_BUDGET_S or (
                len(samples) >= MIN_PROCESSES and elapsed + typical / 2 > seconds):
            break
    attempted, failed, notes = workload.check(outdirs, [s["code"] for s in samples], logs)
    med = lambda key: statistics.median(s[key] for s in samples)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    extra = {"failed_frac": failed / attempted, "processes": len(samples),
             "samples": samples, "setup_samples": [p["setup_s"] for p in probes]}
    return probes[0]["env"], attempted, failed, notes, metrics, extra


def bytes_written(outdir):
    return sum(p.stat().st_size for p in Path(outdir).rglob("*") if p.is_file())


def traced(workload):
    """Traced run: untraced, traced and untraced processes, the ladder, the self-tests."""
    import selftest

    env = probe(workload, "env")["env"]
    wd = workload.workdir
    outdirs = [wd / "out-plain0", wd / "out-traced", wd / "out-plain1"]
    logs = [wd / "cli-plain0.log", wd / "cli-traced.log", wd / "cli-plain1.log"]
    spans, layer_json = wd / "spans.tsv", wd / "layers.json"
    # untraced runs on both sides of the traced one, so drift cancels in the overhead
    plain = [run_process(cli_argv(workload, outdirs[0]), wd, logs[0])]
    tr = run_process([sys.executable, str(BENCH / "traced_cli.py"), str(spans), str(layer_json)]
                     + workload.cli_args(outdirs[1]), wd, logs[1])
    plain.append(run_process(cli_argv(workload, outdirs[2]), wd, logs[2]))
    ladder_log = wd / "ladder.log"
    lad = run_process([sys.executable, str(BENCH / "ladder.py")], wd, ladder_log)
    if lad["code"] != 0:
        raise RuntimeError(f"ladder failed:\n{ladder_log.read_text()}")

    codes = [plain[0]["code"], tr["code"], plain[1]["code"]]
    attempted, failed, notes = workload.check(outdirs, codes, logs)
    metrics = json.loads(layer_json.read_text()) if layer_json.is_file() else {}
    startup = metrics.pop("trace.main_epoch", tr["start_epoch"]) - tr["start_epoch"]
    plain_wall = statistics.mean(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = (tr["wall_s"] - plain_wall) / plain_wall
    metrics["trace.coverage"] = metrics.get("trace.self_sum_s", 0.0) / (tr["wall_s"] - startup)
    metrics["trace.wall_s"] = tr["wall_s"]
    metrics["cli.bytes_written"] = bytes_written(outdirs[1])
    metrics["run.failed_frac"] = failed / attempted
    metrics.update(json.loads(ladder_log.read_text().splitlines()[-1]))
    results = selftest.run_all()
    failed_tests = [problems for problems in results.values() if problems]
    notes += [p for problems in failed_tests for p in problems]
    metrics["selftest.failures"] = len(failed_tests)
    return (env, attempted + len(results), failed + len(failed_tests), notes, metrics,
            {"plain": plain, "traced": tr, "startup_s": startup})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (see run_process)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rtmodes" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not an rtmodes checkout (need src/rtmodes and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.make_inputs()
        run = traced(workload) if args.trace else measure(workload, args.seconds)
        env, attempted, failed, notes, values, extra = run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env["source"] = source_id()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "notes": notes, "extra": extra,
              "all_values": values}
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("check failed: " + note)
    print(f"{'failed_frac':<36} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def source_id():
    """Git commit when the checkout is a repository, and a hash of src/ always."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


if __name__ == "__main__":
    sys.exit(main())
