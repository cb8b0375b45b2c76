"""regimelq benchmark: the CLI's solve / simulate / verify ops end to end.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client; ``--seed`` drives every op's
``--seed`` and the generated wide problem, see ``wide.py``):

- ``solve``: ``solve`` and ``iterate`` on problems/scalar.yaml,
  standard.yaml, two_regime.yaml and the wide problem.  Only riccati,
  affine, matcore and cli work; sim does none.
- ``simulate-wide``: ``simulate --threads 1 --paths 8192 --x0 1 ... 1``
  on the wide problem (n=8, m=3, D=4, N=500): two 4096-path batches.
- ``verify``: ``verify --threads 1 --paths 500`` on standard.yaml (n=2,
  D=2): many small CRN batches, bound by per-step overhead.

With ``--trace 0`` the ops run untraced and the last line of standard
output is a JSON object whose metrics are the end-to-end ones:

- ``op_s``: sum over the workload's ops of the mean op time over the
  run, that is solve_s + iterate_s on solve, simulate_s on
  simulate-wide and verify_s on verify (printed separately above the
  JSON line);
- ``setup_s``: fresh interpreter to ``import regimelq`` plus
  ``cli.parse_problem`` of the workload's problem files, median of
  several launches;
- ``peak_rss_mb``: ``ru_maxrss`` of the workload's own child process.

Every op time, the rates and times derived from it, and ``setup_s`` are
in seconds of a host at nominal speed: the wall time over the host's
slowness, which ``probe.py`` samples evenly in time while the ops run.
A shared host's speed drifts by up to 1.5x over seconds to minutes; the
slowness takes most of that out.  The set-up launches run just after
the ops and are scaled by the same slowness.  The report lines give the
wall times and the slowness as well.

The report lines above it also give ``path_steps_per_s``,
``value_time_to_se_s`` (MC time to a standard error of
``SE_TARGET``), ``failed_ops_ratio`` with both counts, the highest
percentile with ten samples beyond it per op, and the sha256 of each
CSV body.  With ``--trace 1`` the ops run alternately untraced and
traced (``spans.py``); the JSON line holds the per-layer metrics that
every workload exercises, and the report lines give every per-layer
metric, null where the function is absent, and the tracing overhead.

``--tiny`` cuts path counts for the self-test (``selftest.py``).
The run exits 2 without a result if the repository's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "simulate-wide", "verify")
SETUP_LAUNCHES = 15
# a run must end within 180 s: child plus 16 set-up launches stay below it
CHILD_TIMEOUT_S = 140
SETUP_TIMEOUT_S = 5

# Unit of every metric the report prints.
UNITS = {
    "op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_ops_ratio": "1",
    "host_slowness": "1",
    "solve_s": "s", "iterate_s": "s", "simulate_s": "s", "verify_s": "s",
    "path_steps_per_s": "1/s", "value_se": "1", "value_time_to_se_s": "s",
    "cli.parse_s": "s", "cli.self_s": "s",
    "riccati.direct_s": "s", "riccati.rk4_steps_per_s": "1/s",
    "riccati.iterate_s": "s", "riccati.iterations": "count",
    "riccati.lyapunov_calls": "count", "riccati.lyapunov_s": "s",
    "matcore.pinv_calls": "count", "matcore.pinv_us": "us", "matcore.pinv_share": "1",
    "affine.eta_s": "s",
    "sim.mc_value_s": "s", "sim.chain_s": "s", "sim.euler_s": "s", "sim.cost_s": "s",
    "sim.fk_self_s": "s", "sim.path_steps": "count", "sim.ns_per_path_step": "ns",
    "sim.batches": "count", "sim.value_se": "1", "sim.thread_speedup": "1",
    "verify.value_consistency_s": "s", "verify.convexity_probe_s": "s",
    "verify.m0_crosscheck_s": "s", "verify.frechet_s": "s", "verify.stationarity_s": "s",
    "verify.checks": "count", "verify.checks_failed": "count",
}
# The metrics of the final JSON line, as BENCHMARK.json lists them: with
# --trace 0 the end-to-end ones, with --trace 1 the per-layer ones that
# every workload exercises.
E2E = ("op_s", "setup_s", "peak_rss_mb")
LAYERS = ("cli.parse_s", "cli.self_s", "riccati.direct_s", "riccati.rk4_steps_per_s",
          "matcore.pinv_calls", "matcore.pinv_us", "matcore.pinv_share", "affine.eta_s")

SETUP_CODE = """
import sys
import regimelq
from regimelq import cli
for path in sys.argv[1:]:
    cli.parse_problem(path)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(cmd: list[str], timeout: float) -> int:
    """Run a child to completion; its standard output goes to our standard
    error.  A timer kills it after ``timeout`` seconds.  The wait blocks
    instead of polling, so the set-up launches are timed without the
    polling interval."""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                          stdout=sys.stderr, stderr=sys.stderr) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            timer.join()
    if code < 0:
        raise RuntimeError(f"{Path(cmd[1]).name} killed (signal {-code})")
    return code


def setup_time(files: list[str], slowness: float) -> tuple[float, list[float]]:
    """Median wall time of fresh interpreters importing and parsing, over
    the host's slowness; and the wall times.

    The slowness is the one the workload process measured over its run,
    just before: a probe in this process, on whichever CPU the launch
    leaves free, widened the spread of set-up times instead."""
    cmd = [sys.executable, "-c", SETUP_CODE, *files]
    run_child(cmd, SETUP_TIMEOUT_S)  # untimed: leaves the bytecode cache warm
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        code = run_child(cmd, SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up launch exited with {code}")
    return statistics.median(samples) / slowness, samples


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def report(workload: str, args, child: dict, setup: tuple | None) -> dict:
    """Print the human-readable report; return the final JSON metrics."""
    env = child["env"]
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"env nproc={env['nproc']} affinity={env['affinity']} "
          f"python={env['python']} ({env['python_build']}) numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"threads_env={env['blas_threads_env']}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"ops attempted={attempted} failed={failed} "
          f"failed_ops_ratio={failed / attempted:.6g} 1")
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    for name, hashes in sorted(child["csv_sha256"].items()):
        print(f"sha256 {name} {' '.join(hashes)}")
    if args.trace:
        tr = child["trace"]
        print(f"trace patched_bindings={tr['patched_bindings']} passes={tr['passes']} "
              f"missing={tr['missing_functions'] or 'none'}")
        for name, value in tr["layers"].items():
            note = tr["notes"].get(name)
            print(f"layer {name} = {fmt(value)} {UNITS[name]}"
                  + (f"  ({note})" if note else ""))
        print(f"trace_overhead_s = {tr['trace_overhead_s']:.6g} s "
              f"({100 * tr['trace_overhead_share']:.3g}% of the untraced ops)")
        return {name: tr["layers"][name] for name in LAYERS}
    for key, op in child["ops"].items():
        high = op["high"]
        tail = ("none with ten samples beyond it" if high["percentile"] is None
                else f"p{high['percentile']:.3g} = {high['value']:.6g} s")
        print(f"op {key} wall mean {op['wall_mean_s']:.6g} s, "
              f"median {op['wall_median_s']:.6g} s, {tail}, n={high['samples']}")
    metrics = dict(child["metrics"])
    metrics["setup_s"] = setup[0]
    metrics["failed_ops_ratio"] = failed / attempted
    for name, value in metrics.items():
        print(f"metric {name} = {fmt(value)} {UNITS[name]}")
    print(f"setup_s wall samples {' '.join(f'{s:.4f}' for s in setup[1])} s")
    return {name: metrics[name] for name in E2E}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small path counts, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    needed = [ROOT / "src" / "regimelq" / "cli.py"]
    needed += [ROOT / "problems" / f"{p}.yaml" for p in ("scalar", "standard", "two_regime")]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a regimelq checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result_file = tmp / "result.json"
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", str(tmp), "--result", str(result_file)]
        if args.tiny:
            cmd.append("--tiny")
        code = run_child(cmd, CHILD_TIMEOUT_S)
        if code != 0 or not result_file.is_file():
            print(f"error: workload process exited with {code}", file=sys.stderr)
            return 3
        child = json.loads(result_file.read_text(encoding="utf-8"))
        setup = None if args.trace else setup_time(child["problem_files"],
                                                   child["metrics"]["host_slowness"])
        metrics = report(args.workload, args, child, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    # a per-layer metric whose function is gone stays null, as in the report
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
