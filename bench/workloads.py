"""Run one benchmark workload in this process; write its result as JSON.

``run.py`` starts this script in a child process per workload, so that
peak RSS and numpy/LAPACK lazy set-up belong to the workload.  An op is
one ``regimelq.cli.main([...])`` call with explicit ``--seed``,
``--threads`` and ``--out``; every op's output is checked, and an op that
exits with an unexpected code, raises, or fails its check counts as
failed.  All workloads are closed loop with one client.

Usage: python3 bench/workloads.py --workload W --seed S --seconds T
       --trace 0|1 --tmp DIR --result FILE [--tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import probe
import spans
import regimelq
import wide
from regimelq import cli, solve_eta, solve_riccati_direct, value_function
from regimelq.verify import euler_bias_budget

ROOT = Path(__file__).resolve().parent.parent

# One thread, a literal, so that every machine runs the same op.  On a
# 2-CPU host shared with other tenants, a second MC thread made the timed
# op depend on the load of both CPUs: simulate_s spread by 20% from run to
# run even after scaling by the speed probe.  With one, the op runs in the
# main thread, where the probe samples the very CPU it runs on.  The
# traced run times the same op once at SPEEDUP_THREADS for
# sim.thread_speedup.
THREADS = 1
SPEEDUP_THREADS = 2
# Two 4096-path batches, so that SPEEDUP_THREADS threads each have one.
SIM_PATHS = 8192
# verify at paths/5 < 200 clamps its CRN replays to 200 paths; 500 keeps
# every check's batches small, so the op stays bound by per-step overhead.
VERIFY_PATHS = 500
TINY_PATHS = {"simulate-wide": 512, "verify": 200}
# Standard error the MC figure of merit is normalised to (cost units).
SE_TARGET = 0.05
ROUTE_TOL = 1e-8
BUNDLED = ("scalar", "standard", "two_regime")


@dataclass
class Op:
    kind: str
    problem: str
    argv: list[str]
    out: Path


class Checker:
    """Output check of every op; returns None or a failure message."""

    def __init__(self):
        self.latest_p: dict[tuple[str, str], np.ndarray] = {}
        self.hashes: dict[str, set[str]] = {}
        self.verify_checks = 0
        self.verify_failed = 0
        self.last_se: float | None = None

    def __call__(self, op: Op, code: int) -> str | None:
        self._hash_outputs(op)
        if code != 0:
            return f"exit code {code}, expected 0"
        check = {"solve": self._check_riccati, "iterate": self._check_riccati,
                 "simulate": self._check_simulate, "verify": self._check_verify}
        return check[op.kind](op)

    def _hash_outputs(self, op: Op) -> None:
        for path in sorted(op.out.glob("*.csv")):
            body = "".join(
                line for line in path.read_text(encoding="utf-8").splitlines(True)
                if not line.startswith("#")
            )
            key = f"{op.kind}/{op.problem}/{path.name}"
            self.hashes.setdefault(key, set()).add(
                hashlib.sha256(body.encode()).hexdigest())

    def _check_riccati(self, op: Op) -> str | None:
        cls = (op.out / "classification.txt").read_text(encoding="utf-8")
        if not cls.startswith("strongly_regular"):
            return f"classification {cls.strip()!r}"
        table = _read_csv(op.out / "riccati.csv")
        p = table[:, 2:-1]
        if op.problem == "scalar":
            t = table[:, 0]
            exact = 1.0 / (1.0 + t[-1] - t)
            gap = float(np.abs(p[:, 0] - exact).max())
            if gap > ROUTE_TOL:
                return f"scalar P off the closed form by {gap:.3e} > {ROUTE_TOL}"
        other = self.latest_p.get((op.problem, "iterate" if op.kind == "solve" else "solve"))
        self.latest_p[(op.problem, op.kind)] = p
        if other is not None:
            gap = float(np.abs(p - other).max()) if other.shape == p.shape else np.inf
            if gap > ROUTE_TOL:
                return f"solve and iterate differ by {gap:.3e} > {ROUTE_TOL}"
        return None

    def _check_simulate(self, op: Op) -> str | None:
        row = _read_csv(op.out / "value_mc.csv")[0]
        mean, se, paths = float(row[0]), float(row[1]), int(row[2])
        if paths != int(_flag(op.argv, "--paths")):
            return f"value_mc.csv reports {paths} paths"
        x0 = tuple(float(v) for v in op.argv[op.argv.index("--x0") + 1:])
        value, budget = value_and_budget(_flag(op.argv, "--problem"), x0)
        gap = abs(mean - value)
        tol = 3.0 * se + budget
        if not gap <= tol:
            return f"MC mean {mean:.6g} off V(x0) = {value:.6g} by {gap:.3g} > {tol:.3g}"
        self.last_se = se
        return None

    def _check_verify(self, op: Op) -> str | None:
        with open(op.out / "verification.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        failed = [r["check"] for r in rows if r["pass"] != "true"]
        self.verify_checks, self.verify_failed = len(rows), len(failed)
        if not rows or failed:
            return f"verification checks failed: {failed or 'no rows'}"
        return None


@functools.cache
def value_and_budget(problem: str, x0: tuple[float, ...]) -> tuple[float, float]:
    """V(t0, x0, regime 1) and its Euler bias budget, solved in-process."""
    spec, _ = cli.parse_problem(problem)
    ric = solve_riccati_direct(spec)
    value = value_function(ric, solve_eta(spec, ric), spec.grid.t0, 0, np.array(x0))
    return value, euler_bias_budget(spec.grid.h, value)


def _read_csv(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], ndmin=2)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def make_ops(workload: str, seed: int, files: dict[str, Path], tmp: Path,
             tiny: bool) -> list[Op]:
    common = ["--seed", str(seed), "--threads", str(THREADS)]

    def op(kind, problem, *extra):
        out = tmp / "out" / f"{kind}-{problem}"
        argv = [kind, "--problem", str(files[problem]), *common, *extra]
        return Op(kind, problem, argv, out)

    if workload == "solve":
        return [op(kind, p) for p in files for kind in ("solve", "iterate")]
    if workload == "simulate-wide":
        x0 = ["1"] * wide.N_STATE
        paths = TINY_PATHS[workload] if tiny else SIM_PATHS
        return [op("simulate", "wide", "--paths", str(paths), "--x0", *x0)]
    if workload == "verify":
        paths = TINY_PATHS[workload] if tiny else VERIFY_PATHS
        return [op("verify", "standard", "--paths", str(paths))]
    raise ValueError(f"unknown workload {workload!r}")


def problem_files(workload: str, seed: int, tmp: Path) -> dict[str, Path]:
    """The workload's problem files; the wide one is generated for the seed."""
    bundled = {p: ROOT / "problems" / f"{p}.yaml" for p in BUNDLED}
    if workload == "verify":
        return {"standard": bundled["standard"]}
    path = tmp / "wide.yaml"
    wide.write_wide(path, seed)
    if workload == "simulate-wide":
        return {"wide": path}
    return {**bundled, "wide": path}


class Runner:
    """Runs and checks ops; counts attempted and failed ones."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op, threads: int | None = None) -> float:
        argv = list(op.argv) + ["--out", str(op.out)]
        if threads is not None:
            argv[argv.index("--threads") + 1] = str(threads)
        self.attempted += 1
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except (Exception, SystemExit):  # an op failure is counted, not fatal
            code, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = self.checker(op, code)
            except Exception:  # unreadable output counts as a failed check
                error = traceback.format_exc(limit=3)
        if error is not None:
            self.failures.append(f"{op.kind} {op.problem}: {error}")
        return elapsed


def high_percentile(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return {"percentile": None, "value": None, "samples": n}
    s = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "value": s[n - 11], "samples": n}


def timed(runner: Runner, ops: list[Op], seconds: float) -> tuple[dict, float]:
    """Round-robin over the ops while the next op, at its mean time so far,
    still ends within ``seconds``; every op gets at least one sample.
    Returns the wall-time samples and the host's slowness meanwhile."""
    samples = {id(op): [] for op in ops}
    start = time.perf_counter()
    with probe.SpeedProbe() as speed:
        for op in itertools.cycle(ops):
            mine = samples[id(op)]
            expected = statistics.fmean(mine) if mine else 0.0
            if mine and time.perf_counter() - start + expected > seconds:
                break
            mine.append(runner.run(op))
    return samples, speed.slowness()


def end_to_end(workload, ops, samples, slowness, runner) -> tuple[dict, dict]:
    """End-to-end metrics; every time is the wall time over the host's
    slowness during the run (``probe.py``), in seconds of a nominal host."""
    # Means, not medians: an op has only a few samples in a run, and the
    # noise of a shared host is a slowly drifting speed, not rare outliers,
    # so the mean over the whole run is the steadier figure.
    mean = {(op.kind, op.problem): statistics.fmean(samples[id(op)]) / slowness
            for op in ops}
    by_kind = {}
    for (kind, _), value in mean.items():
        by_kind[f"{kind}_s"] = by_kind.get(f"{kind}_s", 0.0) + value
    metrics = {"op_s": sum(mean.values()), **by_kind}
    if workload == "simulate-wide":
        paths = int(_flag(ops[0].argv, "--paths"))
        se = runner.checker.last_se
        metrics["path_steps_per_s"] = paths * wide.STEPS / metrics["simulate_s"]
        metrics["value_se"] = se
        metrics["value_time_to_se_s"] = (
            None if se is None else metrics["simulate_s"] * (se / SE_TARGET) ** 2)
    metrics["host_slowness"] = slowness
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        f"{op.kind}/{op.problem}": {
            "wall_mean_s": statistics.fmean(samples[id(op)]),
            "wall_median_s": statistics.median(samples[id(op)]),
            "samples_s": samples[id(op)],
            "high": high_percentile(samples[id(op)]),
        }
        for op in ops
    }
    return metrics, info


def traced(runner: Runner, ops: list[Op], seconds: float) -> dict:
    """Passes over the ops, each op run once untraced and once traced,
    while another pass fits in ``seconds``; then, where the ops run MC,
    one traced op at SPEEDUP_THREADS for the thread speed-up."""
    tracer = spans.Tracer()
    patched = tracer.install()
    tracer.uninstall()

    def run_traced(op, threads=None):
        tracer.install()
        try:
            return runner.run(op, threads)
        finally:
            tracer.uninstall()

    has_verify = any(op.kind == "verify" for op in ops)
    plain = {id(op): [] for op in ops}
    traced_s = {id(op): [] for op in ops}
    passes = []
    start = time.perf_counter()
    pass_s = 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        t = time.perf_counter()
        for i, op in enumerate(ops):
            # the traced run goes first every other time, so order effects cancel
            for trace_on in (False, True) if (len(passes) + i) % 2 == 0 else (True, False):
                if trace_on:
                    traced_s[id(op)].append(run_traced(op))
                else:
                    plain[id(op)].append(runner.run(op))
        pass_s = time.perf_counter() - t
        recorded = tracer.take()
        layers = spans.layer_metrics(recorded, tracer.missing)
        layers["verify.checks"] = runner.checker.verify_checks if has_verify else None
        layers["verify.checks_failed"] = runner.checker.verify_failed if has_verify else None
        passes.append(layers)
    layers = spans.median_metrics(passes)
    mc1 = sum(s.duration for s in recorded if s.name == "sim.mc_value")
    layers["sim.thread_speedup"] = None
    if mc1 > 0:
        run_traced(ops[0], threads=SPEEDUP_THREADS)
        mc2 = sum(s.duration for s in tracer.take() if s.name == "sim.mc_value")
        layers["sim.thread_speedup"] = mc1 / mc2
    why_null = (f"needs a function absent here: {', '.join(tracer.missing)}"
                if tracer.missing else "no such work on this workload")
    notes = {k: why_null for k, v in layers.items() if v is None}
    untraced = sum(statistics.median(v) for v in plain.values())
    overhead = sum(statistics.median(v) for v in traced_s.values()) - untraced
    return {
        "layers": layers,
        "notes": notes,
        "patched_bindings": patched,
        "missing_functions": tracer.missing,
        "passes": len(passes),
        "trace_overhead_s": overhead,
        "trace_overhead_share": overhead / untraced,
    }


def environment(seed: int) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "numpy": np.__version__,
        "blas": blas,
        "regimelq": str(Path(regimelq.__file__).resolve().parent.relative_to(ROOT)),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    files = problem_files(args.workload, args.seed, args.tmp)
    ops = make_ops(args.workload, args.seed, files, args.tmp, args.tiny)
    runner = Runner(Checker())
    for problem in files:  # one untimed warm-up op per problem
        runner.run(next(op for op in ops if op.problem == problem))

    result = {"env": environment(args.seed), "problem_files": [str(p) for p in files.values()]}
    if args.trace:
        result["trace"] = traced(runner, ops, args.seconds)
    else:
        samples, slowness = timed(runner, ops, args.seconds)
        result["metrics"], result["ops"] = end_to_end(args.workload, ops, samples,
                                                      slowness, runner)
    result["csv_sha256"] = {k: sorted(v) for k, v in runner.checker.hashes.items()}
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
