"""Self-test of the benchmark: a tiny-size pass of every workload.

Checks that BENCHMARK.json lists each workload with its reason and the
same metrics and units as run.py, that every metric the benchmark
defines is printed with its unit, that every op passes its output check,
that a run leaves no files behind, and that a directory holding only the
benchmark makes run.py exit non-zero without a result.

Run from the repository root (takes about two minutes):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT

E2E_REPORT = {
    "solve": {"solve_s": "s", "iterate_s": "s"},
    "simulate-wide": {"simulate_s": "s", "path_steps_per_s": "1/s",
                      "value_time_to_se_s": "s"},
    "verify": {"verify_s": "s"},
}
E2E_ALL = {"setup_s": "s", "peak_rss_mb": "MB", "failed_ops_ratio": "1", "op_s": "s"}
LAYERS = {
    "cli.parse_s": "s", "cli.self_s": "s",
    "riccati.direct_s": "s", "riccati.rk4_steps_per_s": "1/s",
    "riccati.iterate_s": "s", "riccati.iterations": "count",
    "riccati.lyapunov_calls": "count", "riccati.lyapunov_s": "s",
    "matcore.pinv_calls": "count", "matcore.pinv_us": "us", "matcore.pinv_share": "1",
    "affine.eta_s": "s",
    "sim.chain_s": "s", "sim.euler_s": "s", "sim.cost_s": "s", "sim.fk_self_s": "s",
    "sim.path_steps": "count", "sim.ns_per_path_step": "ns", "sim.batches": "count",
    "sim.value_se": "1", "sim.thread_speedup": "1",
    "verify.value_consistency_s": "s", "verify.convexity_probe_s": "s",
    "verify.m0_crosscheck_s": "s", "verify.frechet_s": "s",
    "verify.stationarity_s": "s", "verify.checks": "count", "verify.checks_failed": "count",
}
# Layers a workload must exercise: a zero or null there is a defect.
BUSY = {
    "solve": ("riccati.iterate_s", "riccati.iterations", "riccati.lyapunov_calls"),
    "simulate-wide": ("sim.chain_s", "sim.euler_s", "sim.cost_s", "sim.path_steps",
                      "sim.batches", "sim.value_se", "sim.thread_speedup"),
    "verify": ("sim.fk_self_s", "verify.value_consistency_s", "verify.convexity_probe_s",
               "verify.m0_crosscheck_s", "verify.frechet_s", "verify.checks"),
}


def check(cond: bool, message: str, errors: list[str]) -> None:
    if not cond:
        errors.append(message)


def check_manifest(errors: list[str]) -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in doc["workloads"]]
    check(names == list(run.WORKLOADS), f"BENCHMARK.json workloads {names}", errors)
    for w in doc["workloads"]:
        check(bool(w.get("why", "").strip()), f"workload {w['name']} has no why", errors)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    check(e2e == {k: E2E_ALL[k] for k in run.E2E}, f"BENCHMARK.json end_to_end {e2e}", errors)
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    check(layers == {k: LAYERS[k] for k in run.LAYERS}, f"BENCHMARK.json per_layer {layers}",
          errors)
    check(doc["command"] == ["python3", "bench/run.py"], "command", errors)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def printed(stdout: str, prefix: str) -> dict[str, tuple[str, str]]:
    """name -> (value, unit) from the report lines ``prefix name = value unit``."""
    pattern = re.compile(rf"^{prefix} (\S+) = (\S+) (\S+)")
    return {m[1]: (m[2], m[3]) for m in map(pattern.match, stdout.splitlines()) if m}


def check_run(workload: str, trace: int, errors: list[str]) -> None:
    proc = run_bench(workload, trace)
    tag = f"{workload} trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys", errors)
    check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
          f"{tag}: correct={last['correct']} failed={last['failed']}", errors)
    want = {k: LAYERS[k] for k in run.LAYERS} if trace else {k: E2E_ALL[k] for k in run.E2E}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    check(got == want, f"{tag}: JSON metrics {got}", errors)
    for name, m in last["metrics"].items():
        check(isinstance(m["value"], (int, float)) and m["value"] > 0,
              f"{tag}: {name} = {m['value']}", errors)
    if trace:
        shown, expected = printed(proc.stdout, "layer"), LAYERS
        check("trace_overhead_s = " in proc.stdout, f"{tag}: no tracing overhead", errors)
        for name in BUSY[workload]:
            value = shown.get(name, ("null",))[0]
            check(value not in ("null", "0", "0.0"), f"{tag}: {name} = {value}", errors)
    else:
        shown, expected = printed(proc.stdout, "metric"), {**E2E_ALL, **E2E_REPORT[workload]}
    for name, unit in expected.items():
        check(name in shown and shown[name][1] == unit,
              f"{tag}: {name} printed as {shown.get(name)}, want unit {unit}", errors)


def check_bare_directory(errors: list[str]) -> None:
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("verify", 0, cwd=bare)
        check(proc.returncode != 0, "bare directory: exit 0", errors)
        check(proc.stdout.strip() == "", f"bare directory printed {proc.stdout!r}", errors)
    if not any(scratch.iterdir()):
        scratch.rmdir()


def main() -> int:
    errors: list[str] = []
    check_manifest(errors)
    check_bare_directory(errors)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, errors)
    for leftover in (ROOT / ".bench_tmp", ROOT / "out"):
        check(not leftover.exists(), f"run left {leftover.name}/ behind", errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
