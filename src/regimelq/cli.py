"""Command-line front end: solve, iterate, simulate, verify, report.

Problem files are YAML; the schema is documented in
:mod:`regimelq.problemfile`.

Exit codes: 0 success, 1 problem-file/validation error, 2 solution not
regular (or the iteration certifies non-convexity, or the offset breaks
the range condition of a strongly regular solution), 3 integration
divergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import affine, riccati, sim, verify
from .problemfile import ProblemFileError, build_spec, parse_problem, write_problem

__all__ = ["main", "ProblemFileError", "parse_problem", "write_problem", "build_spec"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_REGULAR = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY_FAILED = 4


def _meta_line(args, extra: dict | None = None) -> str:
    """Single leading comment line; carries the timestamp, so comparisons
    of repeated runs must skip comment lines."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    parts = [
        f"generated={stamp}",
        f"seed={args.seed}",
        f"steps={args.steps or 'file'}",
        f"paths={args.paths}",
        f"threads={args.threads}",
        f"pinv_tol={args.pinv_tol}",
        f"strong_tol={args.strong_tol}",
        f"conv_tol={args.conv_tol}",
    ]
    for k, v in (extra or {}).items():
        parts.append(f"{k}={v}")
    return "# " + " ".join(parts) + "\n"


def _write_csv(path: Path, meta: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format(v, ".17g") if isinstance(v, float) else v for v in row]
            )


def _write_riccati_csv(out: Path, args, spec, sol) -> None:
    t_nodes = spec.grid.nodes()
    header = ["t", "regime"]
    header += [f"P_{a}_{b}" for a in range(spec.n) for b in range(spec.n)]
    header += ["min_eig_R_hat"]
    rows = []
    for k, t in enumerate(t_nodes):
        for i in range(spec.n_regimes):
            rows.append(
                [float(t), i + 1, *sol.P[k, i].ravel().tolist(),
                 float(sol.min_eig_R_hat[k, i])]
            )
    _write_csv(out / "riccati.csv", _meta_line(args), header, rows)


def _write_affine_csv(out: Path, args, spec, aff) -> None:
    t_nodes = spec.grid.nodes()
    header = ["t", "regime"]
    header += [f"eta_{a}" for a in range(spec.n)]
    header += [f"v_star_{a}" for a in range(spec.m)]
    rows = []
    for k, t in enumerate(t_nodes):
        for i in range(spec.n_regimes):
            rows.append(
                [float(t), i + 1, *aff.eta[k, i].tolist(),
                 *aff.v_star[k, i].tolist()]
            )
    _write_csv(out / "affine.csv", _meta_line(args), header, rows)


def _load_and_solve(args):
    """Shared front half: parse, apply overrides, solve, write solve outputs.

    Returns (spec, ric, aff, exit_code); on a nonzero exit code the other
    entries may be None.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec, _ = parse_problem(args.problem)
    if args.steps:
        spec = spec.with_steps(args.steps)

    try:
        if args.command == "iterate":
            sol = riccati.iterate_strongly_regular(
                spec, max_iter=args.max_iter, conv_tol=args.conv_tol,
                pinv_tol=args.pinv_tol, strong_tol=args.strong_tol,
            )
        else:
            sol = riccati.solve_riccati_direct(
                spec, pinv_tol=args.pinv_tol, strong_tol=args.strong_tol,
            )
    except riccati.DivergenceError as exc:
        return _solve_failed(out, spec, None, "divergent", exc, EXIT_DIVERGENCE)
    except (riccati.NotStronglyRegularError, riccati.NonConvergenceError) as exc:
        return _solve_failed(out, spec, None, "not_regular", exc, EXIT_NOT_REGULAR)

    _write_riccati_csv(out, args, spec, sol)
    (out / "classification.txt").write_text(str(sol.classification) + "\n")
    if not sol.classification.is_regular:
        print(f"classification: {sol.classification}", file=sys.stderr)
        return spec, sol, None, EXIT_NOT_REGULAR

    try:
        aff = affine.solve_eta(spec, sol)
    except riccati.DivergenceError as exc:
        return _solve_failed(out, spec, sol, "divergent", exc, EXIT_DIVERGENCE)
    except affine.RangeConditionError as exc:
        return _solve_failed(out, spec, sol, "not_regular", exc, EXIT_NOT_REGULAR)
    _write_affine_csv(out, args, spec, aff)
    return spec, sol, aff, EXIT_OK


def _solve_failed(out: Path, spec, sol, verdict: str, exc, code: int):
    """Record a failed backward solve in classification.txt and stderr."""
    (out / "classification.txt").write_text(f"{verdict}: {exc}\n")
    print(f"error: {exc}", file=sys.stderr)
    return spec, sol, None, code


def _cmd_solve(args) -> int:
    _, sol, _, code = _load_and_solve(args)
    if code == EXIT_OK:
        print(f"classification: {sol.classification}")
        if args.command == "iterate":
            print(f"iterations: {len(sol.iteration_trace)}")
    return code


def _cmd_simulate(args) -> int:
    spec, sol, aff, code = _load_and_solve(args)
    if code != EXIT_OK:
        return code
    out = Path(args.out)
    x0 = np.asarray(args.x0 or [0.0] * spec.n, dtype=float)
    i0 = args.i0 - 1
    est = sim.mc_value(
        spec, sol, aff, spec.grid.t0, i0, x0, args.paths, args.seed,
        threads=args.threads,
    )
    _write_csv(
        out / "value_mc.csv", _meta_line(args),
        ["mean", "std_error", "paths", "seed"],
        [[est.mean, est.std_error, est.paths, est.seed]],
    )
    print(f"mc value: {est.mean:.8g} +- {est.std_error:.3g} ({est.paths} paths)")
    if args.dump_paths:
        for p in range(args.dump_paths):
            rng = np.random.default_rng([args.seed, 424242, p])
            chain, path = sim.simulate_closed_loop(spec, sol, aff, i0, x0, rng)
            rows = []
            for k, t in enumerate(spec.grid.nodes()):
                rows.append(
                    [float(t), int(chain.alpha[k]) + 1,
                     *path.X[k].tolist(), *path.u[k].tolist()]
                )
            header = ["t", "regime"]
            header += [f"x_{a}" for a in range(spec.n)]
            header += [f"u_{a}" for a in range(spec.m)]
            _write_csv(out / f"path_{p:04d}.csv", _meta_line(args), header, rows)
    return EXIT_OK


def _write_report(out: Path, args, report) -> None:
    with open(out / "verification.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(_meta_line(args, {"paths_main": args.paths}))
        fh.write(report.to_csv())
    (out / "summary.txt").write_text(report.summary())
    print(report.summary(), end="")


def _cmd_verify(args) -> int:
    spec, sol, aff, code = _load_and_solve(args)
    out = Path(args.out)
    probe_paths, threads = max(args.paths // 5, 200), args.threads
    if code != EXIT_OK:
        if spec is not None and code == EXIT_NOT_REGULAR:
            # no solution to certify, but the convexity probe still
            # documents why (a flagged probe explains a failed iteration)
            _write_report(out, args, verify.convexity_probe(
                spec, spec.grid.t0, args.i0 - 1, args.controls, probe_paths,
                args.seed, threads=threads,
            ))
        return code
    x0 = np.asarray(args.x0 or [1.0] * spec.n, dtype=float)
    i0 = args.i0 - 1
    t0 = spec.grid.t0
    report = verify.VerificationReport()

    rng = np.random.default_rng([args.seed, 1])
    chain, path = sim.simulate_closed_loop(spec, sol, aff, i0, x0, rng)
    res = verify.stationarity_residual(spec, sol, aff, chain, path)
    res_norm = float(np.linalg.norm(res, axis=1).max())
    report.add(
        "stationarity_max_residual", res_norm, 1e-6 + 10.0 * spec.grid.h,
        seed=args.seed,
    )

    report.extend(verify.value_consistency(
        spec, sol, aff, t0, i0, x0, args.paths, args.seed, threads=threads
    ))
    report.extend(
        verify.m0_crosscheck(spec, t0, i0, args.paths, args.seed, threads=threads)
    )
    report.extend(verify.convexity_probe(
        spec, t0, i0, args.controls, probe_paths, args.seed, threads=threads
    ))
    _, u_path = sim.simulate_closed_loop(
        spec, sol, aff, i0, x0, np.random.default_rng([args.seed, 2])
    )
    v_dir = np.random.default_rng([args.seed, 3]).normal(
        size=(spec.grid.steps + 1, spec.m)
    )
    report.extend(verify.frechet_gradient_check(
        spec, t0, i0, x0, u_path.u, v_dir, (0.05, 0.1), probe_paths, args.seed,
        threads=threads,
    ))
    _write_report(out, args, report)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_report(args) -> int:
    out = Path(args.out)
    src = out / "verification.csv"
    if not src.exists():
        print(f"error: {src} not found; run verify first", file=sys.stderr)
        return EXIT_PARSE
    body = [
        line for line in src.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    reader = csv.DictReader(io.StringIO("\n".join(body)))
    report = verify.VerificationReport()
    for row in reader:
        report.add(row["check"], float(row["statistic"]), float(row["tolerance"]))
    (out / "summary.txt").write_text(report.summary())
    print(report.summary(), end="")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimelq",
        description="Regime-switching LQ control: solve, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", _cmd_solve),
        ("iterate", _cmd_solve),
        ("simulate", _cmd_simulate),
        ("verify", _cmd_verify),
        ("report", _cmd_report),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        if name != "report":
            p.add_argument("--problem", required=True, help="YAML problem file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--steps", type=int, default=0,
                       help="override grid steps (0 = use problem file)")
        p.add_argument("--paths", type=int, default=10000)
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--pinv-tol", type=float, default=riccati.DEFAULT_PINV_TOL)
        p.add_argument("--strong-tol", type=float, default=riccati.DEFAULT_STRONG_TOL)
        p.add_argument("--conv-tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=50)
        p.add_argument("--i0", type=int, default=1, help="initial regime (1-based)")
        p.add_argument("--x0", type=float, nargs="+", default=None)
        p.add_argument("--controls", type=int, default=20,
                       help="random controls for the convexity probe")
        p.add_argument("--dump-paths", type=int, default=0,
                       help="write this many closed-loop path CSVs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"problem file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except riccati.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
