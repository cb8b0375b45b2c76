"""Command-line front end: solve, iterate, simulate, verify, report.

Problem files are YAML; the schema is documented in
:mod:`regimelq.problemfile`.  ``verify`` writes the report of
:func:`regimelq.verify.certify`, or of
:func:`regimelq.verify.not_regular_report` when there is no closed-loop
optimal law; the seed streams and tolerances of its rows live in
:mod:`regimelq.verify`.  ``--x0`` and ``--i0`` reach only its Monte-Carlo
row, ``value_mc_vs_function``; every other row reads every regime.

Exit codes: 0 success, 1 problem-file/validation error, a usage error
(an unknown flag, a missing ``--problem``, a value of the wrong type), a
run argument that does not fit the problem or the solver (a
``--dump-paths`` above ``--paths`` among them), an output directory that
cannot be made or written, a grid or a count too large to allocate
(``--steps`` or ``grid.steps`` of 10**17, or a ``--steps``,
``--controls`` or ``--dump-paths`` of 10**19; one ``error: out of
memory`` line), a flag given to a command it does not apply to, a flag
other than ``--out`` given to ``report``, or a ``verification.csv`` that
``report`` cannot read, 2 no closed-loop optimal law: the solution is not
regular, or its offset rho_hat leaves the range of the control weight
composite, or the iteration certifies non-convexity; also an iteration
that does not converge within ``--max-iter``, whose
``classification.txt`` reads ``not_converged`` since it certifies
nothing about the problem, 3 integration divergence, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import matcore, riccati, sim, verify
from .problemfile import ProblemFileError, build_spec, parse_problem, write_problem

__all__ = ["main", "ProblemFileError", "parse_problem", "write_problem", "build_spec"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_REGULAR = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY_FAILED = 4

# numpy refuses an array whose size its index type cannot hold with a
# ValueError, not a MemoryError, and one of these messages
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded",
            "Maximum allowed size exceeded")

# Flags that apply to some commands only: the commands and the default.
# Given to any other command, such a flag exits 1 instead of being
# ignored.  --seed and --threads apply to every command but report.
_VERB_FLAGS = {
    "--x0": (("simulate", "verify"), None),
    "--i0": (("simulate", "verify"), 1),
    "--paths": (("simulate", "verify"), 10000),
    "--dump-paths": (("simulate",), 0),
    "--controls": (("verify",), 20),
    "--max-iter": (("iterate",), 50),
    "--conv-tol": (("iterate",), 1e-10),
}


def _meta_line(args) -> str:
    """Single leading comment line: the flags every command takes, then
    those of ``_VERB_FLAGS`` that apply to this one, each with the value
    the command ran with.  It carries the timestamp, so comparisons of
    repeated runs must skip comment lines."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    parts = [
        f"generated={stamp}",
        f"seed={args.seed}",
        f"steps={args.steps or 'file'}",
        f"threads={args.threads}",
        f"pinv_tol={args.pinv_tol}",
        f"strong_tol={args.strong_tol}",
    ]
    for flag, (verbs, _) in _VERB_FLAGS.items():
        if args.command in verbs:
            dest = flag[2:].replace("-", "_")
            val = getattr(args, dest)
            if isinstance(val, list):
                val = ",".join(map(str, val))
            parts.append(f"{dest}={val}")
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


def _write_node_csv(path: Path, meta: str, header: list[str], t_nodes, values, index=None) -> None:
    """Rows ``t, regime, *values[k, i][index]`` for every node k and
    regime i; ``index`` maps each value column to its entry of
    ``values[k, i]``, and None is the identity.

    Each node's distinct numbers, ``t`` and ``values[k]``, are formatted
    once, in one ``%.17g`` format; the node template then takes each
    column's text by the index, so an entry that fills several columns
    is formatted once.  ``%.17g`` and ``%d`` give the same text as
    :func:`_write_csv` at a fraction of the cost on long grids.  The
    table turns into Python floats one node at a time, so only one
    node's floats are held.
    """
    n_reg, width = values.shape[1:]
    cols = range(width) if index is None else index
    numbers = ",".join(["%.17g"] * (1 + n_reg * width))
    take = operator.itemgetter(*(
        k for i in range(n_reg) for k in (0, *(1 + i * width + c for c in cols))))
    template = "".join(
        "%%s,%d%s\n" % (i, ",%s" * len(cols)) for i in range(1, n_reg + 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta)
        fh.write(",".join(header) + "\n")
        for t, per_node in zip(t_nodes.tolist(), values.reshape(len(values), -1)):
            fh.write(template % take((numbers % (t, *per_node.tolist())).split(",")))


def _write_riccati_csv(out: Path, args, spec, sol) -> None:
    """``riccati.csv``: P is symmetric bit for bit, so only its upper
    triangle is formatted, and P_a_b and P_b_a read the same entry."""
    header = ["t", "regime"]
    header += [f"P_{a}_{b}" for a in range(spec.n) for b in range(spec.n)]
    header += ["min_eig_R_hat"]
    rows, cols = np.triu_indices(spec.n)
    upper = np.zeros((spec.n, spec.n), dtype=int)
    upper[rows, cols] = np.arange(len(rows))  # the entry of P_a_b, a <= b
    mirror = np.maximum(upper, upper.T).ravel().tolist() + [len(rows)]
    values = np.concatenate((sol.P[..., rows, cols], sol.min_eig_R_hat[..., None]), axis=-1)
    _write_node_csv(
        out / "riccati.csv", _meta_line(args), header, spec.grid.nodes(), values, mirror)


def _write_affine_csv(out: Path, args, spec, sol) -> None:
    """``affine.csv``: the offset eta and the minimum-norm control offset
    v*, the last columns of ``sol.P_bar``'s P block row and of
    ``sol.Theta_bar``."""
    header = ["t", "regime"]
    header += [f"eta_{a}" for a in range(spec.n)]
    header += [f"v_star_{a}" for a in range(spec.m)]
    values = np.concatenate((sol.P_bar[..., :-1, -1], sol.Theta_bar[..., -1]), axis=-1)
    _write_node_csv(out / "affine.csv", _meta_line(args), header, spec.grid.nodes(), values)


def _load_and_solve(args):
    """Shared front half: parse, apply overrides, solve, write solve outputs.

    Returns (spec, ric, exit_code); on a nonzero exit code ``ric`` may be
    None.
    """
    out = Path(args.out)
    spec, _ = parse_problem(args.problem)
    bad = _run_args_error(args, spec)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return spec, None, EXIT_PARSE
    if args.x0 is None and args.command in ("simulate", "verify"):
        args.x0 = [1.0] * spec.n  # the default start: every coordinate 1
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
        return _solve_failed(out, spec, "divergent", exc, EXIT_DIVERGENCE)
    except riccati.NotStronglyRegularError as exc:
        return _solve_failed(out, spec, "not_regular", exc, EXIT_NOT_REGULAR)
    except riccati.NonConvergenceError as exc:
        return _solve_failed(out, spec, "not_converged", exc, EXIT_NOT_REGULAR)

    _write_riccati_csv(out, args, spec, sol)
    (out / "classification.txt").write_text(str(sol.classification) + "\n")
    if not sol.classification.is_regular:
        print(f"classification: {sol.classification}", file=sys.stderr)
        return spec, sol, EXIT_NOT_REGULAR

    _write_affine_csv(out, args, spec, sol)
    return spec, sol, EXIT_OK


def _verb_flag_error(args) -> str | None:
    """Which flag of ``_VERB_FLAGS`` was given to a command it does not
    apply to, or None; every such flag not given gets its default."""
    for flag, (verbs, default) in _VERB_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.command not in verbs:
            return f"{flag} applies to {' and '.join(verbs)} only, not to {args.command}"
    return None


def _out_error(out: Path) -> str | None:
    """Why ``out`` cannot serve as the output directory, or None once it
    exists and can be written."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return f"--out {out} cannot be made a directory: {exc.strerror}"
    if not os.access(out, os.W_OK | os.X_OK):
        return f"--out {out} is not writable"
    return None


def _run_args_error(args, spec) -> str | None:
    """Why the run arguments do not fit the solver or, for simulate and
    verify, the problem; None if they all fit."""
    if args.steps < 0 or args.steps == 1:
        return f"--steps must be 0 (grid of the file) or at least 2, got {args.steps}"
    if not 0.0 < args.pinv_tol < 1.0:
        return f"--pinv-tol must lie in (0, 1), got {args.pinv_tol}"
    for flag, val in (("--strong-tol", args.strong_tol), ("--conv-tol", args.conv_tol)):
        if not 0.0 < val < np.inf:
            return f"{flag} must be positive and finite, got {val}"
    for flag, val in (("--max-iter", args.max_iter), ("--threads", args.threads)):
        if val < 1:
            return f"{flag} must be at least 1, got {val}"
    if args.seed < 0:
        return f"--seed must be non-negative, got {args.seed}"
    if args.command not in ("simulate", "verify"):
        return None
    if args.x0 is not None and len(args.x0) != spec.n:
        return f"--x0 has {len(args.x0)} entries, the problem has n = {spec.n}"
    if args.x0 is not None and not np.all(np.isfinite(args.x0)):
        return f"--x0 must be finite, got {' '.join(map(str, args.x0))}"
    if not 1 <= args.i0 <= spec.n_regimes:
        return f"--i0 {args.i0} is not a regime in 1..{spec.n_regimes}"
    if args.paths < 1:
        return f"--paths must be at least 1, got {args.paths}"
    if args.dump_paths < 0:
        return f"--dump-paths must be non-negative, got {args.dump_paths}"
    if args.dump_paths > args.paths:
        return f"--dump-paths {args.dump_paths} exceeds --paths {args.paths}"
    if args.command == "verify" and args.controls < 1:
        return f"--controls must be at least 1, got {args.controls}"
    return None


def _solve_failed(out: Path, spec, verdict: str, exc, code: int):
    """Record a failed backward solve in classification.txt and stderr."""
    (out / "classification.txt").write_text(f"{verdict}: {exc}\n")
    print(f"error: {exc}", file=sys.stderr)
    return spec, None, code


def _cmd_solve(args) -> int:
    _, sol, code = _load_and_solve(args)
    if code == EXIT_OK:
        print(f"classification: {sol.classification}")
        if args.command == "iterate":
            print(f"iterations: {len(sol.iteration_trace)}")
    return code


def _cmd_simulate(args) -> int:
    spec, sol, code = _load_and_solve(args)
    if code != EXIT_OK:
        return code
    out = Path(args.out)
    x0 = np.asarray(args.x0, dtype=float)
    i0 = args.i0 - 1
    est = sim.mc_value(spec, sol.Theta_bar, spec.grid.t0, i0, x0, args.paths, args.seed,
                       args.threads, args.dump_paths)
    _write_csv(
        out / "value_mc.csv", _meta_line(args),
        ["mean", "std_error", "paths", "seed"],
        [[est.mean, est.std_error, est.paths, est.seed]],
    )
    print(f"mc value: {est.mean:.8g} +- {est.std_error:.3g} ({est.paths} paths)")
    if args.dump_paths:
        _write_kept_paths(out, args, spec, est.kept)
    return EXIT_OK


def _write_kept_paths(out: Path, args, spec, kept) -> None:
    """``path_NNNN.csv`` for each path the estimate kept, paths 0..K − 1
    of ``value_mc.csv``, and ``path_costs.csv``, the cost of each."""
    header = ["t", "regime"]
    header += [f"x_{a}" for a in range(spec.n)]
    header += [f"u_{a}" for a in range(spec.m)]
    t_nodes = spec.grid.nodes().tolist()
    for p, (alpha, x, u) in enumerate(zip(kept.alpha.tolist(), kept.X.tolist(), kept.u.tolist())):
        rows = ([t, i + 1, *x_k, *u_k] for t, i, x_k, u_k in zip(t_nodes, alpha, x, u))
        _write_csv(out / f"path_{p:04d}.csv", _meta_line(args), header, rows)
    _write_csv(out / "path_costs.csv", _meta_line(args), ["path", "cost"],
               enumerate(kept.cost.tolist()))


def _write_report(out: Path, args, report) -> None:
    with open(out / "verification.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(_meta_line(args))
        fh.write(report.to_csv())
    (out / "summary.txt").write_text(report.summary())
    print(report.summary(), end="")


def _cmd_verify(args) -> int:
    spec, sol, code = _load_and_solve(args)
    out = Path(args.out)
    i0, t0 = args.i0 - 1, spec.grid.t0
    if code == EXIT_NOT_REGULAR:
        # no solution to certify, but the report still documents why
        _write_report(out, args, verify.not_regular_report(
            spec, sol, t0, args.controls, args.seed))
    if code != EXIT_OK:
        return code
    x0 = np.asarray(args.x0, dtype=float)
    report = verify.certify(
        spec, sol, t0, i0, x0, args.paths, args.seed, args.controls, args.threads)
    _write_report(out, args, report)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _read_report(src: Path) -> verify.VerificationReport:
    """The checks of a ``verification.csv``; a ValueError (bytes that are
    not UTF-8 raise one too) says why the file holds none to report."""
    body = [
        line for line in src.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    reader = csv.DictReader(io.StringIO("\n".join(body)), restval="")
    columns = reader.fieldnames or ()
    missing = [c for c in ("check", "statistic", "tolerance") if c not in columns]
    if missing:
        raise ValueError(f"no {', '.join(missing)} column")
    report = verify.VerificationReport()
    for row in reader:
        report.add(row["check"], float(row["statistic"]), float(row["tolerance"]))
    if not report.checks:
        raise ValueError("no checks")
    return report


def _cmd_report(args) -> int:
    out = Path(args.out)
    src = out / "verification.csv"
    if not src.exists():
        print(f"error: {src} not found; run verify first", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = _read_report(src)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"error: {src}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    (out / "summary.txt").write_text(report.summary())
    print(report.summary(), end="")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2,
    which is the exit code of no closed-loop optimal law."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p.add_argument("--out", default="out", help="output directory")
        if name == "report":
            continue
        p.add_argument("--problem", required=True, help="YAML problem file")
        p.add_argument("--steps", type=int, default=0,
                       help="override grid steps (0 = use problem file)")
        p.add_argument("--paths", type=int)
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--pinv-tol", type=float, default=matcore.DEFAULT_PINV_TOL)
        p.add_argument("--strong-tol", type=float, default=riccati.DEFAULT_STRONG_TOL)
        p.add_argument("--conv-tol", type=float)
        p.add_argument("--max-iter", type=int)
        p.add_argument("--i0", type=int, help="initial regime (1-based)")
        p.add_argument("--x0", type=float, nargs="+")
        p.add_argument("--controls", type=int,
                       help="random controls for the convexity probe")
        p.add_argument("--dump-paths", type=int,
                       help="write paths 0..K-1 of the Monte-Carlo estimate as CSVs, "
                            "with their costs")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and args.command == "report":
        print(f"error: report takes only --out, got {' '.join(extra)}", file=sys.stderr)
        return EXIT_PARSE
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    bad = args.command != "report" and (_verb_flag_error(args) or _out_error(Path(args.out)))
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"problem file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except riccati.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (MemoryError, ValueError) as exc:  # a grid or a count too large to hold
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
