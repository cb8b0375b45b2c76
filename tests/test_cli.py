"""Problem-file round trip, CLI exit codes, output files, reproducibility."""

import csv
import dataclasses
import os
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regimelq import affine, cli, problemfile, riccati
from regimelq.cli import ProblemFileError, main, parse_problem, write_problem
from regimelq.matcore import symmetrize
from regimelq.model import Generator, ProblemSpec, TimeGrid

from reference import PROBLEMS, bundled, evaluate_cost, state_blowup, wide_spec

FIELDS = ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "q", "rho", "G", "g")
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def test_round_trip_time_varying_field(tmp_path):
    spec = bundled("scalar", 8)
    a_var = spec.A.copy()
    a_var[:, 0, 0, 0] = np.linspace(0.0, 1.0, 9)
    spec = dataclasses.replace(spec, A=a_var)
    path = tmp_path / "varying.yaml"
    write_problem(path, spec)
    parsed, _ = parse_problem(path)
    assert np.array_equal(parsed.A, spec.A)


@st.composite
def _admissible_specs(draw):
    """Admissible specs with n, m, D <= 2 whose fields and generator are
    each constant or vary per node."""
    n, m, d = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    steps = draw(st.integers(2, 7))
    t0 = draw(st.floats(-10.0, 10.0))
    grid = TimeGrid(t0, t0 + draw(st.floats(0.01, 10.0)), steps)

    def field(*tail, elements=st.floats(-1e6, 1e6), per_node=True):
        if not per_node:
            return draw(hnp.arrays(np.float64, (d, *tail), elements=elements))
        samples = 1 if draw(st.booleans()) else steps + 1
        x = draw(hnp.arrays(np.float64, (samples, d, *tail), elements=elements))
        return np.broadcast_to(x, (steps + 1, d, *tail)).copy()

    rates = field(d, elements=st.floats(0.0, 5.0)) * (1.0 - np.eye(d))
    rates[..., range(d), range(d)] = -rates.sum(axis=-1)
    return ProblemSpec(
        n=n, m=m, grid=grid, gen=Generator(rates),
        A=field(n, n), B=field(n, m), C=field(n, n), D=field(n, m), b=field(n),
        sigma=field(n), Q=symmetrize(field(n, n)), S=field(m, n),
        R=symmetrize(field(m, m)), q=field(n), rho=field(m),
        G=symmetrize(field(n, n, per_node=False)), g=field(n, per_node=False),
    )


@given(_admissible_specs())
def test_round_trip_property_per_node_fields(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.yaml"
        write_problem(path, spec)
        parsed, _ = parse_problem(path)
    for name in FIELDS:
        assert np.array_equal(getattr(parsed, name), getattr(spec, name)), name
    assert np.array_equal(parsed.gen.rates, spec.gen.rates)
    assert parsed.grid == spec.grid


def test_parse_rejects_malformed_yaml(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: [unclosed\n")
    with pytest.raises(ProblemFileError):
        parse_problem(bad)


def test_parser_uses_libyaml_when_built():
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert problemfile._LOADER is want


def test_loaders_parse_identical_problems(tmp_path, monkeypatch):
    spec = bundled("two_regime", 12)
    ramp = np.linspace(0.0, 1.0, 13)
    q_mat = np.array([[-1.0, 1.0], [2.0, -2.0]])
    spec = dataclasses.replace(
        spec,
        A=spec.A + 0.3 * ramp[:, None, None, None],
        Q=spec.Q * (1.0 + ramp)[:, None, None, None],
        sigma=spec.sigma - 0.1 * ramp[:, None, None] ** 2,
        gen=Generator((1.0 + 0.5 * ramp)[:, None, None] * q_mat),
    )
    varying = tmp_path / "varying.yaml"
    write_problem(varying, spec)
    for path in [*sorted(PROBLEMS.glob("*.yaml")), varying]:
        parsed = []
        for loader in LOADERS:
            monkeypatch.setattr(problemfile, "_LOADER", loader)
            parsed.append(parse_problem(path))
        (ref, ref_doc), (got, doc) = parsed[0], parsed[-1]
        assert doc == ref_doc, path.name
        for name in FIELDS:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert np.array_equal(got.gen.rates, ref.gen.rates)
        assert got.grid == ref.grid
    assert np.array_equal(got.A, spec.A) and np.array_equal(got.gen.rates, spec.gen.rates)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_malformed_yaml_exits_1_with_either_loader(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(problemfile, "_LOADER", loader)
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: [unclosed\n")
    with pytest.raises(ProblemFileError, match="YAML error"):
        parse_problem(bad)
    assert main(_args("solve", bad, tmp_path / "out")) == 1


def test_parse_rejects_missing_field(tmp_path):
    path = tmp_path / "missing.yaml"
    text = (PROBLEMS / "scalar.yaml").read_text().replace("  R:\n  - [1.0]\n", "")
    assert "R:" not in text
    path.write_text(text)
    with pytest.raises(ProblemFileError, match="missing field R"):
        parse_problem(path)


def test_parse_symmetrizes_weights(tmp_path):
    doc = yaml.safe_load((PROBLEMS / "standard.yaml").read_text())
    doc["regimes"][0]["Q"] = [[1.0, 0.4], [0.0, 0.5]]
    doc["regimes"][1]["G"] = [[2.0, 0.0], [0.6, 1.0]]
    path = tmp_path / "asymmetric.yaml"
    path.write_text(yaml.safe_dump(doc))
    spec, _ = parse_problem(path)
    assert np.all(spec.Q[:, 0] == [[1.0, 0.2], [0.2, 0.5]])
    assert np.array_equal(spec.G[1], [[2.0, 0.3], [0.3, 1.0]])


def test_parse_rejects_bad_generator(tmp_path):
    path = tmp_path / "gen.yaml"
    text = (PROBLEMS / "two_regime.yaml").read_text().replace("[-1.0, 1.0]", "[-1.0, 1.1]")
    path.write_text(text)
    with pytest.raises(ProblemFileError, match="row sum"):
        parse_problem(path)


def _args(cmd, problem, out, **kw):
    argv = [cmd, "--out", str(out)]
    if problem is not None:
        argv += ["--problem", str(problem)]
    for key, val in kw.items():
        argv += [f"--{key.replace('_', '-')}"]
        argv += [str(v) for v in (val if isinstance(val, (list, tuple)) else [val])]
    return argv


def test_solve_writes_outputs_and_exits_zero(tmp_path):
    problem = PROBLEMS / "scalar.yaml"
    out = tmp_path / "out"
    assert main(_args("solve", problem, out)) == 0
    assert "strongly_regular" in (out / "classification.txt").read_text()
    riccati_lines = (out / "riccati.csv").read_text().splitlines()
    assert riccati_lines[0].startswith("#")
    assert riccati_lines[1] == "t,regime,P_0_0,min_eig_R_hat"
    assert (out / "affine.csv").exists()


def test_solve_zero_weight_problem_writes_zero_columns(tmp_path):
    spec = bundled("scalar", 20)
    spec = dataclasses.replace(spec, G=np.zeros_like(spec.G))
    problem = tmp_path / "zero.yaml"
    write_problem(problem, spec)
    out = tmp_path / "out"
    assert main(_args("solve", problem, out)) == 0
    rows = [
        line.split(",") for line in (out / "riccati.csv").read_text().splitlines()[2:]
    ]
    assert all(float(r[2]) == 0.0 for r in rows)


def test_iterate_command(tmp_path):
    problem = PROBLEMS / "standard.yaml"
    out = tmp_path / "out"
    assert main(_args("iterate", problem, out, steps=100)) == 0
    assert "strongly_regular" in (out / "classification.txt").read_text()


@pytest.mark.parametrize("max_iter, delta", [(1, "1.582e+00"), (4, "2.270e-05")])
def test_iterate_that_does_not_converge_is_not_converged(tmp_path, capsys, max_iter, delta):
    # standard.yaml is strongly regular, but its iteration needs 5 solves:
    # too few iterations certify nothing about the problem, so the verdict
    # is not_converged, not not_regular, with exit 2 and no solution table
    out = tmp_path / "out"
    assert main(_args("iterate", PROBLEMS / "standard.yaml", out, max_iter=max_iter)) == 2
    line = (f"no convergence after {max_iter} iterations "
            f"(last sup-norm delta {delta})")
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert (out / "classification.txt").read_text() == f"not_converged: {line}\n"
    assert not (out / "riccati.csv").exists()
    assert not (out / "affine.csv").exists()


def test_solve_not_regular_exit_code(tmp_path):
    problem = PROBLEMS / "negative_r.yaml"
    assert main(_args("solve", problem, tmp_path / "out")) == 2


def test_solve_divergence_exit_code(tmp_path):
    problem = PROBLEMS / "blowup.yaml"
    assert main(_args("solve", problem, tmp_path / "out")) == 3
    text = (tmp_path / "out" / "classification.txt").read_text()
    assert "divergen" in text


def test_parse_error_exit_code(tmp_path):
    problem = tmp_path / "nonsense.yaml"
    problem.write_text("grid: {t0: 0.0}\n")
    assert main(_args("solve", problem, tmp_path / "out")) == 1


@pytest.mark.parametrize(
    "cmd, flags, message",
    [
        ("simulate", {"x0": [1.0, 2.0, 3.0]}, "--x0 has 3 entries"),
        ("simulate", {"i0": 5}, "--i0 5 is not a regime in 1..2"),
        ("simulate", {"paths": 0}, "--paths must be at least 1"),
        ("verify", {"controls": 0}, "--controls must be at least 1"),
        ("simulate", {"x0": [1.0, "nan"]}, "--x0 must be finite"),
        ("verify", {"x0": [0.5, "inf"]}, "--x0 must be finite"),
        ("simulate", {"dump_paths": -2}, "--dump-paths must be non-negative, got -2"),
        ("verify", {"dump_paths": 2}, "--dump-paths applies to simulate only, not to verify"),
        ("solve", {"x0": [1.0, 2.0, 3.0], "paths": 3},
         "--x0 applies to simulate and verify only, not to solve"),
        ("simulate", {"controls": 0}, "--controls applies to verify only, not to simulate"),
        ("iterate", {"paths": 500}, "--paths applies to simulate and verify only"),
        ("solve", {"i0": 1}, "--i0 applies to simulate and verify only"),
        ("verify", {"max_iter": 50}, "--max-iter applies to iterate only, not to verify"),
        ("simulate", {"conv_tol": 1e-9}, "--conv-tol applies to iterate only"),
        ("simulate", {"dump_paths": 501, "paths": 500}, "--dump-paths 501 exceeds --paths 500"),
    ],
)
def test_bad_run_argument_exit_code(tmp_path, capsys, cmd, flags, message):
    problem = PROBLEMS / "standard.yaml"
    assert main(_args(cmd, problem, tmp_path / "out", steps=50, **flags)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


@pytest.mark.parametrize(
    "cmd, flags, message",
    [
        ("solve", {"strong_tol": -5}, "--strong-tol must be positive and finite"),
        ("iterate", {"conv_tol": 0}, "--conv-tol must be positive and finite"),
        ("solve", {"steps": 1}, "--steps must be 0"),
        ("verify", {"steps": -4}, "--steps must be 0"),
        ("solve", {"pinv_tol": 2}, "--pinv-tol must lie in (0, 1)"),
        ("iterate", {"max_iter": 0}, "--max-iter must be at least 1"),
        ("simulate", {"threads": 0}, "--threads must be at least 1"),
        ("verify", {"seed": -1}, "--seed must be non-negative"),
    ],
)
def test_bad_solver_argument_exit_code(tmp_path, capsys, cmd, flags, message):
    # negative_r is indefinite: a non-positive --strong-tol would certify it
    problem = PROBLEMS / "negative_r.yaml"
    assert main(_args(cmd, problem, tmp_path / "out", **flags)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


@pytest.mark.parametrize("cmd", ["solve", "iterate", "simulate", "verify"])
@pytest.mark.parametrize("where, reason", [
    ("file", "File exists"), ("file/out", "Not a directory"),
])
def test_an_unusable_out_exits_1(tmp_path, capsys, cmd, where, reason):
    # an output directory that cannot be made is a bad run argument: one
    # error line naming it, exit 1, and the file in its way is untouched
    (tmp_path / "file").write_text("keep\n")
    out = tmp_path / where
    assert main(_args(cmd, PROBLEMS / "scalar.yaml", out, steps=50)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --out {out} cannot be made a directory: {reason}"]
    assert (tmp_path / "file").read_text() == "keep\n"


def test_an_unwritable_out_exits_1(tmp_path, capsys, monkeypatch):
    # a directory the user may not write to (root may write anywhere, so
    # the permission check is stubbed)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    out = tmp_path / "out"
    assert main(_args("solve", PROBLEMS / "scalar.yaml", out)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --out {out} is not writable"]
    assert not any(out.iterdir())


def test_simulate_starts_from_ones_by_default(tmp_path):
    # at the zero state a homogeneous problem's value is exactly 0 +- 0;
    # without --x0, simulate starts from every coordinate 1, as verify does
    bodies = []
    for flags in ({}, {"x0": [1.0, 1.0]}):
        out = tmp_path / str(len(bodies))
        args = _args("simulate", PROBLEMS / "standard.yaml", out, paths=200, seed=3,
                     threads=1, **flags)
        assert main(args) == 0
        bodies.append(_non_comment_bytes(out / "value_mc.csv"))
    assert bodies[0] == bodies[1]
    assert float(bodies[0].splitlines()[1].split(",")[1]) > 0.0


def test_simulate_state_divergence_exit_code(tmp_path, capsys):
    problem = tmp_path / "exploding.yaml"
    write_problem(problem, state_blowup())
    assert main(_args("simulate", problem, tmp_path / "out", paths=16, x0=1.0)) == 3
    err = capsys.readouterr().err
    assert "error: integration diverged at node" in err
    assert "Traceback" not in err


def test_simulate_writes_value_csv_and_paths(tmp_path):
    problem = PROBLEMS / "scalar.yaml"
    out = tmp_path / "out"
    code = main(
        _args("simulate", problem, out, steps=100, paths=64, x0=1.0, dump_paths=2)
    )
    assert code == 0
    body = (out / "value_mc.csv").read_text().splitlines()
    assert body[1] == "mean,std_error,paths,seed"
    mean, se = (float(v) for v in body[2].split(",")[:2])
    assert mean == pytest.approx(0.5, abs=1e-3)
    assert se == 0.0  # deterministic instance
    assert (out / "path_0000.csv").exists() and (out / "path_0001.csv").exists()
    assert not (out / "path_0002.csv").exists()
    costs = list(csv.DictReader(_non_comment_bytes(out / "path_costs.csv").splitlines()))
    assert [row["path"] for row in costs] == ["0", "1"]


@pytest.mark.parametrize("problem", ["standard", "two_regime", "wide-1"])
def test_dumped_paths_are_paths_of_the_estimate(tmp_path, problem):
    # path_NNNN.csv is path NNNN of value_mc.csv's estimate: path_costs.csv
    # gives its cost, which meets the cost of the file's own rows read
    # from the spec's fields, and the costs average to the estimate's
    # mean bit for bit
    if problem == "wide-1":
        path = tmp_path / "wide.yaml"
        write_problem(path, wide_spec(1))
    else:
        path = PROBLEMS / f"{problem}.yaml"
    spec, _ = parse_problem(path)
    out = tmp_path / "out"
    assert main(_args("simulate", path, out, paths=7, dump_paths=7, seed=7, threads=1)) == 0
    (value,) = csv.DictReader(_non_comment_bytes(out / "value_mc.csv").splitlines())
    rows = list(csv.DictReader(_non_comment_bytes(out / "path_costs.csv").splitlines()))
    assert [row["path"] for row in rows] == [str(p) for p in range(7)]
    costs = np.array([float(row["cost"]) for row in rows])
    assert costs.mean() == float(value["mean"])
    for p, cost in enumerate(costs):
        body = _non_comment_bytes(out / f"path_{p:04d}.csv").splitlines()[1:]
        table = np.array([line.split(",") for line in body], dtype=float)
        assert np.array_equal(table[:, 0], spec.grid.nodes())
        alpha, x, u = table[:, 1].astype(int) - 1, table[:, 2:2 + spec.n], table[:, 2 + spec.n:]
        want = evaluate_cost(spec, alpha, x, u)
        assert abs(cost - want) <= 1e-12 * abs(want), p
    assert not (out / "path_0007.csv").exists()


@pytest.mark.parametrize("route", ["flag", "file", "steps", "controls", "dump-paths"])
def test_a_grid_too_large_to_hold_exits_1(tmp_path, capsys, route):
    # 10**17 nodes: the first table, of one byte or eight per node (88.8
    # or 711 PiB), lies beyond the 2**56 bytes (64 PiB) that a 64-bit
    # kernel lets a process address at most, so its allocation is refused
    # at once whatever the memory overcommit setting; a count of 10**19
    # lies beyond numpy's index type, which refuses the grid, the probe
    # controls or the kept paths with a ValueError, not a MemoryError
    steps, huge = 10 ** 17, 10 ** 19
    problem = PROBLEMS / "scalar.yaml"
    if route == "file":
        text = problem.read_text().replace("steps: 1000", f"steps: {steps}")
        assert f"steps: {steps}" in text
        problem = tmp_path / "huge.yaml"
        problem.write_text(text)
    cmd, flags = {
        "flag": ("solve", {"steps": steps}),
        "file": ("solve", {}),
        "steps": ("solve", {"steps": huge}),
        "controls": ("verify", {"steps": 50, "paths": 100, "threads": 1, "controls": huge}),
        "dump-paths": ("simulate", {"steps": 50, "paths": huge, "threads": 1, "dump_paths": huge}),
    }[route]
    assert main(_args(cmd, problem, tmp_path / "out", **flags)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: "), err


def test_verify_scalar_passes(tmp_path):
    problem = PROBLEMS / "scalar.yaml"
    out = tmp_path / "out"
    code = main(
        _args("verify", problem, out, steps=200, paths=400, controls=4, seed=5)
    )
    assert code == 0
    assert (out / "verification.csv").exists()
    assert "checks passed" in (out / "summary.txt").read_text()


def test_verify_nonconvex_flags_and_exit(tmp_path):
    problem = PROBLEMS / "negative_r.yaml"
    out = tmp_path / "out"
    code = main(_args("verify", problem, out, paths=200, controls=4))
    assert code == 2  # classification gate comes first
    text = (out / "verification.csv").read_text()
    assert "convexity_nonnegative_ratios" in text
    assert ",false" in text


def test_report_exit_code_on_failing_check(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "verification.csv").write_text(
        "# generated=test\n"
        "check,statistic,tolerance,pass\n"
        "made_up_check,2.0,1.0,false\n"
    )
    assert main(_args("report", None, out)) == 4
    assert "FAIL" in (out / "summary.txt").read_text()


def test_report_regenerates_summary(tmp_path):
    problem = PROBLEMS / "scalar.yaml"
    out = tmp_path / "out"
    main(_args("verify", problem, out, steps=100, paths=200, controls=3, seed=8))
    summary = (out / "summary.txt").read_text()
    (out / "summary.txt").unlink()
    assert main(_args("report", None, out)) == 0
    assert (out / "summary.txt").read_text() == summary


@pytest.mark.parametrize(
    "body, reason",
    [
        (b"check,statistic,tolerance,pass\nmade_up_check,abc,1.0,false\n",
         "could not convert string to float: 'abc'"),
        (b"name,statistic,tolerance,pass\nmade_up_check,0.5,1.0,true\n", "no check column"),
        (b"check,statistic,tolerance,pass\nmade_up_\xff\xfe,0.5,1.0,true\n",
         "'utf-8' codec can't decode byte 0xff"),
        (b"# generated=test\ncheck,statistic,tolerance,pass\n", "no checks"),
    ],
    ids=["non_numeric", "missing_column", "undecodable", "header_only"],
)
def test_report_rejects_unreadable_verification_csv(tmp_path, capsys, body, reason):
    # each exits 1 with one line; a header-only file certifies nothing
    out = tmp_path / "out"
    out.mkdir()
    (out / "verification.csv").write_bytes(body)
    assert main(_args("report", None, out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out / 'verification.csv'}: ")
    assert reason in err[0]
    assert not (out / "summary.txt").exists()


def test_report_on_unreadable_path_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "verification.csv").mkdir(parents=True)
    assert main(_args("report", None, out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out / 'verification.csv'}: ")


@pytest.mark.parametrize(
    "flags", [{"steps": 1, "strong_tol": -5}, {"seed": 3}, {"paths": 10}],
)
def test_report_rejects_run_flags(tmp_path, capsys, flags):
    out = tmp_path / "out"
    out.mkdir()
    (out / "verification.csv").write_text(
        "check,statistic,tolerance,pass\nmade_up_check,0.5,1.0,true\n"
    )
    assert main(_args("report", None, out, **flags)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: report takes only --out")
    assert not (out / "summary.txt").exists()


def test_other_commands_keep_argparse_exit_for_unknown_flags(tmp_path, capsys):
    # argparse's message, but exit 1: 2 means no closed-loop optimal law
    with pytest.raises(SystemExit) as exc:
        main(_args("solve", PROBLEMS / "scalar.yaml", tmp_path / "out", bogus=1))
    assert exc.value.code == 1
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--problem", "scalar.yaml", "--steps", "abc"], "invalid int value: 'abc'"),
    (["verify", "--problem", "standard.yaml", "--paths", "x"], "invalid int value: 'x'"),
    (["solve"], "the following arguments are required: --problem"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(PROBLEMS / a) if a.endswith(".yaml") else a for a in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _non_comment_bytes(path):
    return "\n".join(
        line for line in path.read_text().splitlines() if not line.startswith("#")
    )


@pytest.mark.parametrize("cmd, flags, files, tail", [
    ("solve", {}, ["affine", "riccati"], ""),
    ("iterate", {"max_iter": 40}, ["affine", "riccati"], " max_iter=40 conv_tol=1e-10"),
    ("simulate", {"paths": 64, "x0": [0.5, -0.3]}, ["affine", "riccati", "value_mc"],
     " x0=0.5,-0.3 i0=1 paths=64 dump_paths=0"),
    ("verify", {"paths": 200, "controls": 3, "i0": 2}, ["affine", "riccati", "verification"],
     " x0=1.0,1.0 i0=2 paths=200 controls=3"),
], ids=["solve", "iterate", "simulate", "verify"])
def test_meta_line_records_the_flags_the_command_ran_with(cmd, flags, files, tail, tmp_path):
    # the flags every command takes, then those that apply to this one,
    # with the values it ran with: verify's x0 is its default start
    out = tmp_path / "out"
    assert main(_args(cmd, PROBLEMS / "standard.yaml", out, seed=4, threads=1, **flags)) == 0
    assert sorted(p.stem for p in out.glob("*.csv")) == files
    for name in files:
        meta = (out / f"{name}.csv").read_text().splitlines()[0]
        stamp = meta.split(" ")[1]
        assert stamp.startswith("generated=")
        assert meta == (f"# {stamp} seed=4 steps=file threads=1 pinv_tol=1e-12 "
                        f"strong_tol=1e-08{tail}"), name


def test_node_csv_rows_match_csv_writer(tmp_path):
    spec = bundled("two_regime", 6)
    ric = riccati.solve_riccati_direct(spec)
    p_bar = ric.P_bar.copy()
    p_bar[2, 1, 0, 0] = -1.25e-7
    p_bar[3, 0, 0, 0] = 1.0000000000000001e-300
    p_bar[4, 1, 0, 0] = -0.0
    p_bar[1, 0, 0, -1] = p_bar[1, 0, -1, 0] = -2.5e-300  # eta
    ric = dataclasses.replace(ric, P_bar=p_bar)
    args = types.SimpleNamespace(
        command="solve", seed=1, steps=None, threads=1, pinv_tol=1e-12, strong_tol=1e-8,
    )
    cli._write_riccati_csv(tmp_path, args, spec, ric)
    cli._write_affine_csv(tmp_path, args, spec, ric)
    t_nodes = spec.grid.nodes()
    ric_rows = [
        [float(t), i + 1, *ric.P[k, i].ravel().tolist(), float(ric.min_eig_R_hat[k, i])]
        for k, t in enumerate(t_nodes) for i in range(spec.n_regimes)
    ]
    aff_rows = [
        [float(t), i + 1, *ric.P_bar[k, i, :-1, -1].tolist(), *ric.Theta_bar[k, i, :, -1].tolist()]
        for k, t in enumerate(t_nodes) for i in range(spec.n_regimes)
    ]
    for name, rows in (("riccati.csv", ric_rows), ("affine.csv", aff_rows)):
        header = (tmp_path / name).read_text().splitlines()[1].split(",")
        cli._write_csv(tmp_path / "ref.csv", "# ref\n", header, rows)
        got = _non_comment_bytes(tmp_path / name)
        assert got == _non_comment_bytes(tmp_path / "ref.csv")
        assert ",-" in got and "e-300," in got


def _random_n3(steps=60):
    """A uniformly convex problem with n = 3, m = 2, D = 2 and A varying
    along the grid."""
    rng = np.random.default_rng(11)
    grid = TimeGrid(0.0, 1.0, steps)

    def normal(scale, *shape):
        return list(scale * rng.normal(size=(2, *shape)))

    def gram(dim):
        f = rng.normal(size=(2, dim, dim))
        return list(f @ np.swapaxes(f, -1, -2) / dim)

    spec = ProblemSpec.from_regimes(
        grid, Generator.constant([[-1.0, 1.0], [2.0, -2.0]], grid),
        A=normal(0.3, 3, 3), B=normal(0.5, 3, 2), C=normal(0.1, 3, 3), D=normal(0.1, 3, 2),
        Q=gram(3), S=[np.zeros((2, 3))] * 2, R=[np.eye(2) + r for r in gram(2)], G=gram(3),
        b=normal(0.3, 3), q=normal(0.3, 3), rho=normal(0.3, 2), g=normal(0.3, 3),
    )
    ramp = np.linspace(0.0, 1.0, steps + 1)[:, None, None, None]
    return dataclasses.replace(spec, A=spec.A * (1.0 + ramp))


@pytest.mark.parametrize("cmd", ["solve", "iterate"])
@pytest.mark.parametrize("which", ["standard", "random_n3"])
def test_riccati_csv_mirror_entries_have_the_same_text(tmp_path, cmd, which):
    # riccati.csv formats P's upper triangle once and writes it twice;
    # the solution it reads is symmetric bit for bit, so every P_a_b and
    # P_b_a must read the same, signed zeros included, and the body is
    # that of the plain writer given every entry of P
    problem = PROBLEMS / "standard.yaml"
    if which == "random_n3":
        problem = tmp_path / "random_n3.yaml"
        write_problem(problem, _random_n3())
    assert main(_args(cmd, problem, tmp_path / "out")) == 0
    lines = (tmp_path / "out" / "riccati.csv").read_text().splitlines()
    col = {name: k for k, name in enumerate(lines[1].split(","))}
    spec = parse_problem(problem)[0]
    pairs = [(col[f"P_{a}_{b}"], col[f"P_{b}_{a}"]) for a in range(spec.n) for b in range(a)]
    rows = [line.split(",") for line in lines[2:]]
    assert all(row[i] == row[j] for row in rows for i, j in pairs)
    assert any(float(row[i]) != 0.0 for row in rows for i, _ in pairs)
    solve = riccati.solve_riccati_direct if cmd == "solve" else riccati.iterate_strongly_regular
    sol = solve(spec)
    want = [
        [float(t), i + 1, *sol.P[k, i].ravel().tolist(), float(sol.min_eig_R_hat[k, i])]
        for k, t in enumerate(spec.grid.nodes()) for i in range(spec.n_regimes)
    ]
    cli._write_csv(tmp_path / "ref.csv", "# ref\n", lines[1].split(","), want)
    assert "\n".join(lines[1:]) == _non_comment_bytes(tmp_path / "ref.csv")


def test_node_csv_formats_one_node_at_a_time(tmp_path):
    # a table the size of riccati.csv on the bench's wide problem (N = 500,
    # D = 4, n = 8): formatting it whole held 4.2 MiB of Python floats,
    # one node at a time holds 0.05 MiB
    rng = np.random.default_rng(3)
    cols = rng.normal(size=(501, 4, 65)) * 10.0 ** rng.integers(-300, 300, (501, 4, 65))
    cols[7, 2, 5] = -0.0
    t_nodes = np.linspace(0.0, 1.0, 501)
    header = ["t", "regime", *(f"c{j}" for j in range(65))]
    tracemalloc.start()
    try:
        cli._write_node_csv(tmp_path / "table.csv", "# meta\n", header, t_nodes, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = "%.17g,%d" + ",%.17g" * 65 + "\n"
    whole = "".join(
        row % (t, i, *values)
        for t, per_node in zip(t_nodes.tolist(), cols.tolist())
        for i, values in enumerate(per_node, start=1)
    )
    assert (tmp_path / "table.csv").read_text() == "# meta\n" + ",".join(header) + "\n" + whole
    assert peak <= 2 ** 20


def test_verify_reproducible_bodies(tmp_path):
    problem = PROBLEMS / "two_regime.yaml"
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(
            _args(
                "verify", problem, out,
                steps=100, paths=300, controls=3, seed=99, threads=2,
            )
        )
        assert code == 0
        outs.append(out)
    for name in ("verification.csv", "riccati.csv", "affine.csv"):
        assert _non_comment_bytes(outs[0] / name) == _non_comment_bytes(outs[1] / name)


def test_verify_threads_do_not_change_bodies(tmp_path):
    # 4200 paths is two batches, so threads=2 runs them concurrently
    problem = PROBLEMS / "standard.yaml"
    codes, bodies = [], []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        codes.append(
            main(_args("verify", problem, out, steps=50, paths=4200, seed=3,
                       threads=threads))
        )
        bodies.append(_non_comment_bytes(out / "verification.csv"))
    assert codes[0] == codes[1]
    assert bodies[0] == bodies[1]


def test_offset_range_failure_exit_code(tmp_path, capsys):
    # P is regular, but rho_hat leaves the range of R_hat in regime 2:
    # no closed-loop optimal law, so exit 2 and no affine.csv
    out = tmp_path / "out"
    assert main(_args("solve", PROBLEMS / "dead_offset.yaml", out, steps=50)) == 2
    err = capsys.readouterr().err
    want = "not_regular(offset range condition fails at node 0, regime 2 "
    assert f"classification: {want}" in err
    assert "Traceback" not in err
    assert (out / "classification.txt").read_text().startswith(want)
    assert not (out / "affine.csv").exists()


def test_verify_reports_the_failed_offset_range_test(tmp_path):
    # the exit code says the offset condition fails; the report says so
    # too, beside the convexity probe, which drops the offset and passes
    out = tmp_path / "out"
    args = _args("verify", PROBLEMS / "dead_offset.yaml", out, paths=500, seed=1, threads=1)
    assert main(args) == 2
    rows = list(csv.DictReader(_non_comment_bytes(out / "verification.csv").splitlines()))
    assert [r["check"] for r in rows] == ["offset_range_residual",
                                          "convexity_nonnegative_ratios"]
    assert [r["pass"] for r in rows] == ["false", "true"]
    assert float(rows[0]["statistic"]) == pytest.approx(0.4, rel=1e-12)
    assert float(rows[0]["tolerance"]) == riccati.DEFAULT_RANGE_TOL
    assert "1/2 checks passed" in (out / "summary.txt").read_text()


def test_solve_names_regimes_from_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_args("solve", PROBLEMS / "negative_r.yaml", out)) == 2
    verdict = (out / "classification.txt").read_text()
    assert verdict.startswith("not_regular(control weight composite indefinite at node ")
    assert ", regime 1 (min eig" in verdict
    assert ", regime 1 (min eig" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd, problem, code",
    [("solve", "dead_channel", 0), ("iterate", "dead_channel", 2),
     ("simulate", "dead_channel", 0), ("verify", "dead_channel", 0),
     ("solve", "dead_offset", 2), ("iterate", "dead_offset", 2),
     ("simulate", "dead_offset", 2), ("verify", "dead_offset", 2)],
)
def test_dead_channel_exit_codes(tmp_path, capsys, cmd, problem, code):
    out = tmp_path / "out"
    flags = {"steps": 100}
    if cmd in ("simulate", "verify"):
        flags.update(paths=500, seed=7, threads=1)
    assert main(_args(cmd, PROBLEMS / f"{problem}.yaml", out, **flags)) == code
    assert "Traceback" not in capsys.readouterr().err
    verdict = (out / "classification.txt").read_text()
    if cmd == "iterate":
        assert verdict.startswith("not_regular: control weight composite not positive")
    elif problem == "dead_channel":
        assert verdict == "regular\n"
    else:
        assert verdict.startswith("not_regular(offset range condition fails")
    assert (out / "affine.csv").exists() == (code == 0)


@pytest.mark.parametrize("cmd", ["solve", "iterate", "simulate", "verify"])
@pytest.mark.parametrize("field, old, new", [("B", "1.0", "1.0e+160"), ("A", "0.0", "1.0e+300")])
def test_a_stage_that_overflows_is_a_divergence(tmp_path, capsys, cmd, field, old, new):
    # scalar.yaml with B = 1e160 overflows the first RK4 step's first
    # stage, with A = 1e300 its second: a divergence at node N - 1, told
    # in one error line with no warning (which -W error would raise)
    text = (PROBLEMS / "scalar.yaml").read_text()
    problem = tmp_path / "overflow.yaml"
    problem.write_text(text.replace(f"{field}:\n  - [{old}]", f"{field}:\n  - [{new}]"))
    assert getattr(parse_problem(problem)[0], field).max() == float(new)
    flags = {"paths": 500, "seed": 7, "threads": 1} if cmd in ("simulate", "verify") else {}
    assert main(_args(cmd, problem, tmp_path / "out", **flags)) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: integration diverged at node 999 (t=0.999); "
                   "the state went non-finite"]
    _assert_divergence_record(tmp_path / "out", err)


@pytest.mark.parametrize("cmd", ["solve", "simulate", "verify"])
def test_a_finite_blowup_names_the_limit(capsys, tmp_path, cmd):
    # blowup.yaml escapes in finite time, through entries beyond 1e12
    # that are all finite; iterate rejects it before any escape (exit 2)
    flags = {"paths": 500, "seed": 7, "threads": 1} if cmd in ("simulate", "verify") else {}
    assert main(_args(cmd, PROBLEMS / "blowup.yaml", tmp_path / "out", **flags)) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: integration diverged at node 749 (t=0.749); "
                   "an entry exceeded 1e+12"]
    _assert_divergence_record(tmp_path / "out", err)


def _assert_divergence_record(out, err):
    """classification.txt holds the one error line of a divergence,
    after its verdict, and no solution table was written."""
    assert (out / "classification.txt").read_text() == (
        "divergent: " + err[0].removeprefix("error: ") + "\n")
    assert not (out / "riccati.csv").exists()
    assert not (out / "affine.csv").exists()


def test_solve_eta_runs_no_sweep(monkeypatch):
    # the offsets are read off the augmented Riccati solution, so the
    # offset stage cannot diverge; main still maps a DivergenceError
    # from any later stage to exit 3
    spec = bundled("two_regime", 50)
    sol = riccati.solve_riccati_direct(spec)

    def no_sweep(*args, **kwargs):
        raise riccati.DivergenceError(7, 0.25)

    monkeypatch.setattr(riccati, "_rk4_stack", no_sweep)
    monkeypatch.setattr(riccati, "_rk4_block", no_sweep)
    aff = affine.solve_eta(spec, sol)
    np.testing.assert_array_equal(aff.eta, sol.P_bar[..., :-1, -1])
    assert np.any(aff.eta)
