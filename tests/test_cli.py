"""Problem-file round trip, CLI exit codes, output files, reproducibility."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from regimelq import affine, benchmarks, riccati
from regimelq.cli import ProblemFileError, main, parse_problem, write_problem

FIELDS = ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "q", "rho", "G", "g")


@pytest.mark.parametrize(
    "which", ["scalar", "two_regime", "standard", "blowup", "negative_r"]
)
def test_problem_file_round_trip(tmp_path, which):
    path = tmp_path / f"{which}.yaml"
    spec = benchmarks.write_example(path, which)
    parsed, _ = parse_problem(path)
    for name in FIELDS:
        assert np.array_equal(getattr(spec, name), getattr(parsed, name)), name
    assert np.array_equal(spec.gen.rates, parsed.gen.rates)
    assert parsed.grid == spec.grid


def test_round_trip_time_varying_field(tmp_path):
    spec = benchmarks.scalar_benchmark(steps=8)
    a_var = spec.A.copy()
    a_var[:, 0, 0, 0] = np.linspace(0.0, 1.0, 9)
    spec = dataclasses.replace(spec, A=a_var)
    path = tmp_path / "varying.yaml"
    write_problem(path, spec)
    parsed, _ = parse_problem(path)
    assert np.array_equal(parsed.A, spec.A)


def test_parse_rejects_malformed_yaml(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: [unclosed\n")
    with pytest.raises(ProblemFileError):
        parse_problem(bad)


def test_parse_rejects_missing_field(tmp_path):
    path = tmp_path / "missing.yaml"
    benchmarks.write_example(path, "scalar")
    text = path.read_text().replace("  R:\n  - [1.0]\n", "")
    assert "R:" not in text
    path.write_text(text)
    with pytest.raises(ProblemFileError, match="missing field R"):
        parse_problem(path)


def test_parse_rejects_bad_generator(tmp_path):
    path = tmp_path / "gen.yaml"
    benchmarks.write_example(path, "two_regime")
    text = path.read_text().replace("[-1.0, 1.0]", "[-1.0, 1.1]")
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
    problem = tmp_path / "scalar.yaml"
    benchmarks.write_example(problem, "scalar")
    out = tmp_path / "out"
    assert main(_args("solve", problem, out)) == 0
    assert "strongly_regular" in (out / "classification.txt").read_text()
    riccati_lines = (out / "riccati.csv").read_text().splitlines()
    assert riccati_lines[0].startswith("#")
    assert riccati_lines[1] == "t,regime,P_0_0,min_eig_R_hat"
    assert (out / "affine.csv").exists()


def test_solve_zero_weight_problem_writes_zero_columns(tmp_path):
    spec = benchmarks.scalar_benchmark(steps=20)
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
    problem = tmp_path / "standard.yaml"
    benchmarks.write_example(problem, "standard")
    out = tmp_path / "out"
    assert main(_args("iterate", problem, out, steps=100)) == 0
    assert "strongly_regular" in (out / "classification.txt").read_text()


def test_solve_not_regular_exit_code(tmp_path):
    problem = tmp_path / "negr.yaml"
    benchmarks.write_example(problem, "negative_r")
    assert main(_args("solve", problem, tmp_path / "out")) == 2


def test_solve_divergence_exit_code(tmp_path):
    problem = tmp_path / "blowup.yaml"
    benchmarks.write_example(problem, "blowup")
    assert main(_args("solve", problem, tmp_path / "out")) == 3
    text = (tmp_path / "out" / "classification.txt").read_text()
    assert "divergen" in text


def test_parse_error_exit_code(tmp_path):
    problem = tmp_path / "nonsense.yaml"
    problem.write_text("grid: {t0: 0.0}\n")
    assert main(_args("solve", problem, tmp_path / "out")) == 1


def test_simulate_writes_value_csv_and_paths(tmp_path):
    problem = tmp_path / "scalar.yaml"
    benchmarks.write_example(problem, "scalar")
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


def test_verify_scalar_passes(tmp_path):
    problem = tmp_path / "scalar.yaml"
    benchmarks.write_example(problem, "scalar")
    out = tmp_path / "out"
    code = main(
        _args("verify", problem, out, steps=200, paths=400, controls=4, seed=5)
    )
    assert code == 0
    assert (out / "verification.csv").exists()
    assert "checks passed" in (out / "summary.txt").read_text()


def test_verify_nonconvex_flags_and_exit(tmp_path):
    problem = tmp_path / "negr.yaml"
    benchmarks.write_example(problem, "negative_r")
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
    problem = tmp_path / "scalar.yaml"
    benchmarks.write_example(problem, "scalar")
    out = tmp_path / "out"
    main(_args("verify", problem, out, steps=100, paths=200, controls=3, seed=8))
    summary = (out / "summary.txt").read_text()
    (out / "summary.txt").unlink()
    assert main(_args("report", None, out)) == 0
    assert (out / "summary.txt").read_text() == summary


def _non_comment_bytes(path):
    return "\n".join(
        line for line in path.read_text().splitlines() if not line.startswith("#")
    )


def test_verify_reproducible_bodies(tmp_path):
    problem = tmp_path / "tworeg.yaml"
    benchmarks.write_example(problem, "two_regime")
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
    problem = Path(__file__).resolve().parents[1] / "problems" / "standard.yaml"
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


def test_offset_range_failure_exit_code(tmp_path, monkeypatch, capsys):
    real_solve = riccati.solve_riccati_direct

    def solve_with_zero_pinv(spec, **kw):
        sol = real_solve(spec, **kw)
        return dataclasses.replace(sol, R_hat_pinv=np.zeros_like(sol.R_hat_pinv))

    monkeypatch.setattr(riccati, "solve_riccati_direct", solve_with_zero_pinv)
    problem = tmp_path / "tworeg.yaml"
    benchmarks.write_example(problem, "two_regime")
    assert main(_args("solve", problem, tmp_path / "out", steps=50)) == 2
    err = capsys.readouterr().err
    assert "range condition fails" in err
    assert "Traceback" not in err
    verdict = (tmp_path / "out" / "classification.txt").read_text()
    assert verdict.startswith("not_regular: ")
    assert "range condition fails" in verdict
    assert not (tmp_path / "out" / "affine.csv").exists()


def test_offset_divergence_recorded_in_classification(tmp_path, monkeypatch):
    def diverging_eta(spec, sol):
        raise riccati.DivergenceError(7, 0.25)

    monkeypatch.setattr(affine, "solve_eta", diverging_eta)
    problem = tmp_path / "scalar.yaml"
    benchmarks.write_example(problem, "scalar")
    assert main(_args("solve", problem, tmp_path / "out", steps=50)) == 3
    verdict = (tmp_path / "out" / "classification.txt").read_text()
    assert verdict.startswith("divergent: integration diverged at node 7")
