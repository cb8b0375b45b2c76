"""Certification checks: stationarity, expansion, convexity, value, kernels."""

import collections
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from regimelq import benchmarks, riccati, sim, verify
from regimelq.affine import feedback_at, solve_eta, value_function
from regimelq.cli import main
from regimelq.model import _RUNNING_FIELDS, Generator, ProblemSpec
from regimelq.problemfile import parse_problem
from regimelq.riccati import solve_riccati_direct
from regimelq.sim import (
    _cell_transitions,
    _closed_loop_tables,
    _expected_values,
    _open_loop_table,
    _sample_regime_paths,
    brownian_increments,
    mc_value,
)
from regimelq.verify import (
    VerificationReport,
    _stationarity_row,
    certify,
    convexity_probe,
)

from reference import (
    certify_one_law_per_call,
    evaluate_cost,
    pointwise_rows,
    quadratic_expansion,
    stationarity_residual,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _solved(spec):
    ric = solve_riccati_direct(spec)
    return ric, solve_eta(spec, ric)


def _certified(spec, i0=0, x0=None, paths=50, seed=1, controls=2):
    """certify's report on ``spec`` from its first node, x0 all ones by
    default."""
    ric, _ = _solved(spec)
    x0 = np.ones(spec.n) if x0 is None else x0
    return certify(spec, ric, spec.grid.t0, i0, x0, paths, seed, controls)


def _one_path(spec, law, x0, seed):
    """The regimes, states and controls of the one path of a one-path
    estimate of ``law`` from x0 in regime 0."""
    kept = mc_value(spec, law, spec.grid.t0, 0, np.asarray(x0, dtype=float), 1, seed,
                    keep=1).kept
    return kept.alpha[0], kept.X[0], kept.u[0]


def _rows(report, prefix):
    """The rows of ``report`` whose names start with ``prefix``."""
    return VerificationReport([c for c in report.checks if c.name.startswith(prefix)])


# ------------------------------------------------------- stationarity


def test_stationarity_vanishes_on_closed_loop_path():
    spec = benchmarks.two_regime_inhomogeneous(steps=100)
    ric, aff = _solved(spec)
    alpha, x, u = _one_path(spec, ric.Theta_bar, [1.0], 2)
    res = stationarity_residual(spec, ric, aff, alpha, x, u)
    assert np.abs(res).max() <= 1e-10
    assert _stationarity_row(ric, 0).all_passed


def test_stationarity_detects_off_optimal_gain():
    spec = benchmarks.scalar_benchmark(steps=100)
    ric, _ = _solved(spec)
    assert _stationarity_row(ric, 0).all_passed
    for nodes in (slice(None), 0, -1):  # every node, the first and the last alone
        off = ric.Theta_bar.copy()
        off[nodes, ..., :-1] += 0.1
        row = _stationarity_row(dataclasses.replace(ric, Theta_bar=off), 0)
        assert not row.all_passed
        assert row["stationarity_max_residual"].statistic >= 0.05


@pytest.mark.parametrize("shift", [0.0, 0.1])
@pytest.mark.parametrize("which", ["two_regime_inhomogeneous", "dead_channel"])
def test_path_residual_is_the_law_residual_at_the_path_state(which, shift):
    # along any state the constraint B^T Y + D^T Z + S X + R u + rho of a
    # law Theta_bar is (S_bar + R_hat Theta_bar) x_bar, which is what the
    # stationarity row bounds at every node and regime; shift 0.1 moves the
    # gain and the offset off the optimal law
    if which == "dead_channel":
        spec, _ = parse_problem(PROBLEMS / "dead_channel.yaml")
    else:
        spec = benchmarks.two_regime_inhomogeneous(steps=200)
    ric, aff = _solved(spec)
    ric = dataclasses.replace(ric, Theta_bar=ric.Theta_bar + shift)
    aff = dataclasses.replace(aff, v_star=ric.Theta_bar[..., -1])
    alpha, x, u = _one_path(spec, ric.Theta_bar, np.linspace(-0.8, 1.2, spec.n), 9)
    got = stationarity_residual(spec, ric, aff, alpha, x, u)
    idx, reg = np.arange(spec.grid.steps + 1), alpha
    x_bar = np.column_stack([x, np.ones(idx.size)])
    law = ric.S_bar + ric.R_hat @ ric.Theta_bar
    want = np.einsum("kij,kj->ki", law[idx, reg], x_bar)
    # relative to the size of the terms that cancel at the optimum
    scale = np.linalg.norm(ric.S_bar[idx, reg], axis=(-2, -1)) * np.linalg.norm(x_bar, axis=1)
    assert np.abs(got - want).max() <= 1e-12 * scale.max()
    if shift:
        assert np.abs(want).max() >= 0.01 * scale.max()


# ------------------------------------ quadratic expansion of the cost


def _assert_exact_quadratic(fit):
    """The fit through the eps-laws is exact, its curvature is the
    homogeneous cost of v and its slope the centered difference, each to
    rounding of the cost's scale."""
    scale = max(1.0, abs(fit["c0"]))
    assert fit["fit_residual"] <= 1e-9 * scale
    assert abs(fit["c2"] - fit["j0"]) <= 1e-8 * scale
    assert abs(fit["c1"] - fit["c1_centered"]) <= 1e-8 * scale


def test_frechet_zero_direction():
    spec = benchmarks.two_regime_standard(steps=40)
    u = np.zeros((41, 1))
    fit = quadratic_expansion(spec, 0, 0, np.array([1.0, 0.0]), u, np.zeros((41, 1)), (0.1, 0.2))
    assert abs(fit["c1"]) <= 1e-9
    assert abs(fit["c2"]) <= 1e-9
    _assert_exact_quadratic(fit)


def test_frechet_deterministic_exact_quadratic():
    spec = benchmarks.state_decoupled(steps=200)
    rng = np.random.default_rng(21)
    u = rng.normal(size=(201, 1))
    v = rng.normal(size=(201, 1))
    fit = quadratic_expansion(spec, 0, 0, np.array([0.5]), u, v, (0.05, 0.1, 0.2))
    assert fit["fit_residual"] <= 1e-10
    _assert_exact_quadratic(fit)
    assert abs(fit["c2"] - fit["j0"]) <= 1e-6 * abs(fit["j0"])


def test_frechet_linear_term_vanishes_at_feedback_optimum():
    spec = benchmarks.state_decoupled(steps=300)
    ric, _ = _solved(spec)
    _, _, u = _one_path(spec, ric.Theta_bar, [0.5], 0)
    v = np.random.default_rng(10).normal(size=(301, 1))
    fit = quadratic_expansion(spec, 0, 0, np.array([0.5]), u, v, (0.05, 0.1))
    assert abs(fit["c1"]) <= 1e-6
    assert fit["c2"] >= 0.0


def test_frechet_quadratic_coefficient_stochastic():
    spec = benchmarks.two_regime_inhomogeneous(steps=80)
    rng = np.random.default_rng(31)
    u = 0.3 * rng.normal(size=(81, 1))
    v = rng.normal(size=(81, 1))
    _assert_exact_quadratic(quadratic_expansion(spec, 0, 1, np.array([0.7]), u, v, (0.1, 0.2)))


# --------------------------------------------------------- convexity


def test_convexity_standard_conditions_positive():
    report = convexity_probe(benchmarks.two_regime_standard(steps=80), 0.0, 15, 13)
    check = report["convexity_nonnegative_ratios"]
    assert check.passed
    assert check.details["eps_hat"] > 0.0
    assert check.statistic == -check.details["eps_hat"]


def test_convexity_flags_negative_control_weight():
    report = convexity_probe(benchmarks.negative_r(steps=80), 0.0, 8, 14)
    check = report["convexity_nonnegative_ratios"]
    assert not check.passed
    assert check.details["flagged_nonconvex"]
    assert check.details["eps_hat"] == pytest.approx(-1.0, rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "t0, n_controls, message",
    [
        (1.0, 4, "t0 = T leaves no horizon"),
        (0.0, 0, "at least 1 control"),
    ],
)
def test_convexity_probe_rejects_empty_inputs(t0, n_controls, message):
    spec = benchmarks.scalar_benchmark(steps=20)
    with pytest.raises(ValueError, match=message):
        convexity_probe(spec, t0, n_controls, 3)


@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_convexity_stacked_controls_match_per_control_runs(t0):
    # the probe runs its controls as the laws of one recursion; each law
    # must meet only its own blocks, from every regime
    spec = benchmarks.two_regime_standard(steps=60)
    stacked = convexity_probe(spec, t0, 7, 21)["convexity_nonnegative_ratios"]
    hspec, k0 = spec.homogeneous(), spec.grid.node_index(t0)
    trans = _cell_transitions(spec.gen, spec.grid)
    u = np.zeros((spec.grid.steps + 1, spec.m))
    single = []
    for c in range(7):
        u[k0:] = np.random.default_rng([21, 31337, c]).normal(size=(spec.grid.steps + 1, spec.m))[k0:]
        sq = np.einsum("ki,ki->k", u, u)
        energy = spec.grid.h * (sq[k0:].sum() - 0.5 * (sq[k0] + sq[-1]))
        tables = _closed_loop_tables(hspec, _open_loop_table(hspec, u))
        single.append(_expected_values(tables, trans, k0)[0, :, -1, -1] / energy)
    np.testing.assert_allclose(stacked.details["ratios"], single, rtol=1e-12, atol=0)


def test_homogeneous_cost_scales_quadratically_in_control():
    # underlying scale invariance of the probe's cost-to-energy ratio
    from regimelq.sim import (
        _closed_loop_tables,
        _integrate_policy,
        _open_loop_table,
        _sample_regime_paths,
    )

    spec = benchmarks.two_regime_standard(steps=50).homogeneous()
    rng = np.random.default_rng(6)
    u = rng.normal(size=(51, 1))
    alpha = _sample_regime_paths(spec.gen, spec.grid, 0, 100, np.random.default_rng(7))
    dw = brownian_increments(spec.grid, np.random.default_rng(8), 100)
    costs = []
    for scale in (1.0, 3.0):
        tables = _closed_loop_tables(spec, _open_loop_table(spec, scale * u))
        costs.append(_integrate_policy(tables, alpha, np.zeros(2), dw))
    assert np.abs(costs[1] - 9.0 * costs[0]).max() <= 1e-10 * np.abs(costs[1]).max()


# ------------------------------------------------- value consistency


def test_value_consistency_zero_problem():
    spec = benchmarks.two_regime_standard(steps=30)
    spec = dataclasses.replace(
        spec,
        G=np.zeros_like(spec.G), Q=np.zeros_like(spec.Q),
        S=np.zeros_like(spec.S),
    )
    report = _rows(_certified(spec, paths=300, seed=15), "value_")
    assert report["value_mc_vs_function"].statistic == 0.0
    assert report.all_passed


def test_value_consistency_scalar_oracle():
    spec = benchmarks.scalar_benchmark(steps=400)
    report = _rows(_certified(spec, paths=2000, seed=16), "value_")
    assert report.all_passed
    assert report["value_mc_vs_function"].details["value_function"] == pytest.approx(
        0.5, rel=1e-9
    )


def test_value_perturbed_gain_costs_more():
    spec = benchmarks.scalar_benchmark(steps=200)
    ric, _ = _solved(spec)
    law = ric.Theta_bar.copy()
    law[..., :-1] += 0.5  # the gain alone
    # one seed: both laws meet the same regimes and increments
    base, pert = (_one_path(spec, theta_bar, [1.0], 2) for theta_bar in (ric.Theta_bar, law))
    assert np.array_equal(base[0], pert[0])
    gap = evaluate_cost(spec, *pert) - evaluate_cost(spec, *base)
    assert gap > 0.0


def test_value_consistency_inhomogeneous_two_regime():
    spec = benchmarks.two_regime_inhomogeneous(steps=200)
    report = _rows(_certified(spec, x0=np.array([0.7]), paths=4000, seed=17), "value_")
    assert report.all_passed


def test_value_perturbation_rows_catch_a_suboptimal_law():
    # the same seeded perturbations that the optimal law survives find a
    # cheaper law around a shifted one: gain and offset move together,
    # and every row prices the one shifted law
    spec, _ = parse_problem(PROBLEMS / "two_regime.yaml")
    ric, _ = _solved(spec)
    rows = [f"value_no_improvement_perturbation_{p}" for p in range(1, 6)]
    x0, seed = np.ones(spec.n), 1
    good = certify(spec, ric, 0.0, 0, x0, 50, seed, 2)
    assert all(good[r].passed for r in rows)
    shifted = dataclasses.replace(ric, Theta_bar=ric.Theta_bar + 0.2)
    bad = certify(spec, shifted, 0.0, 0, x0, 50, seed, 2)
    assert not all(bad[r].passed for r in rows)


def test_value_perturbation_rows_pass_where_the_euler_gap_is_negative(tmp_path):
    # at seed 249 perturbation 5 costs 2.9e-6 more than the optimal law from
    # verify's default state in continuous time but 3.7e-6 less under the
    # Euler scheme, for which the continuous-time optimal law is only O(h)
    # optimal; the rows read the continuous-time gap at every node and
    # regime, and pass at their rounding tolerances
    spec, _ = parse_problem(PROBLEMS / "two_regime.yaml")
    out = tmp_path / "out"
    main(["verify", "--problem", str(PROBLEMS / "two_regime.yaml"), "--paths", "500",
          "--seed", "249", "--threads", "1", "--out", str(out)])
    rows = [line.split(",") for line in (out / "verification.csv").read_text().splitlines()
            if line.startswith("value_no_improvement_perturbation_")]
    assert len(rows) == 5
    assert all(0.0 < float(row[2]) < 1e-12 and row[3] == "true" for row in rows), rows
    ric, _ = _solved(spec)
    x_bar = np.ones(2)
    laws = verify._perturbed_laws(spec, ric, 249)[[0, 5]]
    euler = _expected_values(_closed_loop_tables(spec, laws), _cell_transitions(spec.gen, spec.grid))
    assert -1e-5 < x_bar @ (euler[1, 0] - euler[0, 0]) @ x_bar < 0.0
    pointwise = pointwise_rows(spec, ric, 0.0, 0, np.ones(1), 249)
    assert 0.0 < -pointwise["value_no_improvement_perturbation_5"].statistic < 1e-5


_PERTURBATION_ROWS = [f"value_no_improvement_perturbation_{p}" for p in range(1, 6)]


@pytest.mark.parametrize("which", ["scalar", "standard", "two_regime", "dead_channel"])
def test_uniform_rows_pass_at_their_rounding_tolerances(which):
    # every row but the Monte-Carlo value reads every regime, so it passes
    # from every initial regime and state alike, and the no-improvement rows
    # hold at rounding tolerances far below any cost gap
    spec, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    ric, _ = _solved(spec)
    for seed in range(1, 31, 5):
        reports = [
            _rows_but_mc(certify(spec, ric, 0.0, i0, x0, 1, seed, 20))
            for i0, x0 in [(0, np.ones(spec.n)), (spec.n_regimes - 1, np.full(spec.n, 0.3))]
        ]
        assert reports[0].all_passed, (seed, reports[0].summary())
        assert reports[0].to_csv() == reports[1].to_csv()
        assert [c.name for c in reports[0].checks] == [
            "stationarity_max_residual", *_PERTURBATION_ROWS, "euler_bias",
            "m0_feynman_kac_vs_ode", "convexity_nonnegative_ratios",
        ]
        for row in _PERTURBATION_ROWS:
            assert 0.0 < reports[0][row].tolerance < 1e-11


def _rows_but_mc(report):
    return VerificationReport([c for c in report.checks if c.name != "value_mc_vs_function"])


@pytest.mark.parametrize("which", ["scalar", "standard", "two_regime", "dead_channel"])
def test_every_uniform_row_fails_at_a_shifted_law(which):
    # a law 0.05 off the optimum in every entry is beaten by each seeded
    # perturbation from some node, regime and state; on dead_channel R_hat
    # is singular in regime 2, and a perturbation may then cost more at
    # every node the grid resolves (7 of 150 rows at seeds 1-30), so there
    # some row must fail
    spec, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    ric, _ = _solved(spec)
    shifted = dataclasses.replace(ric, Theta_bar=ric.Theta_bar + 0.05)
    for seed in range(1, 31, 5):
        report = certify(spec, shifted, 0.0, 0, np.ones(spec.n), 1, seed, 2)
        failed = [not report[row].passed for row in _PERTURBATION_ROWS]
        assert all(failed) if which != "dead_channel" else any(failed), (seed, report.summary())


@pytest.mark.parametrize("which", ["standard", "two_regime", "dead_channel"])
def test_a_law_wrong_late_in_one_regime_fails_only_the_uniform_rows(which):
    # the law is off by 0.1 in regime 2 at the nodes from N/2 on; from
    # verify's defaults (x0 all ones, regime 1, seed 12345, 20 controls,
    # 10000 paths) every perturbation costs more and the Euler bias stays
    # within budget, but some state at a late node in regime 2 is cheaper
    # under each perturbation
    spec, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    ric, _ = _solved(spec)
    law = ric.Theta_bar.copy()
    law[spec.grid.steps // 2:, 1] += 0.1
    wrong = dataclasses.replace(ric, Theta_bar=law)
    x0, seed = np.ones(spec.n), 12345
    assert pointwise_rows(spec, wrong, 0.0, 0, x0, seed).all_passed
    report = certify(spec, wrong, 0.0, 0, x0, 10000, seed, 20)
    assert report["value_mc_vs_function"].passed
    for row in _PERTURBATION_ROWS:
        assert not report[row].passed
        assert report[row].details["regime"] == 1
        assert report[row].details["node"] >= spec.grid.steps // 2


def test_eta_certified_by_mc_value_differences():
    # V(t, x) - V(t, -x) = 4 <eta(t, i), x>: isolates the offset from both
    # the quadratic term and the value constant
    spec = benchmarks.two_regime_inhomogeneous(steps=200)
    ric, aff = _solved(spec)
    x = np.array([1.0])
    plus = mc_value(spec, ric.Theta_bar, 0.0, 0, x, 20000, 41)
    minus = mc_value(spec, ric.Theta_bar, 0.0, 0, -x, 20000, 42)
    got = 0.25 * (plus.mean - minus.mean)
    want = float(aff.eta[0, 0] @ x)
    se = 0.25 * np.hypot(plus.std_error, minus.std_error)
    assert abs(got - want) <= 3.0 * se + 5.0 * spec.grid.h * max(1.0, abs(want))


# ------------------------------------------------------ m0 crosscheck


def test_m0_exact_identity_case():
    spec = benchmarks.two_regime_standard(steps=20)
    spec = dataclasses.replace(
        spec,
        A=np.zeros_like(spec.A), C=np.zeros_like(spec.C),
        Q=np.zeros_like(spec.Q),
        G=np.broadcast_to(np.eye(2), spec.G.shape).copy(),
    )
    check = _certified(spec)["m0_feynman_kac_vs_ode"]
    assert check.passed
    assert check.details["max_abs_diff"] <= 1e-12


def test_m0_scalar_exponential():
    a = 0.5
    spec = benchmarks.scalar_benchmark(steps=300)
    spec = dataclasses.replace(
        spec, A=np.full_like(spec.A, a), Q=np.zeros_like(spec.Q)
    )
    report = _rows(_certified(spec), "m0_")
    assert report.all_passed
    # the Euler second moment (1 + ha)^2N = 1 + 2aT - O(h) undershoots e^2aT
    diff = report["m0_feynman_kac_vs_ode"].details["max_abs_diff"]
    want = np.exp(2.0 * a) - (1.0 + a / 300) ** 600
    assert diff == pytest.approx(want, rel=1e-3)


def test_m0_two_regime_coupled():
    report = _rows(_certified(benchmarks.two_regime_standard(steps=200), i0=1), "m0_")
    assert report.all_passed


# --------------------------------------------------------- Euler bias


@pytest.mark.parametrize("name", ["scalar", "standard", "two_regime", "dead_channel"])
def test_euler_bias_is_small_and_first_order(name):
    spec = parse_problem(PROBLEMS / f"{name}.yaml")[0]
    biases = []
    for steps in (spec.grid.steps, 2 * spec.grid.steps):
        check = _certified(spec.with_steps(steps), paths=1)["euler_bias"]
        assert check.passed
        assert check.statistic <= 0.1 * check.tolerance
        biases.append(check.details["bias"])
    if name == "scalar":  # Euler is exact here to rounding
        assert max(map(abs, biases)) <= 1e-12
    else:  # halving h halves the bias
        assert 1.8 < biases[0] / biases[1] < 2.2


# -------------------------------------------------- exact identities


def test_completion_of_squares_identity():
    spec = benchmarks.state_decoupled(steps=250)
    ric, aff = _solved(spec)
    rng = np.random.default_rng(33)
    u = rng.normal(size=(251, 1))
    x0 = np.array([0.8])
    # one seed: the control u and the feedback law meet the same path
    reg, x_u, u_u = _one_path(spec, _open_loop_table(spec, u), x0, 1)
    opt = _one_path(spec, ric.Theta_bar, x0, 1)
    assert np.array_equal(u_u, u)
    gap = evaluate_cost(spec, reg, x_u, u_u) - evaluate_cost(spec, *opt)

    idx = np.arange(spec.grid.steps + 1)
    dev = (
        u_u
        - np.einsum("kij,kj->ki", ric.Theta[idx, reg], x_u)
        - aff.v_star[idx, reg]
    )
    quad = np.einsum(
        "ki,kij,kj->k", dev, ric.R_hat[idx, reg], dev
    )
    h = spec.grid.h
    want = h * (quad.sum() - 0.5 * (quad[0] + quad[-1]))
    assert abs(gap - want) <= 1e-6 * max(1.0, abs(want))


def test_report_serialization_shape():
    report = _certified(benchmarks.two_regime_standard(steps=40))
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "check,statistic,tolerance,pass"
    assert len(lines) == 1 + len(report.checks)
    assert "PASS" in report.summary() or "FAIL" in report.summary()


# ------------------------------------------------------------ certify


@pytest.mark.parametrize("i0", [-1, 2])
def test_an_initial_regime_outside_the_chain_is_rejected(i0):
    # i0 = -1 would start the chain in no regime, and the row take of the
    # Euler loop would read another row's blocks; i0 = D indexes past the
    # regimes
    spec = benchmarks.two_regime_inhomogeneous(steps=100)
    assert i0 in (-1, spec.n_regimes)
    ric, _ = _solved(spec)
    x0, rng = np.array([0.5]), np.random.default_rng(3)
    calls = {
        "_sample_regime_paths": lambda: _sample_regime_paths(spec.gen, spec.grid, i0, 1, rng),
        "mc_value": lambda: mc_value(spec, ric.Theta_bar, 0.0, i0, x0, 2000, 3),
        "certify": lambda: certify(spec, ric, 0.0, i0, x0, 50, 3, 2),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"i0 = {i0} is not in 0\.\.1"):
            call()
            pytest.fail(f"{name} accepted i0 = {i0}")
    one = Generator.constant([[0.0]], spec.grid)  # no jump could leave regime 3
    with pytest.raises(ValueError, match=r"i0 = 3 is not in 0\.\.0"):
        _sample_regime_paths(one, spec.grid, 3, 1, rng)



@pytest.mark.parametrize("i", [-1, 2])
def test_a_regime_outside_the_chain_is_rejected_by_the_pointwise_api(i):
    # regime -1 would read regime D - 1, and regime D index past the stack
    spec = benchmarks.two_regime_inhomogeneous(steps=100)
    ric, aff = _solved(spec)
    x = np.array([0.5])
    calls = {
        "gain_at": lambda: ric.gain_at(0.3, i),
        "value_function": lambda: value_function(ric, aff, 0.3, i, x),
        "feedback_at": lambda: feedback_at(ric, aff, 0.3, i, x),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"regime i = {i} is not in 0\.\.1"):
            call()
            pytest.fail(f"{name} accepted regime {i}")


def test_an_initial_state_of_the_wrong_length_is_rejected():
    # a one-entry x0 on a problem with n = 2 would be broadcast to [x, x]
    spec, _ = parse_problem(PROBLEMS / "standard.yaml")
    ric, _ = _solved(spec)
    open_loop = _open_loop_table(spec, np.zeros((spec.grid.steps + 1, spec.m)))
    calls = {
        "mc_value": lambda x0: mc_value(spec, ric.Theta_bar, 0.0, 0, x0, 2000, 3),
        "mc_value open loop": lambda x0: mc_value(spec, open_loop, 0.0, 0, x0, 2, 3, keep=2),
        "certify": lambda x0: certify(spec, ric, 0.0, 0, x0, 50, 3, 2),
    }
    for name, call in calls.items():
        for x0 in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match=r"x0 has shape .*, the problem has n = 2"):
                call(x0)
                pytest.fail(f"{name} accepted x0 = {x0}")


@pytest.mark.parametrize("which, third", [
    ("standard", False), ("two_regime", False), ("two_regime", True), ("dead_channel", False),
])
def test_certify_matches_one_law_per_call(which, third):
    # the three stacked pricings give every statistic and detail bit for
    # bit as one call per law, and the zero-law slice of the Lyapunov
    # stack as the zero-gain solve of the problem itself
    spec, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    ric, _ = _solved(spec)
    t0 = spec.grid.nodes()[spec.grid.steps // 3 if third else 0]
    args = (spec, ric, t0, spec.n_regimes - 1, np.linspace(0.5, 1.5, spec.n), 300, 5, 4)
    got, want = certify(*args), certify_one_law_per_call(*args)
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for row, ref in zip(got.checks, want.checks):
        assert row == ref, row.name


def test_verify_prices_every_row_in_three_stacked_calls(monkeypatch, tmp_path):
    # one Lyapunov stack and two Euler recursions, on the problem and on
    # its one homogeneous copy, sharing one table of cell transitions, and
    # no sample path but those of the Monte-Carlo value
    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        # every module that imported the function by name calls it there
        for module in [m for k, m in sys.modules.items() if k.startswith("regimelq")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
        if owner is ProblemSpec:
            monkeypatch.setattr(owner, name, counted)

    count(riccati, "solve_lyapunov")
    count(sim, "_expected_values")
    count(sim, "_cell_transitions")
    count(ProblemSpec, "homogeneous")
    count(sim, "_sample_regime_paths")
    code = main(["verify", "--problem", str(PROBLEMS / "standard.yaml"), "--paths", "500",
                 "--seed", "3", "--threads", "1", "--out", str(tmp_path)])
    assert code == 0
    # the one sampled row, mc_value's value, draws its paths in one batch
    assert calls == {"solve_lyapunov": 1, "_expected_values": 2, "_cell_transitions": 1,
                     "homogeneous": 1, "_sample_regime_paths": 1}


def _per_node(spec):
    """``spec`` with every node-constant running field and the generator
    rates copied out to one C-ordered sample per node."""
    return dataclasses.replace(
        spec, gen=Generator(np.array(spec.gen.rates)),
        **{name: np.array(getattr(spec, name)) for name in _RUNNING_FIELDS})


@pytest.mark.parametrize("which", ["standard", "two_regime", "dead_channel"])
def test_per_node_expansion_gives_the_same_bits(which):
    # a node-constant field is one stride-0 sample, a per-node one is not;
    # every product must round alike on both layouts, for one law and for
    # a stack of laws, as verify builds
    const, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    expanded = _per_node(const)
    assert const.A.strides[0] == 0 and expanded.A.strides[0] != 0
    x0, i0 = np.linspace(0.5, 1.5, const.n), const.n_regimes - 1
    rng = np.random.default_rng(31)
    shape = (3, const.grid.steps + 1, const.n_regimes, const.m)
    d_theta, d_v = rng.uniform(-0.3, 0.3, (*shape, const.n)), rng.uniform(-0.3, 0.3, shape)
    d_bar = np.concatenate([d_theta, d_v[..., None]], axis=-1)
    results = []
    for spec in (const, expanded):
        ric, _ = _solved(spec)
        tables = _closed_loop_tables(spec, ric.Theta_bar)
        h_tables = _closed_loop_tables(
            spec.homogeneous(), _open_loop_table(spec, np.ones((spec.grid.steps + 1, spec.m))))
        laws = _closed_loop_tables(spec, ric.Theta_bar + d_bar)
        costs, _, _ = sim._path_costs(spec, tables, x0, i0, 0, 700, (4,))
        report = certify(spec, ric, spec.grid.t0, i0, x0, 300, 5, 4)
        results.append([ric.P_bar, ric.Theta_bar, tables.W, h_tables.W, laws.W, costs,
                        report.to_csv().encode()])
    for got, want in zip(*results):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
