"""Certification checks: stationarity, expansion, convexity, value, kernels."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from regimelq import benchmarks
from regimelq.affine import solve_eta, value_function
from regimelq.cli import main
from regimelq.problemfile import parse_problem
from regimelq.riccati import solve_riccati_direct
from regimelq.sim import (
    _cell_transitions,
    _closed_loop_tables,
    _expected_values,
    _open_loop_table,
    brownian_increments,
    evaluate_cost,
    mc_value,
    simulate_chain,
    simulate_closed_loop,
    simulate_policy,
    simulate_state,
)
from regimelq.verify import (
    convexity_probe,
    euler_bias,
    frechet_gradient_check,
    m0_crosscheck,
    stationarity_residual,
    value_consistency,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _solved(spec):
    ric = solve_riccati_direct(spec)
    return ric, solve_eta(spec, ric)


# ------------------------------------------------------- stationarity


def test_stationarity_vanishes_on_closed_loop_path():
    spec = benchmarks.two_regime_inhomogeneous(steps=100)
    ric, aff = _solved(spec)
    chain, path = simulate_closed_loop(
        spec, ric, aff, 0, np.array([1.0]), np.random.default_rng(2)
    )
    res = stationarity_residual(spec, ric, aff, chain, path)
    assert np.abs(res).max() <= 1e-10


def test_stationarity_detects_off_optimal_gain():
    spec = benchmarks.scalar_benchmark(steps=100)
    ric, aff = _solved(spec)
    chain = simulate_chain(spec.gen, spec.grid, 0, np.random.default_rng(3))
    path = simulate_policy(
        spec, chain, ric.Theta + 0.1, aff.v_star, np.array([1.0]),
        np.random.default_rng(3),
    )
    res = stationarity_residual(spec, ric, aff, chain, path)
    assert np.linalg.norm(res, axis=1).max() >= 0.05


def test_stationarity_zero_state_is_exactly_zero():
    spec = benchmarks.two_regime_standard(steps=50)
    ric, aff = _solved(spec)
    spec0 = dataclasses.replace(spec, sigma=np.zeros_like(spec.sigma))
    chain, path = simulate_closed_loop(
        spec0, ric, aff, 1, np.zeros(2), np.random.default_rng(5)
    )
    res = stationarity_residual(spec0, ric, aff, chain, path)
    assert not np.any(res)


# ---------------------------------------------------------- frechet


def test_frechet_zero_direction():
    spec = benchmarks.two_regime_standard(steps=40)
    u = np.zeros((41, 1))
    report = frechet_gradient_check(
        spec, 0.0, 0, np.array([1.0, 0.0]), u, np.zeros((41, 1)),
        (0.1, 0.2), 200, 9,
    )
    res = report["frechet_fit_residual"]
    assert abs(res.details["c1"]) <= 1e-9
    assert abs(res.details["c2"]) <= 1e-9
    assert report.all_passed


def test_frechet_deterministic_exact_quadratic():
    spec = benchmarks.state_decoupled(steps=200)
    rng = np.random.default_rng(21)
    u = rng.normal(size=(201, 1))
    v = rng.normal(size=(201, 1))
    report = frechet_gradient_check(
        spec, 0.0, 0, np.array([0.5]), u, v, (0.05, 0.1, 0.2), 4, 1,
    )
    assert report["frechet_fit_residual"].statistic <= 1e-10
    assert report.all_passed
    c2 = report["frechet_quadratic_coefficient"].details["c2"]
    j0 = report["frechet_quadratic_coefficient"].details["j0_mean"]
    assert abs(c2 - j0) <= 1e-6 * abs(j0)


def test_frechet_linear_term_vanishes_at_feedback_optimum():
    spec = benchmarks.state_decoupled(steps=300)
    ric, aff = _solved(spec)
    _, path = simulate_closed_loop(
        spec, ric, aff, 0, np.array([0.5]), np.random.default_rng(0)
    )
    v = np.random.default_rng(10).normal(size=(301, 1))
    report = frechet_gradient_check(
        spec, 0.0, 0, np.array([0.5]), path.u, v, (0.05, 0.1), 4, 2,
    )
    assert abs(report["frechet_fit_residual"].details["c1"]) <= 1e-6
    assert report["frechet_quadratic_coefficient"].details["c2"] >= 0.0


def test_frechet_quadratic_coefficient_stochastic():
    spec = benchmarks.two_regime_inhomogeneous(steps=80)
    rng = np.random.default_rng(31)
    u = 0.3 * rng.normal(size=(81, 1))
    v = rng.normal(size=(81, 1))
    report = frechet_gradient_check(
        spec, 0.0, 1, np.array([0.7]), u, v, (0.1, 0.2), 2000, 8,
    )
    assert report.all_passed


# --------------------------------------------------------- convexity


def test_convexity_standard_conditions_positive():
    report = convexity_probe(
        benchmarks.two_regime_standard(steps=80), 0.0, 0, 15, 13
    )
    check = report["convexity_nonnegative_ratios"]
    assert check.passed
    assert check.details["eps_hat"] > 0.0
    assert check.statistic == -check.details["eps_hat"]


def test_convexity_flags_negative_control_weight():
    report = convexity_probe(benchmarks.negative_r(steps=80), 0.0, 0, 8, 14)
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
        convexity_probe(spec, t0, 0, n_controls, 3)


@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_convexity_stacked_controls_match_per_control_runs(t0):
    # the probe runs its controls as the laws of one recursion; each law
    # must meet only its own blocks
    spec = benchmarks.two_regime_standard(steps=60)
    stacked = convexity_probe(spec, t0, 1, 7, 21)["convexity_nonnegative_ratios"]
    hspec, k0 = spec.homogeneous(), spec.grid.node_index(t0)
    trans = _cell_transitions(spec.gen, spec.grid)
    u = np.zeros((spec.grid.steps + 1, spec.m))
    single = []
    for c in range(7):
        u[k0:] = np.random.default_rng([21, 31337, c]).normal(size=(spec.grid.steps + 1, spec.m))[k0:]
        sq = np.einsum("ki,ki->k", u, u)
        energy = spec.grid.h * (sq[k0:].sum() - 0.5 * (sq[k0] + sq[-1]))
        tables = _closed_loop_tables(hspec, None, _open_loop_table(hspec, u))
        single.append(_expected_values(tables, trans, k0)[0, 1, -1, -1] / energy)
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
        tables = _closed_loop_tables(spec, None, _open_loop_table(spec, scale * u))
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
    ric, aff = _solved(spec)
    report = value_consistency(spec, ric, aff, 0.0, 0, np.ones(2), 300, 15)
    assert report["value_mc_vs_function"].statistic == 0.0
    assert report.all_passed


def test_value_consistency_scalar_oracle():
    spec = benchmarks.scalar_benchmark(steps=400)
    ric, aff = _solved(spec)
    report = value_consistency(spec, ric, aff, 0.0, 0, np.array([1.0]), 2000, 16)
    assert report.all_passed
    assert report["value_mc_vs_function"].details["value_function"] == pytest.approx(
        0.5, rel=1e-9
    )


def test_value_perturbed_gain_costs_more():
    spec = benchmarks.scalar_benchmark(steps=200)
    ric, aff = _solved(spec)
    chain = simulate_chain(spec.gen, spec.grid, 0, np.random.default_rng(1))
    dw = brownian_increments(spec.grid, np.random.default_rng(2))[0]
    base = simulate_policy(spec, chain, ric.Theta, aff.v_star, np.array([1.0]), dw=dw)
    pert = simulate_policy(
        spec, chain, ric.Theta + 0.5, aff.v_star, np.array([1.0]), dw=dw
    )
    gap = evaluate_cost(spec, chain, pert) - evaluate_cost(spec, chain, base)
    assert gap > 0.0


def test_value_consistency_inhomogeneous_two_regime():
    spec = benchmarks.two_regime_inhomogeneous(steps=200)
    ric, aff = _solved(spec)
    report = value_consistency(spec, ric, aff, 0.0, 0, np.array([0.7]), 4000, 17)
    assert report.all_passed


def test_value_perturbation_rows_catch_a_suboptimal_law():
    # the same seeded perturbations that the optimal law survives find a
    # cheaper law around a shifted one
    spec, _ = parse_problem(PROBLEMS / "two_regime.yaml")
    ric, aff = _solved(spec)
    rows = [f"value_no_improvement_perturbation_{p}" for p in range(1, 6)]
    x0, seed = np.ones(spec.n), 1
    good = value_consistency(spec, ric, aff, 0.0, 0, x0, 50, seed)
    assert all(good[r].passed for r in rows)
    shifted = dataclasses.replace(ric, Theta_bar=ric.Theta_bar + 0.2)
    bad = value_consistency(spec, shifted, aff, 0.0, 0, x0, 50, seed)
    assert not all(bad[r].passed for r in rows)


def test_value_perturbation_rows_pass_where_the_euler_gap_is_negative(tmp_path):
    # at seed 249 perturbation 5 costs 2.9e-6 more than the optimal law in
    # continuous time but 3.7e-6 less under the Euler scheme, for which the
    # continuous-time optimal law is only O(h) optimal
    out = tmp_path / "out"
    main(["verify", "--problem", str(PROBLEMS / "two_regime.yaml"), "--paths", "500",
          "--seed", "249", "--threads", "1", "--out", str(out)])
    rows = [line.split(",") for line in (out / "verification.csv").read_text().splitlines()
            if line.startswith("value_no_improvement_perturbation_")]
    assert len(rows) == 5
    assert all(row[2] == "0" and row[3] == "true" for row in rows), rows
    assert 0.0 < -float(rows[4][1]) < 1e-5


def test_eta_certified_by_mc_value_differences():
    # V(t, x) - V(t, -x) = 4 <eta(t, i), x>: isolates the offset from both
    # the quadratic term and the value constant
    spec = benchmarks.two_regime_inhomogeneous(steps=200)
    ric, aff = _solved(spec)
    x = np.array([1.0])
    plus = mc_value(spec, ric, aff, 0.0, 0, x, 20000, 41)
    minus = mc_value(spec, ric, aff, 0.0, 0, -x, 20000, 42)
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
    report = m0_crosscheck(spec, 0.0, 0)
    check = report["m0_feynman_kac_vs_ode"]
    assert check.passed
    assert check.details["max_abs_diff"] <= 1e-12


def test_m0_scalar_exponential():
    a = 0.5
    spec = benchmarks.scalar_benchmark(steps=300)
    spec = dataclasses.replace(
        spec, A=np.full_like(spec.A, a), Q=np.zeros_like(spec.Q)
    )
    report = m0_crosscheck(spec, 0.0, 0)
    assert report.all_passed
    # the Euler second moment (1 + ha)^2N = 1 + 2aT - O(h) undershoots e^2aT
    diff = report["m0_feynman_kac_vs_ode"].details["max_abs_diff"]
    want = np.exp(2.0 * a) - (1.0 + a / 300) ** 600
    assert diff == pytest.approx(want, rel=1e-3)


def test_m0_two_regime_coupled():
    report = m0_crosscheck(benchmarks.two_regime_standard(steps=200), 0.0, 1)
    assert report.all_passed


# --------------------------------------------------------- Euler bias


@pytest.mark.parametrize("name", ["scalar", "standard", "two_regime", "dead_channel"])
def test_euler_bias_is_small_and_first_order(name):
    spec = parse_problem(PROBLEMS / f"{name}.yaml")[0]
    x0 = np.ones(spec.n)
    biases = []
    for steps in (spec.grid.steps, 2 * spec.grid.steps):
        fine = spec.with_steps(steps)
        ric, aff = _solved(fine)
        check = euler_bias(fine, ric, aff, fine.grid.t0, 0, x0)["euler_bias"]
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
    chain = simulate_chain(spec.gen, spec.grid, 0, np.random.default_rng(0))
    rng = np.random.default_rng(33)
    u = rng.normal(size=(251, 1))
    x0 = np.array([0.8])
    path_u = simulate_state(spec, chain, u, x0, np.random.default_rng(1))
    _, path_opt = simulate_closed_loop(
        spec, ric, aff, 0, x0, np.random.default_rng(1)
    )
    gap = evaluate_cost(spec, chain, path_u) - evaluate_cost(spec, chain, path_opt)

    idx = np.arange(spec.grid.steps + 1)
    reg = chain.alpha
    dev = (
        path_u.u
        - np.einsum("kij,kj->ki", ric.Theta[idx, reg], path_u.X)
        - aff.v_star[idx, reg]
    )
    quad = np.einsum(
        "ki,kij,kj->k", dev, ric.R_hat[idx, reg], dev
    )
    h = spec.grid.h
    want = h * (quad.sum() - 0.5 * (quad[0] + quad[-1]))
    assert abs(gap - want) <= 1e-6 * max(1.0, abs(want))


def test_report_serialization_shape():
    report = m0_crosscheck(benchmarks.two_regime_standard(steps=40), 0.0, 0)
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "check,statistic,tolerance,pass"
    assert len(lines) == 1 + len(report.checks)
    assert "PASS" in report.summary() or "FAIL" in report.summary()
