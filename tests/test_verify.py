"""Certification checks: stationarity, expansion, convexity, value, kernels."""

import collections
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from regimelq import benchmarks, riccati, sim
from regimelq.affine import solve_eta, value_function
from regimelq.cli import main
from regimelq.model import _RUNNING_FIELDS, Generator, ProblemSpec
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
    VerificationReport,
    _stationarity_row,
    certify,
    convexity_probe,
)

from reference import certify_one_law_per_call, frechet_rows, stationarity_residual

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _solved(spec):
    ric = solve_riccati_direct(spec)
    return ric, solve_eta(spec, ric)


def _certified(spec, i0=0, x0=None, paths=50, seed=1, controls=2):
    """certify's report on ``spec`` from its first node, x0 all ones by
    default."""
    ric, aff = _solved(spec)
    x0 = np.ones(spec.n) if x0 is None else x0
    return certify(spec, ric, aff, spec.grid.t0, i0, x0, paths, seed, controls)


def _rows(report, prefix):
    """The rows of ``report`` whose names start with ``prefix``."""
    return VerificationReport([c for c in report.checks if c.name.startswith(prefix)])


# ------------------------------------------------------- stationarity


def test_stationarity_vanishes_on_closed_loop_path():
    spec = benchmarks.two_regime_inhomogeneous(steps=100)
    ric, aff = _solved(spec)
    chain, path = simulate_closed_loop(
        spec, ric, aff, 0, np.array([1.0]), np.random.default_rng(2)
    )
    res = stationarity_residual(spec, ric, aff, chain, path)
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
    chain, path = simulate_closed_loop(
        spec, ric, aff, 0, np.linspace(-0.8, 1.2, spec.n), np.random.default_rng(9))
    got = stationarity_residual(spec, ric, aff, chain, path)
    idx, reg = np.arange(spec.grid.steps + 1), chain.alpha
    x_bar = np.column_stack([path.X, np.ones(idx.size)])
    law = ric.S_bar + ric.R_hat @ ric.Theta_bar
    want = np.einsum("kij,kj->ki", law[idx, reg], x_bar)
    # relative to the size of the terms that cancel at the optimum
    scale = np.linalg.norm(ric.S_bar[idx, reg], axis=(-2, -1)) * np.linalg.norm(x_bar, axis=1)
    assert np.abs(got - want).max() <= 1e-12 * scale.max()
    if shift:
        assert np.abs(want).max() >= 0.01 * scale.max()


# ---------------------------------------------------------- frechet


def test_frechet_zero_direction():
    spec = benchmarks.two_regime_standard(steps=40)
    u = np.zeros((41, 1))
    report = frechet_rows(spec, 0, 0, np.array([1.0, 0.0]), u, np.zeros((41, 1)), (0.1, 0.2))
    res = report["frechet_fit_residual"]
    assert abs(res.details["c1"]) <= 1e-9
    assert abs(res.details["c2"]) <= 1e-9
    assert report.all_passed


def test_frechet_deterministic_exact_quadratic():
    spec = benchmarks.state_decoupled(steps=200)
    rng = np.random.default_rng(21)
    u = rng.normal(size=(201, 1))
    v = rng.normal(size=(201, 1))
    report = frechet_rows(spec, 0, 0, np.array([0.5]), u, v, (0.05, 0.1, 0.2))
    assert report["frechet_fit_residual"].statistic <= 1e-10
    assert report.all_passed
    c2 = report["frechet_quadratic_coefficient"].details["c2"]
    j0 = report["frechet_quadratic_coefficient"].details["j0"]
    assert abs(c2 - j0) <= 1e-6 * abs(j0)


def test_frechet_linear_term_vanishes_at_feedback_optimum():
    spec = benchmarks.state_decoupled(steps=300)
    ric, aff = _solved(spec)
    _, path = simulate_closed_loop(
        spec, ric, aff, 0, np.array([0.5]), np.random.default_rng(0)
    )
    v = np.random.default_rng(10).normal(size=(301, 1))
    report = frechet_rows(spec, 0, 0, np.array([0.5]), path.u, v, (0.05, 0.1))
    assert abs(report["frechet_fit_residual"].details["c1"]) <= 1e-6
    assert report["frechet_quadratic_coefficient"].details["c2"] >= 0.0


def test_frechet_quadratic_coefficient_stochastic():
    spec = benchmarks.two_regime_inhomogeneous(steps=80)
    rng = np.random.default_rng(31)
    u = 0.3 * rng.normal(size=(81, 1))
    v = rng.normal(size=(81, 1))
    report = frechet_rows(spec, 0, 1, np.array([0.7]), u, v, (0.1, 0.2))
    assert report.all_passed


def _frechet_rows_of_verify(spec, ric, aff, seed):
    """The Fréchet rows that ``verify --seed seed`` writes for ``spec``."""
    report = certify(spec, ric, aff, 0.0, 0, np.ones(spec.n), 1, seed, 1)
    return _rows(report, "frechet_")


def test_frechet_quadratic_coefficient_sees_offset_kept_in_homogeneous(monkeypatch):
    # with rho kept, J0(v) gains the term 2 int rho^T v, a shift inside a
    # sampled row's 3 SE allowance but far above the exact row's tolerance
    spec, _ = parse_problem(PROBLEMS / "two_regime.yaml")
    assert np.any(spec.rho)
    ric, aff = _solved(spec)
    assert _frechet_rows_of_verify(spec, ric, aff, 7).all_passed
    drop_rho = type(spec).homogeneous

    def keep_rho(self):
        return dataclasses.replace(drop_rho(self), rho=self.rho)

    monkeypatch.setattr(type(spec), "homogeneous", keep_rho)
    report = _frechet_rows_of_verify(spec, ric, aff, 7)
    assert not report["frechet_quadratic_coefficient"].passed
    assert report["frechet_fit_residual"].passed


@pytest.mark.parametrize("which", ["scalar", "standard", "two_regime", "dead_channel"])
def test_frechet_rows_pass_at_their_exact_tolerances(which):
    spec, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    ric, aff = _solved(spec)
    for seed in range(1, 31, 5):
        report = _frechet_rows_of_verify(spec, ric, aff, seed)
        assert report.all_passed, (seed, report.summary())
        scale = max(1.0, abs(report["frechet_fit_residual"].details["c0"]))
        assert [(c.name, c.tolerance) for c in report.checks] == [
            ("frechet_fit_residual", 1e-9 * scale),
            ("frechet_quadratic_coefficient", 1e-8 * scale),
            ("frechet_linear_vs_centered_difference", 1e-8 * scale),
        ]


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
    report = _rows(_certified(spec, x0=np.array([0.7]), paths=4000, seed=17), "value_")
    assert report.all_passed


def test_value_perturbation_rows_catch_a_suboptimal_law():
    # the same seeded perturbations that the optimal law survives find a
    # cheaper law around a shifted one
    spec, _ = parse_problem(PROBLEMS / "two_regime.yaml")
    ric, aff = _solved(spec)
    rows = [f"value_no_improvement_perturbation_{p}" for p in range(1, 6)]
    x0, seed = np.ones(spec.n), 1
    good = certify(spec, ric, aff, 0.0, 0, x0, 50, seed, 2)
    assert all(good[r].passed for r in rows)
    shifted = dataclasses.replace(ric, Theta_bar=ric.Theta_bar + 0.2)
    bad = certify(spec, shifted, aff, 0.0, 0, x0, 50, seed, 2)
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
    report = _certified(benchmarks.two_regime_standard(steps=40))
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "check,statistic,tolerance,pass"
    assert len(lines) == 1 + len(report.checks)
    assert "PASS" in report.summary() or "FAIL" in report.summary()


# ------------------------------------------------------------ certify


@pytest.mark.parametrize("which, third", [
    ("standard", False), ("two_regime", False), ("two_regime", True), ("dead_channel", False),
])
def test_certify_matches_one_law_per_call(which, third):
    # the three stacked pricings give every statistic and detail bit for
    # bit as one call per law, and the zero-law slice of the Lyapunov
    # stack as the zero-gain solve of the problem itself
    spec, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    ric, aff = _solved(spec)
    t0 = spec.grid.nodes()[spec.grid.steps // 3 if third else 0]
    args = (spec, ric, aff, t0, spec.n_regimes - 1, np.linspace(0.5, 1.5, spec.n), 300, 5, 4)
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
    count(sim, "simulate_closed_loop")
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
    results = []
    for spec in (const, expanded):
        ric, aff = _solved(spec)
        tables = _closed_loop_tables(spec, ric.Theta, aff.v_star)
        h_tables = _closed_loop_tables(
            spec.homogeneous(), None, _open_loop_table(spec, np.ones((spec.grid.steps + 1, spec.m))))
        laws = _closed_loop_tables(spec, ric.Theta + d_theta, aff.v_star + d_v)
        costs = sim._path_costs(spec, tables, x0, i0, 0, 700, (4,))
        report = certify(spec, ric, aff, spec.grid.t0, i0, x0, 300, 5, 4)
        results.append([ric.P_bar, ric.Theta_bar, tables.W, h_tables.W, laws.W, costs,
                        report.to_csv().encode()])
    for got, want in zip(*results):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
