"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict
line per criterion.
"""

import time

import numpy as np
import pytest

from regimelq import benchmarks, matcore
from regimelq.affine import solve_eta, value_function
from regimelq.cli import main
from regimelq.riccati import (
    iterate_strongly_regular,
    solve_lyapunov,
    solve_riccati_direct,
)
from regimelq.sim import (
    _cell_transitions,
    _closed_loop_tables,
    _expected_values,
    _integrate_policy,
    _sample_regime_paths,
    brownian_increments,
    simulate_closed_loop,
)
from regimelq.verify import (
    certify,
    convexity_probe,
    euler_bias_budget,
)

from reference import iterate_one_by_one, quadratic_expansion, stationarity_residual


def _verdict(num: int, ok: bool, desc: str, metric: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc} [{metric}]")
    assert ok, f"criterion {num}: {desc} [{metric}]"


def _solved(spec):
    ric = solve_riccati_direct(spec)
    return ric, solve_eta(spec, ric)


def test_criterion_01_analytic_riccati_oracle():
    spec = benchmarks.scalar_benchmark(steps=1000)
    start = time.perf_counter()
    sol = solve_riccati_direct(spec)
    elapsed = time.perf_counter() - start
    err = np.abs(
        sol.P[:, 0, 0, 0] - benchmarks.scalar_benchmark_solution(spec.grid.nodes())
    ).max()
    ok = err <= 1e-8 and elapsed < 1.0
    _verdict(
        1, ok, "scalar closed-form backward solve",
        f"max err {err:.2e} <= 1e-8, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_02_iteration_equivalence_and_monotonicity():
    worst_gap, worst_eig, worst_iters, same = 0.0, 0.0, 0, True
    for spec in (
        benchmarks.scalar_benchmark(steps=1000),
        benchmarks.two_regime_standard(steps=500),
    ):
        direct = solve_riccati_direct(spec)
        iterated = iterate_strongly_regular(spec, max_iter=30, conv_tol=1e-9)
        worst_iters = max(worst_iters, len(iterated.iteration_trace))
        worst_gap = max(worst_gap, float(np.abs(direct.P - iterated.P).max()))
        # the iterates of the one-by-one loop, whose result the staggered
        # sweeps reproduce bit for bit
        p_ref, _, iterates = iterate_one_by_one(spec, 30, 1e-9)
        same = same and np.array_equal(p_ref, iterated.P_bar)
        for p_prev, p_next in zip(iterates, iterates[1:]):
            diff = 0.5 * (p_prev - p_next)
            diff = diff + np.swapaxes(diff, -1, -2)
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(diff).min()))
    ok = worst_iters <= 30 and worst_gap <= 1e-8 and worst_eig >= -1e-8 and same
    _verdict(
        2, ok, "fixed-point iteration equals direct solve, monotonically",
        f"iters {worst_iters} <= 30, gap {worst_gap:.2e} <= 1e-8, "
        f"min eig {worst_eig:.2e} >= -1e-8, one-by-one loop equal {same}",
    )


def test_criterion_03_regime_decoupling():
    spec = benchmarks.three_regime_decoupled(steps=400)
    joint = solve_riccati_direct(spec)
    gap = 0.0
    for i in range(3):
        single = solve_riccati_direct(benchmarks.single_regime_of(spec, i))
        gap = max(gap, float(np.abs(joint.P[:, i] - single.P[:, 0]).max()))
    ok = gap <= 1e-10
    _verdict(3, ok, "zero coupling reproduces single-regime solves",
             f"sup gap {gap:.2e} <= 1e-10")


def test_criterion_04_feynman_kac_crosscheck():
    # M0_h: the exact Euler-scheme expectation of the zero-control cost;
    # a zero-control Monte-Carlo run must meet its quadratic form, and it
    # must meet the backward solve within the bias budget
    spec = benchmarks.two_regime_standard(steps=500)
    start = time.perf_counter()
    zero = np.zeros((spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n + 1))
    tables = _closed_loop_tables(spec.homogeneous(), zero)
    m0_h = _expected_values(tables, _cell_transitions(spec.gen, spec.grid))[0, 0, :2, :2]
    rng = np.random.default_rng(2024)
    alpha = _sample_regime_paths(spec.gen, spec.grid, 0, 10000, rng)
    dw = brownian_increments(spec.grid, rng, 10000)
    z_max = 0.0
    for x0 in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        costs = _integrate_policy(tables, alpha, np.array(x0), dw)
        se = costs.std(ddof=1) / np.sqrt(costs.size)
        z_max = max(z_max, abs(costs.mean() - x0 @ m0_h @ x0) / se)
    elapsed = time.perf_counter() - start
    ode = solve_lyapunov(spec)[0, 0]
    budget = euler_bias_budget(spec.grid.h, scale=float(np.abs(ode).max()))
    gap = float(np.abs(m0_h - ode).max())
    ok = gap <= budget and z_max <= 4.5 and elapsed < 30.0
    _verdict(
        4, ok, "path-functional matrix estimate meets the backward solve",
        f"exact gap {gap:.2e} <= budget {budget:.2e}, MC max |z| {z_max:.2f} <= 4.5, "
        f"runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_05_value_consistency_with_perturbations():
    cases = (
        ("scalar", benchmarks.scalar_benchmark(steps=1000), np.array([1.0]), 0),
        (
            "two-regime inhomogeneous",
            benchmarks.two_regime_inhomogeneous(steps=500),
            np.array([0.7]),
            1,
        ),
    )
    all_ok, metrics = True, []
    for label, spec, x0, i0 in cases:
        ric, _ = _solved(spec)
        report = certify(spec, ric, spec.grid.t0, i0, x0, 10000, 515, 2)
        value_rows = [c for c in report.checks if c.name.startswith("value_")]
        all_ok = all_ok and len(value_rows) == 6 and all(c.passed for c in value_rows)
        main_check = report["value_mc_vs_function"]
        metrics.append(
            f"{label}: |mc-V| {main_check.statistic:.2e} <= {main_check.tolerance:.2e}, "
            f"no perturbation cheaper at any node or regime"
        )
    _verdict(5, all_ok, "closed-loop MC matches value; no perturbation wins",
             "; ".join(metrics))


def test_criterion_06_stationarity_residual():
    instances = (
        benchmarks.scalar_benchmark(steps=1000),
        benchmarks.two_regime_standard(steps=500),
        benchmarks.two_regime_inhomogeneous(steps=500),
        benchmarks.three_regime_decoupled(steps=400),
        benchmarks.state_decoupled(steps=400),
    )
    worst, all_ok = 0.0, True
    for spec in instances:
        ric, aff = _solved(spec)
        chain, path = simulate_closed_loop(
            spec, ric, 0, np.full(spec.n, 0.8), np.random.default_rng(66)
        )
        res = float(
            np.linalg.norm(
                stationarity_residual(spec, ric, aff, chain, path), axis=1
            ).max()
        )
        worst = max(worst, res)
        all_ok = all_ok and res <= 1e-6 + 10.0 * spec.grid.h
    _verdict(6, all_ok, "first-order residual vanishes along closed loop",
             f"worst residual {worst:.2e} <= 1e-6 + 10h")


def test_criterion_07_quadratic_expansion():
    spec = benchmarks.state_decoupled(steps=400)
    ric, _ = _solved(spec)
    x0 = np.array([0.5])
    _, path = simulate_closed_loop(
        spec, ric, 0, x0, np.random.default_rng(77)
    )
    v_dir = np.random.default_rng(78).normal(size=(spec.grid.steps + 1, spec.m))
    fit = quadratic_expansion(spec, 0, 0, x0, path.u, v_dir, (0.05, 0.1, 0.2))
    fit_resid = fit["fit_residual"]
    rel_quad = abs(fit["c2"] - fit["j0"]) / abs(fit["j0"])
    lin = abs(fit["c1"])
    ok = fit_resid <= 1e-10 and rel_quad <= 1e-6 and lin <= 1e-6
    _verdict(
        7, ok, "noise-free cost is exactly quadratic, stationary at optimum",
        f"fit residual {fit_resid:.2e} <= 1e-10, quad rel err {rel_quad:.2e} "
        f"<= 1e-6, linear coeff {lin:.2e} <= 1e-6",
    )


def test_criterion_08_convexity_probes():
    good = convexity_probe(
        benchmarks.two_regime_standard(steps=200), 0.0, 50, 88
    )["convexity_nonnegative_ratios"]
    bad = convexity_probe(
        benchmarks.negative_r(steps=200), 0.0, 10, 89
    )["convexity_nonnegative_ratios"]
    ok = (
        good.passed
        and good.details["eps_hat"] > 0.0
        and bad.details["flagged_nonconvex"]
        and bad.details["eps_hat"] < 0.0
    )
    _verdict(
        8, ok, "convexity probe separates definite from indefinite weights",
        f"eps_hat {good.details['eps_hat']:.3f} > 0 over 50 controls; "
        f"indefinite instance flagged with ratio {bad.details['eps_hat']:.3f}",
    )


def test_criterion_09_kernel_properties():
    rng = np.random.default_rng(909)
    penrose_ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        lam = rng.uniform(0.5, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        if rng.uniform() < 0.4 and dim > 1:
            lam[: int(rng.integers(1, dim))] = 0.0  # rank-deficient
        m = q @ (lam[:, None] * q.T)  # symmetric, indefinite
        _, mp = matcore.pinv(m)
        tol = 1e-8 * (1.0 + np.linalg.norm(m))
        penrose_ok = penrose_ok and (
            np.linalg.norm(m @ mp @ m - m) <= tol
            and np.linalg.norm(mp @ m @ mp - mp) <= tol
            and np.linalg.norm((m @ mp).T - m @ mp) <= tol
            and np.linalg.norm((mp @ m).T - mp @ m) <= tol
        )
    range_ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        rank = int(rng.integers(0, dim + 1))
        w = rng.normal(size=(dim, rank))
        r_mat = w @ w.T
        if rng.uniform() < 0.5:
            s = r_mat @ rng.normal(size=(dim, 2))
        else:
            s = rng.normal(size=(dim, 2))
        oracle = np.linalg.matrix_rank(np.hstack([r_mat, s]), tol=1e-8) == (
            np.linalg.matrix_rank(r_mat, tol=1e-8)
        )
        _, outside = matcore.outside_range(r_mat, matcore.pinv(r_mat)[1], s, 1e-8)
        range_ok = range_ok and bool(outside) == (not oracle)
    ok = penrose_ok and range_ok
    _verdict(
        9, ok, "pseudo-inverse axioms and range test vs rank oracle",
        "100 random symmetric matrices incl. rank-deficient and indefinite; "
        "100 range instances",
    )


def test_criterion_10_reproducible_verification(tmp_path):
    problem = tmp_path / "problem.yaml"
    benchmarks.write_example(problem, "two_regime")
    bodies = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = main(
            [
                "verify", "--problem", str(problem), "--out", str(out),
                "--steps", "100", "--paths", "300", "--controls", "3",
                "--seed", "4242", "--threads", "2",
            ]
        )
        assert code == 0
        body = {}
        for name in ("verification.csv", "riccati.csv", "affine.csv"):
            body[name] = "\n".join(
                line
                for line in (out / name).read_text().splitlines()
                if not line.startswith("#")
            )
        bodies.append(body)
    ok = bodies[0] == bodies[1]
    _verdict(
        10, ok, "repeated verification runs are byte-identical",
        "CSV bodies equal (metadata comment line excluded)",
    )
