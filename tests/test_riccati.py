"""Backward solver oracles: closed forms, decoupling, iteration behavior."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from regimelq import benchmarks, riccati
from regimelq.affine import solve_eta
from regimelq.matcore import InvalidInputError, symmetrize
from regimelq.model import Generator, TimeGrid, _hats, coeff_at
from regimelq.riccati import (
    DivergenceError,
    NotStronglyRegularError,
    iterate_strongly_regular,
    riccati_rhs,
    rk4_backward,
    solve_lyapunov,
    solve_riccati_direct,
)


# ---------------------------------------------------------------- rhs


def test_rhs_scalar_quadratic_term():
    spec = benchmarks.scalar_benchmark(steps=4)
    co = coeff_at(spec, 0.5, 0)
    for p in (0.3, 1.0, -2.0):
        got = riccati_rhs(co, np.array([[[p]]]), 0, np.array([0.0]))
        assert got[0, 0] == pytest.approx(p * p, rel=1e-12)


def test_rhs_reduces_to_linear_form_without_gain_channels():
    spec = benchmarks.two_regime_standard(steps=4)
    spec = dataclasses.replace(
        spec,
        B=np.zeros_like(spec.B),
        D=np.zeros_like(spec.D),
        S=np.zeros_like(spec.S),
    )
    co = coeff_at(spec, 0.25, 0)
    rng = np.random.default_rng(0)
    p_all = rng.normal(size=(2, 2, 2))
    p_all = p_all + np.swapaxes(p_all, -1, -2)
    lam_row = spec.gen.rates[0, 0]
    got = riccati_rhs(co, p_all, 0, lam_row)
    p0 = p_all[0]
    want = -(
        p0 @ co.A + co.A.T @ p0 + co.C.T @ p0 @ co.C + co.Q
        + lam_row[0] * p_all[0] + lam_row[1] * p_all[1]
    )
    assert np.allclose(got, 0.5 * (want + want.T), atol=1e-13)


def test_rhs_all_zero_data():
    spec = benchmarks.scalar_benchmark(steps=4)
    spec = dataclasses.replace(
        spec, B=np.zeros_like(spec.B), R=np.zeros_like(spec.R)
    )
    co = coeff_at(spec, 0.0, 0)
    got = riccati_rhs(co, np.zeros((1, 1, 1)), 0, np.array([0.0]))
    assert np.array_equal(got, np.zeros((1, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("regime", [0, 1])
def test_rhs_rejects_non_finite_matrix(bad, regime):
    # D = 0 keeps the control weight composite finite, so only the input
    # check can catch the bad entry
    spec = benchmarks.two_regime_standard(steps=4)
    spec = dataclasses.replace(spec, D=np.zeros_like(spec.D))
    co = coeff_at(spec, 0.25, 0)
    p_all = np.stack([np.eye(2), np.eye(2)])
    p_all[regime, 0, 1] = bad
    with pytest.raises(InvalidInputError):
        riccati_rhs(co, p_all, 0, spec.gen.rates[0, 0])


def _time_varying(spec):
    """``spec`` with A, C, S and R varying along the grid."""
    ramp = np.linspace(0.0, 1.0, spec.grid.steps + 1)[:, None, None, None]
    return dataclasses.replace(
        spec, A=spec.A * (1.0 + ramp), C=spec.C - 0.5 * ramp * spec.C,
        S=spec.S + 0.3 * ramp, R=spec.R * (1.0 + 0.5 * ramp),
    )


@pytest.mark.parametrize("which", ["standard", "time_varying"])
def test_lyapunov_table_rhs_matches_explicit_form(which):
    spec = benchmarks.two_regime_standard(steps=8)
    if which == "time_varying":
        spec = _time_varying(benchmarks.two_regime_inhomogeneous(steps=8))
    rng = np.random.default_rng(17)
    n_nodes, d, m, n = spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n
    theta = rng.normal(size=(n_nodes, d, m, n))
    tables = riccati._lyapunov_tables((*riccati._sweep_coefs(spec), theta))
    for k in range(n_nodes):
        p = symmetrize(rng.normal(size=(d, n, n)))
        a, b, c, dd, q, s, r, lam = (x[k] for x in riccati._sweep_coefs(spec))
        th = theta[k]
        s_hat, r_hat = _hats(b, dd, c, s, r, p)
        lin = p @ a + np.swapaxes(a, -1, -2) @ p + np.swapaxes(c, -1, -2) @ p @ c + q
        lin += np.einsum("ik,kab->iab", lam, p)
        st = np.swapaxes(s_hat, -1, -2) @ th
        want = -(lin + st + np.swapaxes(st, -1, -2) + np.swapaxes(th, -1, -2) @ r_hat @ th)
        got = riccati._lyapunov_rhs(tuple(x[k] for x in tables), p)
        assert np.abs(got - symmetrize(want)).max() <= 1e-13 * max(1.0, np.abs(want).max())


# ---------------------------------------------------------- lyapunov


def test_lyapunov_constant_solution():
    grid = TimeGrid(0.0, 1.0, 16)
    gen = Generator.constant([[0.0]], grid)
    spec = benchmarks.scalar_benchmark(steps=16)
    spec = dataclasses.replace(spec, gen=gen, B=np.zeros_like(spec.B))
    sol = solve_lyapunov(spec)
    assert np.array_equal(sol.P, np.ones_like(sol.P))


def test_lyapunov_exponential_closed_form():
    a = 0.7
    steps = 400
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[0.0]], grid)
    spec = benchmarks.scalar_benchmark(steps=steps)
    a_arr = np.full_like(spec.A, a)
    spec = dataclasses.replace(spec, gen=gen, A=a_arr, B=np.zeros_like(spec.B))
    sol = solve_lyapunov(spec)
    want = np.exp(2.0 * a * (1.0 - grid.nodes()))
    assert np.abs(sol.P[:, 0, 0, 0] - want).max() < 1e-10


def test_lyapunov_time_varying_closed_form():
    # dP/dt = -2 a(t) P with a(t) = 0.7 - 1.2 t: P(t) = exp(2 int_t^T a),
    # so a node or midpoint sample taken from the wrong place shows
    steps = 400
    spec = benchmarks.scalar_benchmark(steps=steps)
    t = spec.grid.nodes()
    spec = dataclasses.replace(spec, A=(0.7 - 1.2 * t)[:, None, None, None])
    sol = solve_lyapunov(spec)
    want = np.exp(2.0 * (0.7 * (1.0 - t) - 0.6 * (1.0 - t * t)))
    assert np.abs(sol.P[:, 0, 0, 0] - want).max() < 1e-10


def test_lyapunov_identical_regimes_stay_identical():
    base = benchmarks.two_regime_inhomogeneous(steps=50)
    # duplicate regime 0's data into regime 1, keep nonzero coupling
    kw = {}
    for name in ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "q", "rho"):
        arr = getattr(base, name).copy()
        arr[:, 1] = arr[:, 0]
        kw[name] = arr
    g_arr = base.G.copy()
    g_arr[1] = g_arr[0]
    gv = base.g.copy()
    gv[1] = gv[0]
    spec = dataclasses.replace(base, G=g_arr, g=gv, **kw)
    sol = solve_lyapunov(spec)
    assert np.array_equal(sol.P[:, 0], sol.P[:, 1])


def test_lyapunov_terminal_condition_exact():
    spec = benchmarks.two_regime_standard(steps=12)
    sol = solve_lyapunov(spec)
    assert np.array_equal(sol.P[-1], spec.G)


# ------------------------------------------------------ direct solve


def test_direct_scalar_analytic_oracle():
    spec = benchmarks.scalar_benchmark(steps=1000)
    start = time.perf_counter()
    sol = solve_riccati_direct(spec)
    elapsed = time.perf_counter() - start
    want = benchmarks.scalar_benchmark_solution(spec.grid.nodes())
    assert np.abs(sol.P[:, 0, 0, 0] - want).max() <= 1e-8
    assert sol.classification.kind == "strongly_regular"
    assert elapsed < 1.0
    # gain is -P for this instance
    assert np.allclose(sol.Theta[:, 0, 0, 0], -sol.P[:, 0, 0, 0], atol=1e-14)


def test_direct_zero_weights_give_zero_solution():
    spec = benchmarks.scalar_benchmark(steps=32)
    spec = dataclasses.replace(spec, G=np.zeros_like(spec.G))
    sol = solve_riccati_direct(spec)
    assert np.array_equal(sol.P, np.zeros_like(sol.P))
    assert np.array_equal(sol.Theta, np.zeros_like(sol.Theta))
    assert sol.classification.kind == "strongly_regular"


def test_direct_decoupled_matches_single_regime_solves():
    spec = benchmarks.three_regime_decoupled(steps=200)
    joint = solve_riccati_direct(spec)
    for i in range(3):
        single = solve_riccati_direct(benchmarks.single_regime_of(spec, i))
        assert np.abs(joint.P[:, i] - single.P[:, 0]).max() <= 1e-10


def test_direct_terminal_and_symmetry():
    spec = benchmarks.two_regime_standard(steps=64)
    sol = solve_riccati_direct(spec)
    assert np.array_equal(sol.P[-1], spec.G)
    assert np.array_equal(sol.P, np.swapaxes(sol.P, -1, -2))


def test_direct_rk4_order_on_oracle():
    # against P(t) = 1/(1 + T - t), each halving of the step must divide
    # the sup-norm error by about 2^4 (observed order 4)
    errs = []
    for steps in (10, 20, 40, 80):
        spec = benchmarks.scalar_benchmark(steps=steps)
        sol = solve_riccati_direct(spec)
        want = benchmarks.scalar_benchmark_solution(spec.grid.nodes())
        errs.append(np.abs(sol.P[:, 0, 0, 0] - want).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders >= 3.7) & (orders <= 4.3)), orders


def test_rk4_backward_guards_every_sweep():
    grid = TimeGrid(0.0, 1.0, 200)
    # dy/dt = -y^2 from y(T) = 4 escapes backward at t = T - 1/4
    with pytest.raises(DivergenceError) as err:
        rk4_backward(lambda c, y: -y * y, np.array([4.0]), [], grid)
    assert abs(err.value.t - 0.75) < 0.01
    # a non-finite derivative is caught on the first step
    with pytest.raises(DivergenceError) as err:
        rk4_backward(lambda c, y: np.full_like(y, np.nan), np.zeros(3), [], grid)
    assert err.value.node == grid.steps - 1


def _paths_by_block_size(monkeypatch, spec, block):
    monkeypatch.setattr(riccati, "_BLOCK_STEPS", block)
    direct = solve_riccati_direct(spec)
    aff = solve_eta(spec, direct)
    lyap = solve_lyapunov(spec, direct.Theta)
    return direct.P, lyap.P, aff.eta, aff.value_integral


BLOCK = riccati._BLOCK_STEPS


@pytest.mark.parametrize("steps", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_block_size_does_not_change_paths(monkeypatch, steps):
    spec = _time_varying(benchmarks.two_regime_inhomogeneous(steps=steps))
    blocked = _paths_by_block_size(monkeypatch, spec, BLOCK)
    single = _paths_by_block_size(monkeypatch, spec, 1)
    for got, want in zip(single, blocked):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("block", [1, BLOCK])
def test_blowup_node_independent_of_block_size(monkeypatch, block):
    monkeypatch.setattr(riccati, "_BLOCK_STEPS", block)
    with pytest.raises(DivergenceError) as err:
        solve_riccati_direct(benchmarks.scalar_blowup(steps=1000, g_term=4.0))
    assert err.value.node == 749


def test_lyapunov_tables_stay_blocked():
    # tables over all N steps at once would hold several copies of the path
    spec = benchmarks.two_regime_standard(steps=20000)
    tracemalloc.start()
    try:
        sol = solve_lyapunov(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sol.P.nbytes, peak / sol.P.nbytes


def test_direct_blowup_reports_first_bad_node():
    spec = benchmarks.scalar_blowup(steps=1000, g_term=4.0)
    with pytest.raises(DivergenceError) as err:
        solve_riccati_direct(spec)
    # escape is 1/G back from the horizon: t* = 1 - 0.25
    assert abs(err.value.t - 0.75) < 0.01


def test_direct_indefinite_classification():
    sol = solve_riccati_direct(benchmarks.negative_r(steps=50))
    assert sol.classification.kind == "not_regular"
    assert "indefinite" in sol.classification.reason


# --------------------------------------------------------- iteration


def test_iteration_scalar_matches_analytic():
    spec = benchmarks.scalar_benchmark(steps=500)
    sol = iterate_strongly_regular(spec, max_iter=30, conv_tol=1e-10)
    want = benchmarks.scalar_benchmark_solution(spec.grid.nodes())
    assert np.abs(sol.P[:, 0, 0, 0] - want).max() <= 1e-8
    deltas = sol.iteration_trace
    assert all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:]))
    assert sol.iterates is None
    assert np.array_equal(sol.P[-1], spec.G)
    assert np.array_equal(sol.P, np.swapaxes(sol.P, -1, -2))


def test_iteration_fixed_point_without_gain_channels():
    spec = benchmarks.two_regime_standard(steps=32)
    spec = dataclasses.replace(
        spec,
        B=np.zeros_like(spec.B),
        D=np.zeros_like(spec.D),
        S=np.zeros_like(spec.S),
    )
    sol = iterate_strongly_regular(spec, conv_tol=1e-12)
    assert len(sol.iteration_trace) == 1
    assert sol.iteration_trace[0] == 0.0


def test_iteration_agrees_with_direct_on_standard_conditions():
    spec = benchmarks.two_regime_standard(steps=300)
    direct = solve_riccati_direct(spec)
    iterated = iterate_strongly_regular(spec, max_iter=30, conv_tol=1e-9)
    assert np.abs(direct.P - iterated.P).max() <= 10 * 1e-9
    assert iterated.classification.kind == "strongly_regular"


def test_iteration_monotone_decrease():
    spec = benchmarks.two_regime_standard(steps=120)
    sol = iterate_strongly_regular(spec, conv_tol=1e-10, keep_iterates=True)
    for p_prev, p_next in zip(sol.iterates, sol.iterates[1:]):
        diff = p_prev - p_next
        min_eig = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, -1, -2)))
        assert min_eig.min() >= -1e-8


def test_iteration_rejects_nonconvex():
    with pytest.raises(NotStronglyRegularError):
        iterate_strongly_regular(benchmarks.negative_r(steps=50))
