"""Chain sampling, state integration, cost evaluation, MC estimators."""

import dataclasses
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regimelq import sim
from regimelq.affine import solve_eta, value_function
from regimelq.matcore import InvalidInputError
from regimelq.model import _RUNNING_FIELDS, Generator, TimeGrid
from regimelq.riccati import (
    BLOWUP_LIMIT, DivergenceError, solve_lyapunov, solve_riccati_direct,
)
from regimelq.sim import (
    _cell_transitions,
    _closed_loop_tables,
    _expected_values,
    _integrate_policy,
    _open_loop_table,
    _sample_regime_paths,
    brownian_increments,
    mc_value,
)
from regimelq.verify import N_PERTURBATIONS, certify

from reference import PROBLEMS, bundled, cell_transitions_loop, evaluate_cost, state_blowup


def _solved(spec):
    ric = solve_riccati_direct(spec)
    return ric, solve_eta(spec, ric)


# ------------------------------------------------------------- chain


def test_chain_absorbing_without_rates():
    grid = TimeGrid(0.0, 1.0, 20)
    gen = Generator.constant([[-0.0, 0.0], [0.0, 0.0]], grid)
    alpha = _sample_regime_paths(gen, grid, 1, 1, np.random.default_rng(0))
    assert np.all(alpha == 1)


def test_chain_single_regime_never_jumps():
    grid = TimeGrid(0.0, 1.0, 10)
    gen = Generator.constant([[0.0]], grid)
    alpha = _sample_regime_paths(gen, grid, 0, 1, np.random.default_rng(1))
    assert np.all(alpha == 0)


def _transition_matrix(q_mat, h):
    """exp(Q h) by its truncated series."""
    trans = np.eye(len(q_mat))
    term = np.eye(len(q_mat))
    for k in range(1, 60):
        term = term @ q_mat * h / k
        trans = trans + term
    return trans


def test_chain_symmetric_two_state_jump_count():
    # exit intensity 1 from both states: the regime differs between two
    # nodes h apart with probability (1 - exp(-2h)) / 2
    grid = TimeGrid(0.0, 1.0, 10)
    gen = Generator.constant([[-1.0, 1.0], [1.0, -1.0]], grid)
    n = 30000
    alpha = _sample_regime_paths(gen, grid, 0, n, np.random.default_rng(99))
    totals = (np.diff(alpha, axis=1) != 0).sum(axis=1)
    want = grid.steps * 0.5 * (1.0 - np.exp(-2.0 * grid.h))
    se = totals.std(ddof=1) / np.sqrt(n)
    assert abs(totals.mean() - want) <= 3.0 * se


def test_chain_compensated_counts_are_martingale():
    # node-to-node switches into j minus their exact compensator
    # sum_k T[alpha_k, j] 1{alpha_k != j}, with T = exp(Q h), have mean 0
    grid = TimeGrid(0.0, 1.0, 100)
    q_mat = np.array([[-1.0, 0.7, 0.3], [0.5, -1.2, 0.7], [0.2, 0.8, -1.0]])
    gen = Generator.constant(q_mat, grid)
    n = 10000
    alpha = _sample_regime_paths(gen, grid, 0, n, np.random.default_rng(17))
    src, dst = alpha[:, :-1], alpha[:, 1:]
    jump_rates = _transition_matrix(q_mat, grid.h) * (1.0 - np.eye(3))
    for j in range(3):
        counts = ((dst == j) & (src != j)).sum(axis=1)
        diff = counts - jump_rates[src, j].sum(axis=1)
        se = diff.std(ddof=1) / np.sqrt(n)
        assert abs(diff.mean()) <= 3.0 * se


def test_chain_occupation_matches_matrix_exponential():
    grid = TimeGrid(0.0, 1.0, 50)
    q_mat = np.array([[-1.0, 0.7, 0.3], [0.5, -1.2, 0.7], [0.2, 0.8, -1.0]])
    gen = Generator.constant(q_mat, grid)
    n = 10000
    occ = np.empty(n, dtype=int)
    for p in range(n):
        occ[p] = _sample_regime_paths(gen, grid, 0, 1, np.random.default_rng([23, p]))[0, -1]
    # oracle: truncated exponential series of the generator
    trans = np.eye(3)
    term = np.eye(3)
    for k in range(1, 60):
        term = term @ q_mat / k
        trans = trans + term
    for j in range(3):
        p_j = trans[0, j]
        se = np.sqrt(p_j * (1.0 - p_j) / n)
        assert abs((occ == j).mean() - p_j) <= 3.0 * se


def test_chain_invariants_and_reproducibility():
    grid = TimeGrid(0.0, 2.0, 40)
    gen = Generator.constant([[-2.0, 2.0], [3.0, -3.0]], grid)
    (a,) = _sample_regime_paths(gen, grid, 0, 1, np.random.default_rng(5))
    (b,) = _sample_regime_paths(gen, grid, 0, 1, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert a.dtype == np.int8 and a.shape == (grid.steps + 1,)
    assert a[0] == 0 and set(a.tolist()) == {0, 1}


# ----------------------------------------------------- batched sampler


def _varying_generator(grid):
    """Three regimes, every rate linear in time (rows sum to zero)."""
    base = np.array([[-1.5, 1.0, 0.5], [0.8, -1.4, 0.6], [0.3, 1.2, -1.5]])
    slope = np.array([[-2.0, 0.5, 1.5], [1.0, -1.0, 0.0], [0.0, 2.5, -2.5]])
    return Generator(base + grid.nodes()[:, None, None] * slope)


def _kolmogorov_marginals(gen, grid, i0, k0, substeps=8):
    """RK4 solution of p' = p Q(t) over the piecewise-linear generator,
    started from regime i0 at node k0; (N + 1, D)."""
    p = np.eye(gen.n_regimes)[i0]
    out = np.tile(p, (grid.steps + 1, 1))
    dt = grid.h / substeps
    for k in range(k0, grid.steps):
        lo, hi = gen.rates[k], gen.rates[k + 1]

        def q(w):
            return (1.0 - w) * lo + w * hi

        for j in range(substeps):
            w0, wm, w1 = j / substeps, (j + 0.5) / substeps, (j + 1) / substeps
            d1 = p @ q(w0)
            d2 = (p + 0.5 * dt * d1) @ q(wm)
            d3 = (p + 0.5 * dt * d2) @ q(wm)
            d4 = (p + dt * d3) @ q(w1)
            p = p + dt / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        out[k + 1] = p
    return out


@pytest.mark.parametrize("k0", [0, 57])
def test_batched_sampler_marginals_match_kolmogorov(k0):
    grid = TimeGrid(0.0, 1.0, 90)
    gen = _varying_generator(grid)
    i0, batches, size = 1, 5, 40000
    rng = np.random.default_rng(2024)
    nodes = np.unique(np.linspace(k0 + 1, grid.steps, 5).astype(int))
    counts = np.zeros((nodes.size, 3))
    for _ in range(batches):
        alpha = _sample_regime_paths(gen, grid, i0, size, rng, k0)
        assert alpha.dtype == np.int8 and alpha.shape == (size, grid.steps + 1)
        assert np.all(alpha[:, :k0 + 1] == i0)
        counts += (alpha[:, nodes, None] == np.arange(3)).sum(axis=0)
    n_paths = batches * size
    want = _kolmogorov_marginals(gen, grid, i0, k0)[nodes]
    assert np.all(want * n_paths > 500)  # normal approximation holds
    z = (counts / n_paths - want) / np.sqrt(want * (1.0 - want) / n_paths)
    assert np.abs(z).max() <= 4.5


def test_batched_sampler_orders_jumps_within_a_cell():
    # a coarse first cell whose generator turns from 0 -> 1 into 1 -> 2:
    # the regime at its end depends on where in the cell candidates fall
    grid = TimeGrid(0.0, 2.0, 2)
    early = np.array([[-4.0, 4.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    late = np.array([[0.0, 0.0, 0.0], [0.0, -4.0, 4.0], [0.0, 0.0, 0.0]])
    gen = Generator(np.stack([early, late, late]))
    n_paths = 40000
    alpha = _sample_regime_paths(gen, grid, 0, n_paths, np.random.default_rng(11))
    want = _kolmogorov_marginals(gen, grid, 0, 0, substeps=64)[1]
    got = (alpha[:, 1, None] == np.arange(3)).mean(axis=0)
    assert np.all(want * n_paths > 500)
    z = (got - want) / np.sqrt(want * (1.0 - want) / n_paths)
    assert np.abs(z).max() <= 4.5


def test_chain_two_node_law_matches_kolmogorov():
    # (alpha_k, alpha_{k+1}) has law p_k(i) T_k[i, j], where T_k[i] is the
    # Kolmogorov solution over cell k started from e_i at node k
    grid = TimeGrid(0.0, 1.0, 10)
    gen = _varying_generator(grid)
    i0, batches, size, cells = 1, 5, 40000, (2, 5, 9)
    rng = np.random.default_rng(31)
    counts = np.zeros((len(cells), 3, 3))
    for _ in range(batches):
        alpha = _sample_regime_paths(gen, grid, i0, size, rng)
        for c, k in enumerate(cells):
            np.add.at(counts[c], (alpha[:, k], alpha[:, k + 1]), 1.0)
    n_paths = batches * size
    p = _kolmogorov_marginals(gen, grid, i0, 0)
    want = np.stack([
        p[k, :, None] * np.stack([_kolmogorov_marginals(gen, grid, i, k)[k + 1] for i in range(3)])
        for k in cells
    ])
    assert np.all(want * n_paths > 500)  # normal approximation holds
    z = (counts / n_paths - want) / np.sqrt(want * (1.0 - want) / n_paths)
    assert np.abs(z).max() <= 4.5


def test_batched_sampler_degenerate_generators():
    grid = TimeGrid(0.0, 1.0, 30)
    rng = np.random.default_rng(3)
    single = _sample_regime_paths(Generator.constant([[0.0]], grid), grid, 0, 50, rng)
    assert single.dtype == np.int8 and not np.any(single)
    frozen = Generator.constant(np.zeros((3, 3)), grid)
    assert np.all(_sample_regime_paths(frozen, grid, 2, 50, rng) == 2)
    assert np.all(_sample_regime_paths(frozen, grid, 2, 50, rng, k0=30) == 2)


@pytest.mark.parametrize("n_regimes, dtype", [(128, np.int8), (129, np.int16), (200, np.int16)])
def test_batched_sampler_index_type_holds_every_regime(n_regimes, dtype):
    # a cycle 0 -> D - 1 -> D - 2 -> ... -> 0 at rate 40 visits the top
    # regimes first, which a type too narrow would wrap to negatives
    grid = TimeGrid(0.0, 1.0, 50)
    q = np.zeros((n_regimes, n_regimes))
    nxt = (np.arange(n_regimes) - 1) % n_regimes
    q[np.arange(n_regimes), nxt] = 40.0
    np.fill_diagonal(q, -40.0)
    gen = Generator.constant(q, grid)
    alpha = _sample_regime_paths(gen, grid, 0, 200, np.random.default_rng(4))
    assert alpha.dtype == dtype
    assert alpha.min() >= 0 and alpha.max() == n_regimes - 1


def test_batched_sampler_holds_regime_where_generator_vanishes():
    grid = TimeGrid(0.0, 2.0, 80)
    gen = _varying_generator(grid)
    mask = np.ones(grid.steps + 1)
    mask[20:41] = 0.0
    gen = Generator(gen.rates * mask[:, None, None])
    alpha = _sample_regime_paths(gen, grid, 0, 4000, np.random.default_rng(8))
    assert np.all(alpha[:, 20:41] == alpha[:, 20:21])
    assert np.any(alpha[:, 20] != 0)            # jumps before the window
    assert np.any(alpha[:, 60] != alpha[:, 40])  # and after it


def test_batched_sampler_reproducible_given_seed():
    grid = TimeGrid(0.0, 1.0, 40)
    gen = _varying_generator(grid)
    a = _sample_regime_paths(gen, grid, 2, 300, np.random.default_rng(5), 7)
    b = _sample_regime_paths(gen, grid, 2, 300, np.random.default_rng(5), 7)
    assert np.array_equal(a, b)
    assert np.any(a != 2)


# ------------------------------------------------------------- state


def _kept(spec, law, x0, seed, keep=1):
    """The paths of a ``keep``-path estimate of ``law`` from x0 in regime 0."""
    return mc_value(spec, law, spec.grid.t0, 0, np.asarray(x0, dtype=float), keep, seed,
                    keep=keep).kept


def test_state_all_zero_coefficients():
    spec = bundled("scalar", 16)
    spec = dataclasses.replace(spec, B=np.zeros_like(spec.B))
    zeroed = dataclasses.replace(
        spec, A=np.zeros_like(spec.A), C=np.zeros_like(spec.C)
    )
    kept = _kept(zeroed, _open_loop_table(zeroed, np.zeros((17, 1))), [2.5], 0)
    assert np.all(kept.X == 2.5)


def test_state_constant_drift_exact():
    spec = bundled("scalar", 20)
    spec = dataclasses.replace(spec, b=np.ones_like(spec.b))
    kept = _kept(spec, _open_loop_table(spec, np.zeros((21, 1))), [0.0], 0)
    assert np.abs(kept.X[0, :, 0] - spec.grid.nodes()).max() < 1e-14


def test_state_linear_drift_euler_error():
    a = 0.8
    steps = 500
    spec = bundled("scalar", steps)
    spec = dataclasses.replace(spec, A=np.full_like(spec.A, a))
    kept = _kept(spec, _open_loop_table(spec, np.zeros((steps + 1, 1))), [1.0], 0)
    want = np.exp(a)
    err = abs(kept.X[0, -1, 0] - want)
    assert err < 2.0 * a * a * np.exp(a) * spec.grid.h  # first-order bound


def test_state_reproducible_given_seed():
    spec = bundled("two_regime", 50)
    law = _open_loop_table(spec, np.full((51, 1), 0.3))
    p1 = _kept(spec, law, [1.0], 8, keep=3)
    p2 = _kept(spec, law, [1.0], 8, keep=3)
    for field in ("alpha", "X", "u", "cost"):
        assert np.array_equal(getattr(p1, field), getattr(p2, field)), field
    assert np.any(p1.alpha != p1.alpha[:, :1])  # the paths switch regime


# ------------------------------------------------------- closed loop


def test_closed_loop_zero_feedback_matches_uncontrolled():
    spec = bundled("standard", 60)
    spec = dataclasses.replace(
        spec,
        G=np.zeros_like(spec.G), Q=np.zeros_like(spec.Q),
        S=np.zeros_like(spec.S),
    )
    ric, _ = _solved(spec)
    assert not np.any(ric.Theta)
    x0 = np.array([1.0, -0.5])
    closed = _kept(spec, ric.Theta_bar, x0, 123, keep=3)
    open_loop = _kept(spec, _open_loop_table(spec, np.zeros((61, 1))), x0, 123, keep=3)
    assert np.array_equal(closed.alpha, open_loop.alpha)
    assert np.array_equal(closed.X, open_loop.X)


def test_closed_loop_zero_initial_state_homogeneous():
    spec = bundled("standard", 40)
    ric, _ = _solved(spec)
    spec_nonoise = dataclasses.replace(spec, sigma=np.zeros_like(spec.sigma))
    kept = _kept(spec_nonoise, ric.Theta_bar, np.zeros(2), 4, keep=2)
    assert not np.any(kept.X)
    assert not np.any(kept.u)


def test_closed_loop_scalar_monotone_decay():
    spec = bundled("scalar", 200)
    ric, _ = _solved(spec)
    kept = _kept(spec, ric.Theta_bar, [1.0], 0)
    assert np.all(np.diff(kept.X[0, :, 0]) < 0)
    assert kept.X[0, -1, 0] > 0


# -------------------------------------------------------------- cost


def _flat_path(spec, x_terminal, u_const):
    """Regime 0 at every node, with a constant state and control."""
    n_nodes = spec.grid.steps + 1
    xs = np.tile(np.asarray(x_terminal, dtype=float), (n_nodes, 1))
    us = np.tile(np.asarray(u_const, dtype=float), (n_nodes, 1))
    return np.zeros(n_nodes, dtype=int), xs, us


def test_cost_zero_weights():
    spec = bundled("scalar", 10)
    spec = dataclasses.replace(
        spec, G=np.zeros_like(spec.G), R=np.zeros_like(spec.R)
    )
    assert evaluate_cost(spec, *_flat_path(spec, [3.0], [1.0])) == 0.0


def test_cost_terminal_only():
    spec = bundled("scalar", 10)
    spec = dataclasses.replace(spec, R=np.zeros_like(spec.R))
    assert evaluate_cost(spec, *_flat_path(spec, [3.0], [0.0])) == pytest.approx(9.0)


def test_cost_running_control_energy():
    spec = bundled("scalar", 10)
    spec = dataclasses.replace(spec, G=np.zeros_like(spec.G))
    assert evaluate_cost(spec, *_flat_path(spec, [0.0], [1.0])) == pytest.approx(1.0)


# ---------------------------------------------------------- mc_value


def test_mc_value_zero_weight_problem():
    spec = bundled("standard", 30)
    spec = dataclasses.replace(
        spec,
        G=np.zeros_like(spec.G), Q=np.zeros_like(spec.Q),
        S=np.zeros_like(spec.S), R=np.zeros_like(spec.R),
    )
    ric, _ = _solved(spec)
    est = mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0, 1.0]), 50, 0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_mc_value_deterministic_problem_zero_se():
    spec = bundled("scalar", 100)
    ric, _ = _solved(spec)
    est = mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0]), 64, 12, keep=1)
    kept = est.kept
    assert est.std_error <= 1e-14
    want = evaluate_cost(spec, kept.alpha[0], kept.X[0], kept.u[0])
    assert est.mean == pytest.approx(want, abs=1e-12)


def test_mc_value_scalar_oracle():
    spec = bundled("scalar", 500)
    ric, _ = _solved(spec)
    est = mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0]), 10000, 31)
    assert abs(est.mean - 0.5) <= 3.0 * est.std_error + 5.0 * spec.grid.h


def test_mc_value_reproducible():
    spec = bundled("two_regime", 60)
    ric, _ = _solved(spec)
    e1 = mc_value(spec, ric.Theta_bar, 0.0, 1, np.array([0.4]), 3000, 77)
    e2 = mc_value(spec, ric.Theta_bar, 0.0, 1, np.array([0.4]), 3000, 77)
    assert e1.mean == e2.mean and e1.std_error == e2.std_error


def test_mc_value_threads_match_serial():
    spec = bundled("two_regime", 40)
    ric, _ = _solved(spec)
    serial = mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0]), 9000, 5, threads=1)
    pooled = mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0]), 9000, 5, threads=4)
    assert serial.mean == pooled.mean


@pytest.mark.parametrize("n_paths", [0, -1])
def test_mc_value_rejects_fewer_than_one_path(n_paths):
    spec = bundled("scalar", 20)
    ric, _ = _solved(spec)
    with pytest.raises(ValueError, match=f"n_paths must be at least 1, got {n_paths}"):
        mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0]), n_paths, 0)


@pytest.mark.parametrize("keep", [-1, 9])
def test_mc_value_keeps_only_its_own_paths(keep):
    spec = bundled("scalar", 20)
    ric, _ = _solved(spec)
    with pytest.raises(ValueError, match=f"keep must lie in 0..8, got {keep}"):
        mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0]), 8, 0, keep=keep)


def test_mc_value_raises_on_exploding_state():
    spec = state_blowup()
    ric, _ = _solved(spec)
    with pytest.raises(DivergenceError, match="diverged at node"):
        mc_value(spec, ric.Theta_bar, 0.0, 0, np.array([1.0]), 8, 0)


# ------------------------------------------------ fused loop vs path form



def _tail(spec, k0):
    """The problem restricted to nodes k0..N."""
    grid = TimeGrid(float(spec.grid.nodes()[k0]), spec.grid.T, spec.grid.steps - k0)
    return dataclasses.replace(
        spec, grid=grid, gen=Generator(spec.gen.rates[k0:]),
        **{name: getattr(spec, name)[k0:] for name in _RUNNING_FIELDS},
    )


def _reference_states(spec, alpha, law, x0, dw, k0):
    """Plain per-node Euler-Maruyama of one path under u = Θx + v, with
    law = [Θ | v]."""
    xs = [np.asarray(x0, dtype=float)]
    for k in range(k0, spec.grid.steps):
        i, x = alpha[k], xs[-1]
        u = law[k, i, :, :-1] @ x + law[k, i, :, -1]
        drift = spec.A[k, i] @ x + spec.B[k, i] @ u + spec.b[k, i]
        diff = spec.C[k, i] @ x + spec.D[k, i] @ u + spec.sigma[k, i]
        xs.append(x + spec.grid.h * drift + dw[k] * diff)
    return np.array(xs)


@pytest.mark.parametrize("problem", ["standard", "two_regime"])
@pytest.mark.parametrize("closed_loop", [True, False])
def test_fused_loop_cost_matches_path_form(problem, closed_loop):
    spec = bundled(problem)
    n_steps = spec.grid.steps
    if closed_loop:
        law = _solved(spec)[0].Theta_bar
    else:
        u = np.random.default_rng(4).normal(size=(n_steps + 1, spec.m))
        law = _open_loop_table(spec, u)
    tables = _closed_loop_tables(spec, law)
    x0 = np.linspace(0.8, -0.6, spec.n)
    n_paths = 6
    for k0 in (0, n_steps // 3, n_steps):
        rng = np.random.default_rng([9, k0])
        alpha = _sample_regime_paths(spec.gen, spec.grid, 1, n_paths, rng, k0)
        dw = brownian_increments(spec.grid, rng, n_paths, k0)
        states = np.zeros((n_paths, n_steps + 1, spec.n))
        loop = _integrate_policy(tables, alpha, x0, dw, k0, states)
        if k0 == n_steps:  # t0 = T: the terminal term alone
            g, g_lin = spec.G[alpha[:, -1]], spec.g[alpha[:, -1]]
            want = np.einsum("i,pij,j->p", x0, g, x0) + 2.0 * g_lin @ x0
            np.testing.assert_allclose(loop, want, rtol=1e-12, atol=0)
            continue
        tail, nodes = _tail(spec, k0), np.arange(k0, n_steps + 1)
        for p in range(n_paths):
            x = states[p, k0:]
            ref = _reference_states(spec, alpha[p], law, x0, dw[p], k0)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
            gain = law[nodes, alpha[p, k0:]]
            u = np.einsum("kij,kj->ki", gain[..., :-1], x) + gain[..., -1]
            want = evaluate_cost(tail, alpha[p, k0:], x, u)
            assert abs(loop[p] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("problem", ["standard", "two_regime"])
def test_kept_paths_carry_their_own_cost(problem):
    # each kept path is a path of the estimate: its cost is one of the
    # samples the mean averages, and it meets the cost of its own regimes,
    # states and controls read from the spec's fields; from a t0 inside
    # the grid the kept paths start at its node
    spec = bundled(problem)
    law = _solved(spec)[0].Theta_bar
    x0, n_paths = np.linspace(0.8, -0.6, spec.n), 5
    for k0 in (0, spec.grid.steps // 3):
        est = mc_value(spec, law, spec.grid.nodes()[k0], 1, x0, n_paths, 3, keep=n_paths)
        kept, tail = est.kept, _tail(spec, k0)
        n_nodes = spec.grid.steps + 1 - k0
        assert kept.alpha.shape == (n_paths, n_nodes)
        assert kept.X.shape == (n_paths, n_nodes, spec.n)
        assert kept.u.shape == (n_paths, n_nodes, spec.m)
        assert np.all(kept.alpha[:, 0] == 1) and np.all(kept.X[:, 0] == x0)
        assert est.mean == kept.cost.mean()
        for p in range(n_paths):
            want = evaluate_cost(tail, kept.alpha[p], kept.X[p], kept.u[p])
            assert abs(kept.cost[p] - want) <= 1e-12 * abs(want)


# ----------------------------------------------------------- law axis


def _three_laws(spec, closed_loop):
    """Three stacked laws [Θ | v]: perturbations of the optimal feedback
    law, or three open-loop controls [0 | u]."""
    rng = np.random.default_rng(17)
    if closed_loop:
        d_theta = 0.3 * rng.uniform(-1.0, 1.0, (3, 1, 1, spec.m, spec.n))
        d_v = 0.3 * rng.uniform(-1.0, 1.0, (3, 1, 1, spec.m, 1))
        return _solved(spec)[0].Theta_bar + np.concatenate([d_theta, d_v], axis=-1)
    u = rng.normal(size=(3, spec.grid.steps + 1, spec.m))
    return _open_loop_table(spec, u)


@pytest.mark.parametrize("problem", ["standard", "two_regime"])
@pytest.mark.parametrize("closed_loop", [True, False])
def test_stacked_laws_match_one_law_calls(problem, closed_loop):
    # the exact expectation prices each law of stacked tables as a
    # one-law call would; only the Euler loop is limited to one law
    spec = bundled(problem)
    n_steps = spec.grid.steps
    laws = _three_laws(spec, closed_loop)
    stacked = _closed_loop_tables(spec, laws)
    assert stacked.W.shape[:2] == (n_steps + 1, 3)
    trans = _cell_transitions(spec.gen, spec.grid)
    for k0 in (0, n_steps // 3, n_steps):
        got = _expected_values(stacked, trans, k0)
        assert got.shape == (3, spec.n_regimes, spec.n + 1, spec.n + 1)
        for law in range(3):
            one = _closed_loop_tables(spec, laws[law])
            (want,) = _expected_values(one, trans, k0)
            np.testing.assert_allclose(got[law], want, rtol=1e-12, atol=1e-14 * np.abs(want).max())
    alpha = np.zeros((2, n_steps + 1), dtype=np.int8)
    with pytest.raises(ValueError):  # the Euler loop runs one law
        _integrate_policy(stacked, alpha, np.zeros(spec.n), np.zeros((2, n_steps)))


def test_closed_loop_tables_stay_blocked():
    # the closed-loop coefficients of every node at once, or a per-node
    # [x, u, 1] map beside the tables, would hold more than one further
    # copy of the tables; node chunks hold one chunk's coefficients
    spec = bundled("two_regime", 20000)
    rng = np.random.default_rng(5)
    law = rng.normal(size=(spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n + 1))
    tracemalloc.start()
    try:
        tables = _closed_loop_tables(spec, law)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * tables.W.nbytes, peak / tables.W.nbytes


def test_value_consistency_matches_one_law_per_call():
    # every perturbation row's statistic is -lambda_min of the gap of the
    # one-law Lyapunov solutions of its law and the optimal one on the
    # augmented problem, over the nodes below N and every regime
    spec = bundled("two_regime")
    ric, _ = _solved(spec)
    x0, seed, i0 = np.full(spec.n, 0.9), 23, 1
    report = certify(spec, ric, 0.0, i0, x0, 150, seed, 2)
    aug = spec.augmented()
    optimal = solve_lyapunov(aug, ric.Theta_bar)[:-1]
    scale_theta = float(np.linalg.norm(ric.Theta, axis=(-2, -1)).max())
    scale_v = float(np.linalg.norm(ric.Theta_bar[..., -1], axis=-1).max())
    prng = np.random.default_rng([seed, 777])
    for p_id in range(N_PERTURBATIONS):
        d_theta = 0.5 * scale_theta * prng.uniform(-1.0, 1.0, (spec.m, spec.n))
        d_v = 0.5 * scale_v * prng.uniform(-1.0, 1.0, spec.m)
        d_bar = np.concatenate([d_theta, d_v[:, None]], axis=1)
        gap = solve_lyapunov(aug, ric.Theta_bar + d_bar)[:-1] - optimal
        min_eig = np.linalg.eigvalsh(gap)[..., 0]
        k, i = np.unravel_index(min_eig.argmin(), min_eig.shape)
        row = report[f"value_no_improvement_perturbation_{p_id + 1}"]
        assert row.statistic == -row.details["min_eig"]
        assert (row.details["node"], row.details["regime"]) == (k, i)
        np.testing.assert_allclose(row.details["min_eig"], min_eig[k, i], rtol=1e-12, atol=0)


def test_a_law_of_the_wrong_shape_is_rejected():
    # the gain-only Theta lacks the offset column of Theta_bar = [Theta | v]
    spec = bundled("standard")
    ric, _ = _solved(spec)
    want = r"\(501, 2, 1, 3\)"
    for law in (ric.Theta, ric.Theta_bar[:-1], ric.Theta_bar[None, None], ric.Theta_bar[:0]):
        with pytest.raises(InvalidInputError, match=rf"theta_bar shape .* is neither {want}"):
            mc_value(spec, law, 0.0, 0, np.ones(spec.n), 2, 2)
    with pytest.raises(InvalidInputError, match="theta_bar shape"):
        _closed_loop_tables(spec, np.zeros((0, *ric.Theta_bar.shape)))


# -------------------------------------------------- path functionals


def _zero_law_tables(spec):
    """Tables of the zero control on the homogeneous problem, whose state
    from x0 = e_j is column j of the fundamental matrix Φ."""
    hspec = spec.homogeneous()
    return _closed_loop_tables(
        hspec, np.zeros((spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n + 1)))


def test_feynman_kac_identity_case():
    spec = bundled("standard", 20)
    spec = dataclasses.replace(
        spec,
        A=np.zeros_like(spec.A), C=np.zeros_like(spec.C),
        Q=np.zeros_like(spec.Q),
        G=np.broadcast_to(np.eye(2), spec.G.shape).copy(),
        gen=Generator.constant(np.zeros((2, 2)), spec.grid),
    )
    trans = _cell_transitions(spec.gen, spec.grid)
    assert np.array_equal(trans, np.broadcast_to(np.eye(2), trans.shape))
    vals = _expected_values(_zero_law_tables(spec), trans)
    assert np.array_equal(vals[0, 0, :2, :2], np.eye(2))


@pytest.mark.parametrize("source", ["scalar", "two_regime", "dead_channel", "random"])
def test_cell_transitions_match_the_forward_loop(source):
    # the shared RK4 stepper sums k1 + 2 k2 + 2 k3 + k4, the loop
    # k1 + 2 (k2 + k3) + k4: on the bundled problems' rates the tables
    # keep every bit; on random time-varying rates each of the n_sub
    # substeps may round its sum and its update differently, so entries,
    # all at most 1, may move by a few eps per substep
    if source == "random":
        rng = np.random.default_rng(11)
        grid = TimeGrid(0.0, 2.0, 30)
        rates = rng.uniform(0.0, 3.0, (31, 3, 3)) * (1.0 - np.eye(3))
        gen = Generator(rates - rates.sum(axis=-1)[..., None] * np.eye(3))
    else:
        spec = bundled(source)
        gen, grid = spec.gen, spec.grid
    want, n_sub = cell_transitions_loop(gen, grid)
    got = _cell_transitions(gen, grid)
    if source == "random":
        assert np.abs(got - want).max() <= 4 * n_sub * np.finfo(float).eps
    else:
        assert got.tobytes() == want.tobytes()


def test_feynman_kac_scalar_exponential():
    a = 0.4
    steps = 400
    spec = bundled("scalar", steps)
    spec = dataclasses.replace(
        spec, A=np.full_like(spec.A, a), Q=np.zeros_like(spec.Q)
    )
    m0_h = _expected_values(_zero_law_tables(spec), _cell_transitions(spec.gen, spec.grid))
    assert m0_h[0, 0, 0, 0] == pytest.approx((1.0 + a / steps) ** (2 * steps), rel=1e-12)
    want = np.exp(2.0 * a)
    budget = 5.0 * spec.grid.h * max(1.0, want)
    assert abs(m0_h[0, 0, 0, 0] - want) <= budget


def _varying_fk_spec(steps=60):
    spec = bundled("standard", steps)
    ramp = spec.grid.nodes()[:, None, None, None]
    q_mat = np.array([[-1.0, 1.0], [2.0, -2.0]])
    return dataclasses.replace(
        spec,
        A=spec.A * (1.0 - 0.8 * ramp) + 0.2 * ramp,
        C=spec.C + 0.3 * ramp,
        Q=spec.Q * (1.0 + ramp),
        gen=Generator((1.0 + 2.0 * ramp[..., 0]) * q_mat),
    )


def _reference_fundamental(spec, alpha, dw, k0):
    """Per-path recursion Φ <- Φ + hAΦ + dW CΦ with the trapezoidal
    running weight ΦᵀQΦ and the terminal ΦᵀGΦ; returns the weights and
    the terminal Φ."""
    h, n_steps = spec.grid.h, spec.grid.steps
    out, phis = [], []
    for a, w in zip(alpha, dw):
        phi = np.eye(spec.n)
        prev = phi.T @ spec.Q[k0, a[k0]] @ phi
        acc = np.zeros((spec.n, spec.n))
        for k in range(k0, n_steps):
            phi = phi + h * spec.A[k, a[k]] @ phi + w[k] * spec.C[k, a[k]] @ phi
            nxt = phi.T @ spec.Q[k + 1, a[k + 1]] @ phi
            acc += 0.5 * h * (prev + nxt)
            prev = nxt
        out.append(acc + phi.T @ spec.G[a[-1]] @ phi)
        phis.append(phi)
    return np.array(out), np.array(phis)


def _fundamental_run(tables, alpha, dw, k0, n):
    """The zero-control policy loop from every basis vector of every path:
    row j of path p starts at e_j.  Returns the (P, n) costs, the diagonal
    of ΦᵀGΦ + ∫ΦᵀQΦ, and the (P, n, N + 1, n) states, Φ e_j at each node."""
    n_paths = alpha.shape[0]
    states = np.zeros((n_paths * n, alpha.shape[1], n))
    cost = _integrate_policy(tables, np.repeat(alpha, n, axis=0), np.tile(np.eye(n), (n_paths, 1)),
                             np.repeat(dw, n, axis=0), k0, states)
    return cost.reshape(n_paths, n), states.reshape(n_paths, n, -1, n)


def test_fundamental_loop_matches_per_path_recursion():
    spec = _varying_fk_spec()
    tables = _zero_law_tables(spec)
    n_steps = spec.grid.steps
    for k0 in (0, n_steps // 3, n_steps):
        rng = np.random.default_rng([6, k0])
        alpha = _sample_regime_paths(spec.gen, spec.grid, 1, 7, rng, k0)
        dw = brownian_increments(spec.grid, rng, 7, k0)
        cost, states = _fundamental_run(tables, alpha, dw, k0, spec.n)
        want, phi = _reference_fundamental(spec, alpha, dw, k0)
        assert np.abs(cost - np.einsum("pii->pi", want)).max() <= 1e-12 * np.abs(want).max()
        # states[p, j, N] is column j of the terminal Φ
        got_phi = np.swapaxes(states[:, :, -1], 1, 2)
        assert np.abs(got_phi - phi).max() <= 1e-12 * np.abs(phi).max()
        if k0 == n_steps:  # t0 = T: the terminal weight alone
            assert np.array_equal(cost, np.broadcast_to(np.diag(spec.G[1]), cost.shape))
    vals = _expected_values(tables, _cell_transitions(spec.gen, spec.grid), n_steps)
    assert np.array_equal(vals[0, 1, :spec.n, :spec.n], spec.G[1])


# ------------------------------------------- exact expectation of the scheme


def test_cell_transitions_reproduce_kolmogorov_marginals():
    grid = TimeGrid(0.0, 1.0, 40)
    gen = _varying_generator(grid)
    trans = _cell_transitions(gen, grid)
    assert trans.shape == (40, 3, 3)
    np.testing.assert_allclose(trans.sum(axis=-1), 1.0, rtol=0, atol=1e-14)
    for i0, k0 in ((0, 0), (1, 0), (2, 13)):
        want = _kolmogorov_marginals(gen, grid, i0, k0)
        p = np.eye(3)[i0]
        for k in range(k0, grid.steps):
            p = p @ trans[k]  # row i of Tₖ is the law of α_{k+1} from α_k = i
            assert np.abs(p - want[k + 1]).max() <= 1e-14


def test_cell_transitions_substep_with_large_rates():
    # h times the exit rate is 40: eight RK4 substeps would leave the
    # stability region; T must still be a transition matrix near exp(hQ)
    grid = TimeGrid(0.0, 1.0, 5)
    q_mat = np.array([[-200.0, 200.0], [50.0, -50.0]])
    trans = _cell_transitions(Generator.constant(q_mat, grid), grid)
    # exp(hQ) = Π + exp(-250 h) (I - Π), Π the stationary law in every row
    stationary = np.tile([0.2, 0.8], (2, 1))
    want = stationary + np.exp(-250.0 * grid.h) * (np.eye(2) - stationary)
    assert np.all(trans >= 0.0)
    np.testing.assert_allclose(trans, np.broadcast_to(want, trans.shape), rtol=0, atol=1e-6)


def _reference_costs(spec, law, alpha, dw, x0, k0):
    """Per-path Euler-Maruyama of u = Θx + v, law = [Θ | v], from the
    spec's coefficients, trapezoidal running cost plus the terminal cost."""
    h, n_steps = spec.grid.h, spec.grid.steps
    out = []
    for a, w in zip(alpha, dw):
        x = np.array(x0, dtype=float)
        run = []
        for k in range(k0, n_steps + 1):
            r = a[k]
            u = law[k, r, :, :-1] @ x + law[k, r, :, -1]
            run.append(x @ spec.Q[k, r] @ x + 2.0 * u @ spec.S[k, r] @ x + u @ spec.R[k, r] @ u
                       + 2.0 * spec.q[k, r] @ x + 2.0 * spec.rho[k, r] @ u)
            if k < n_steps:
                x = (x + h * (spec.A[k, r] @ x + spec.B[k, r] @ u + spec.b[k, r])
                     + w[k] * (spec.C[k, r] @ x + spec.D[k, r] @ u + spec.sigma[k, r]))
        run = np.array(run)
        trap = h * (run.sum() - 0.5 * (run[0] + run[-1])) if run.size > 1 else 0.0
        out.append(trap + x @ spec.G[a[-1]] @ x + 2.0 * spec.g[a[-1]] @ x)
    return np.array(out)


def _exact_test_spec(steps, noise=True):
    """Two regimes with asymmetric, time-varying rates and a full law."""
    spec = bundled("two_regime", steps)
    ramp = spec.grid.nodes()[:, None, None, None]
    q_mat = np.array([[-3.0, 3.0], [0.7, -0.7]])
    spec = dataclasses.replace(
        spec, gen=Generator((1.0 + 1.5 * ramp[..., 0]) * q_mat),
        A=spec.A * (1.0 + ramp), Q=spec.Q + 0.2 * ramp,
    )
    if not noise:
        spec = dataclasses.replace(spec, C=np.zeros_like(spec.C), D=np.zeros_like(spec.D),
                                   sigma=np.zeros_like(spec.sigma))
    rng = np.random.default_rng(8)
    theta = rng.uniform(-1.0, 1.0, (spec.grid.steps + 1, 2, spec.m, spec.n))
    v = rng.uniform(-1.0, 1.0, (spec.grid.steps + 1, 2, spec.m, 1))
    return spec, np.concatenate([theta, v], axis=-1)


def test_expected_values_match_regime_sequence_enumeration():
    # without noise the cost is a function of the regime sequence, whose
    # law is the product of the cell transitions
    spec, law = _exact_test_spec(steps=4, noise=False)
    trans = _cell_transitions(spec.gen, spec.grid)
    vals = _expected_values(_closed_loop_tables(spec, law), trans)
    seqs = np.array(list(itertools.product(range(2), repeat=4)))
    for i0 in range(2):
        alpha = np.column_stack([np.full(len(seqs), i0), seqs])
        weight = np.prod(trans[np.arange(4), alpha[:, :-1], alpha[:, 1:]], axis=1)
        assert weight.sum() == pytest.approx(1.0, abs=1e-14)
        for x0 in ([0.0], [1.3], [-0.4]):
            costs = _reference_costs(spec, law, alpha, np.zeros((len(seqs), 4)), x0, 0)
            x_bar = np.append(x0, 1.0)
            assert x_bar @ vals[0, i0] @ x_bar == pytest.approx(weight @ costs, rel=1e-12)


def test_expected_values_match_closed_form_second_moment():
    # one regime, dx = a x dt + c x dW: E x_(k+1)^2 = ((1 + ha)^2 + hc^2) E x_k^2
    a, c, q, g, steps = 0.7, 0.9, 1.6, 2.5, 50
    spec = bundled("scalar", steps)
    spec = dataclasses.replace(spec, A=np.full_like(spec.A, a), C=np.full_like(spec.C, c),
                               Q=np.full_like(spec.Q, q), G=np.full_like(spec.G, g))
    h = spec.grid.h
    growth = (1.0 + h * a) ** 2 + h * c * c
    trans = _cell_transitions(spec.gen, spec.grid)
    for k0 in (0, 17, steps - 1, steps):
        vals = _expected_values(_zero_law_tables(spec), trans, k0)
        m = steps - k0
        moments = growth ** np.arange(m + 1)
        want = g * moments[-1] + q * h * (moments.sum() - 0.5 * (1.0 + moments[-1])) * (m > 0)
        assert vals[0, 0, 0, 0] == pytest.approx(want, rel=1e-12)
        assert not vals[0, 0, 0, 1] and not vals[0, 0, 1, 1]


@pytest.mark.parametrize("k0", [0, 4, 12])
def test_expected_values_match_monte_carlo(k0):
    spec, law = _exact_test_spec(steps=12)
    tables = _closed_loop_tables(spec, law)
    vals = _expected_values(tables, _cell_transitions(spec.gen, spec.grid), k0)
    x0, n_paths = np.array([0.8]), 100_000
    x_bar = np.append(x0, 1.0)
    for i0 in range(2):
        rng = np.random.default_rng([77, k0, i0])
        alpha = _sample_regime_paths(spec.gen, spec.grid, i0, n_paths, rng, k0)
        dw = brownian_increments(spec.grid, rng, n_paths, k0)
        costs = _integrate_policy(tables, alpha, x0, dw, k0)
        exact = x_bar @ vals[0, i0] @ x_bar
        if k0 == spec.grid.steps:  # the terminal cost alone, no randomness
            assert np.array_equal(vals[0, i0], tables.terminal[i0])
            assert np.all(costs == costs[0]) and costs[0] == pytest.approx(exact, rel=1e-14)
            continue
        se = costs.std(ddof=1) / np.sqrt(n_paths)
        assert abs(costs.mean() - exact) <= 4.5 * se


def test_expected_values_name_the_node_where_they_overflow():
    spec = bundled("scalar", 100)
    spec = dataclasses.replace(spec, A=np.full_like(spec.A, 1e4))
    with pytest.raises(DivergenceError) as err:
        _expected_values(_zero_law_tables(spec), _cell_transitions(spec.gen, spec.grid))
    assert 0 < err.value.node < 100
    assert err.value.non_finite and str(err.value).endswith("the state went non-finite")


@pytest.mark.parametrize("x0, non_finite", [(1.0, False), (1e10, True)])
def test_policy_divergence_names_its_cause(x0, non_finite):
    # the first step multiplies x0 by 1 + hA = 1e304: from 1 an entry
    # beyond 1e12, from 1e10 an overflow to inf
    spec = bundled("scalar", 100)
    spec = dataclasses.replace(spec, A=np.full_like(spec.A, 1e306))
    alpha, dw = np.zeros((2, 101), dtype=int), np.zeros((2, 100))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
        _integrate_policy(_zero_law_tables(spec), alpha, np.array([x0]), dw)
    assert err.value.node == 1
    assert err.value.non_finite == non_finite


# ------------------------------------------------------------- step guard

_GUARD_GRID = TimeGrid(0.0, 1.0, 10)


def _augmented(x):
    """A contiguous state x̄ = [x, 1] with rows ``x``, as the Euler loop
    holds it."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([x, np.ones(len(x))])


def test_step_guard_passes_entries_at_the_limit():
    # squares of 1e12 sum past fl(1e24): the screen fails, the exact test
    # passes, and nothing is raised
    xbar = _augmented(np.full((4, 3), BLOWUP_LIMIT) * [1.0, -1.0, 1.0])
    assert not np.vdot(xbar, xbar) < BLOWUP_LIMIT ** 2
    sim._check_state(xbar, _GUARD_GRID, 3)


def test_step_guard_passes_a_tile_whose_squares_sum_past_the_screen():
    # every entry is within the limit, but a tile of them sums past it
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (sim.TILE_ROWS, 8)) * BLOWUP_LIMIT
    xbar = _augmented(x)
    assert np.abs(x).max() <= BLOWUP_LIMIT and not np.vdot(xbar, xbar) < BLOWUP_LIMIT ** 2
    sim._check_state(xbar, _GUARD_GRID, 3)


@pytest.mark.parametrize(
    "entry", [np.nextafter(BLOWUP_LIMIT, np.inf), -np.nextafter(BLOWUP_LIMIT, np.inf), 1e200])
def test_step_guard_raises_beyond_the_limit(entry):
    # one entry one ulp beyond 1e12, or whose square overflows, among zeros
    x = np.zeros((3, 2))
    x[1, 0] = entry
    with pytest.raises(DivergenceError) as err:
        sim._check_state(_augmented(x), _GUARD_GRID, 7)
    assert err.value.node == 7 and not err.value.non_finite
    assert str(err.value).endswith("an entry exceeded 1e+12")


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_step_guard_raises_on_a_non_finite_entry(entry):
    x = np.full((3, 2), BLOWUP_LIMIT)
    x[2, 1] = entry
    with pytest.raises(DivergenceError) as err:
        sim._check_state(_augmented(x), _GUARD_GRID, 4)
    assert err.value.node == 4 and err.value.non_finite
    assert str(err.value).endswith("the state went non-finite")


_NEAR_LIMIT = st.sampled_from([
    0.0, 1.0, -3.5, 1e11, BLOWUP_LIMIT, -BLOWUP_LIMIT, np.nextafter(BLOWUP_LIMIT, 0.0),
    np.nextafter(BLOWUP_LIMIT, np.inf), 1e154, 1e300, np.inf, -np.inf, np.nan])


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=_NEAR_LIMIT | st.floats(-2e12, 2e12)))
def test_step_guard_property_equals_the_exact_test(x):
    # the screen only ever skips the exact test where it would pass
    exceeded = not np.abs(x).max() <= BLOWUP_LIMIT
    try:
        sim._check_state(_augmented(x), _GUARD_GRID, 1)
    except DivergenceError as err:
        assert exceeded and err.non_finite == (not np.isfinite(x).all())
    else:
        assert not exceeded


# ------------------------------------------------------------- row tiles


def _in_tiles(n_rows, tile, run):
    """``run(rows)`` on tiles of ``tile`` rows, two at least, with a lone
    last row joined to the tile before; each output joined row-wise."""
    tile = max(tile, 2)
    starts = list(range(0, max(n_rows - 1, 1), tile))
    parts = [run(slice(a, b)) for a, b in zip(starts, starts[1:] + [n_rows])]
    return tuple(np.concatenate(part) for part in zip(*parts))


@pytest.mark.parametrize("tile", [1, 3, 7])
@pytest.mark.parametrize("n_paths", [10, 11])
def test_tiled_policy_product_matches_untiled(tile, n_paths):
    # a tile's rows run alone give the bits they have in the whole batch;
    # 10 and 11 paths leave a partial last tile or a lone row
    spec = bundled("standard")
    n_steps = spec.grid.steps
    tables = _closed_loop_tables(spec, _three_laws(spec, closed_loop=True)[0])
    x0 = np.linspace(0.8, -0.6, spec.n)
    for k0 in (0, n_steps // 3):
        rng = np.random.default_rng([12, k0, n_paths])
        alpha = _sample_regime_paths(spec.gen, spec.grid, 1, n_paths, rng, k0)
        dw = brownian_increments(spec.grid, rng, n_paths, k0)

        def run(rows):
            states = np.zeros((rows.stop - rows.start, n_steps + 1, spec.n))
            return _integrate_policy(tables, alpha[rows], x0, dw[rows], k0, states), states

        cost, states = _in_tiles(n_paths, tile, run)
        want_cost, want_states = run(slice(0, n_paths))
        assert np.array_equal(cost, want_cost)
        assert np.array_equal(states, want_states)


@pytest.mark.parametrize("tile", [1, 3, 7])
@pytest.mark.parametrize(
    "spec", [_varying_fk_spec(), bundled("two_regime", 60)],
    ids=["n2", "n1"])
def test_tiled_fundamental_product_matches_untiled(tile, spec):
    # n rows per path (one per basis vector), on time-varying tables
    tables = _zero_law_tables(spec)
    n_paths = 10
    for k0 in (0, spec.grid.steps // 3):
        rng = np.random.default_rng([13, k0])
        alpha = _sample_regime_paths(spec.gen, spec.grid, 0, n_paths, rng, k0)
        dw = brownian_increments(spec.grid, rng, n_paths, k0)

        def run(rows):
            return _fundamental_run(tables, alpha[rows], dw[rows], k0, spec.n)

        cost, states = _in_tiles(n_paths, tile, run)
        want_cost, want_states = run(slice(0, n_paths))
        assert np.array_equal(cost, want_cost)
        assert np.array_equal(states, want_states)


def _batch_draw_costs(spec, tables, x0, i0, k0, n_paths, stream):
    """The runner's costs, regimes and states as one draw per batch: each
    batch draws its regimes and then all its increments, and integrates
    untiled."""
    parts = []
    for start in range(0, n_paths, sim.BATCH_PATHS):
        size = min(start + sim.BATCH_PATHS, n_paths) - start
        rng = np.random.default_rng([*stream, start])
        alpha = _sample_regime_paths(spec.gen, spec.grid, i0, size, rng, k0)
        dw = brownian_increments(spec.grid, rng, size, k0)
        states = np.zeros((size, spec.grid.steps + 1, spec.n))
        parts.append((_integrate_policy(tables, alpha, x0, dw, k0, states), alpha, states))
    return tuple(np.concatenate(part) for part in zip(*parts))


@pytest.mark.parametrize("threads", [1, 2])
def test_path_costs_tiles_draw_the_batch_stream(monkeypatch, threads):
    # tiles of T = 3 rows in batches of B = 8: P in {1, 2, T, T + 1,
    # 2T + 1, B + 3} covers one row, a lone last row, a partial tile and
    # a second batch; the kept paths end inside a tile, or take them all
    tile, batch = 3, 8
    monkeypatch.setattr(sim, "TILE_ROWS", tile)
    monkeypatch.setattr(sim, "BATCH_PATHS", batch)
    spec = bundled("two_regime")
    tables = _closed_loop_tables(spec, _solved(spec)[0].Theta_bar)
    x0, n_steps = np.linspace(0.8, -0.6, spec.n), spec.grid.steps
    for n_paths in (1, 2, tile, tile + 1, 2 * tile + 1, batch + 3):
        for k0 in (0, n_steps // 3, n_steps):
            stream = (5, n_paths, k0)
            want, alpha, states = _batch_draw_costs(spec, tables, x0, 1, k0, n_paths, stream)
            for keep in sorted({0, min(tile + 1, n_paths), n_paths}):
                got, kept_alpha, kept_states = sim._path_costs(
                    spec, tables, x0, 1, k0, n_paths, stream, threads, keep)
                assert got.shape == (n_paths,)
                assert np.array_equal(got, want)
                assert np.array_equal(kept_alpha, alpha[:keep])
                assert np.array_equal(kept_states[:, k0:], states[:keep, k0:])


def test_keeping_paths_leaves_every_cost_as_it_is():
    # 4097 kept paths of 4100 end one row into the second batch, whose
    # one tile of 4 rows holds kept and dropped rows
    spec = bundled("standard")
    law = _solved(spec)[0].Theta_bar
    tables, x0, n_paths, keep = _closed_loop_tables(spec, law), np.array([1.0, -1.0]), 4100, 4097
    assert keep > sim.BATCH_PATHS and keep % sim.TILE_ROWS
    plain, none_alpha, none_states = sim._path_costs(spec, tables, x0, 0, 0, n_paths, (7,))
    assert none_alpha.shape == (0, spec.grid.steps + 1) and none_states.shape[0] == 0
    got, alpha, states = sim._path_costs(spec, tables, x0, 0, 0, n_paths, (7,), 1, keep)
    assert np.array_equal(got, plain)
    assert alpha.shape == (keep, spec.grid.steps + 1) and np.all(alpha[:, 0] == 0)
    assert np.all(states[:, 0] == x0) and np.isfinite(states).all()
    # the two batches write their kept rows from two threads
    threaded = sim._path_costs(spec, tables, x0, 0, 0, n_paths, (7,), 2, keep)
    for one, two in zip((got, alpha, states), threaded):
        assert np.array_equal(one, two)
    est = mc_value(spec, law, 0.0, 0, x0, n_paths, 7, keep=keep)
    assert np.array_equal(est.kept.cost, plain[:keep])
    assert np.array_equal(est.kept.alpha, alpha) and np.array_equal(est.kept.X, states)


def test_path_costs_raise_the_earliest_diverging_node(monkeypatch):
    # regime 1 explodes and regime 0 holds still: each path diverges some
    # steps after it first enters regime 1, so tiles diverge at different
    # nodes, and the batch names the earliest, not its first tile's
    monkeypatch.setattr(sim, "TILE_ROWS", 2)
    base = bundled("two_regime", 100)
    growth = np.where(np.arange(2) == 1, 300.0, 0.0)[None, :, None, None]
    spec = dataclasses.replace(base, A=np.broadcast_to(growth, base.A.shape).copy(),
                               C=np.zeros_like(base.C), b=np.zeros_like(base.b),
                               sigma=np.zeros_like(base.sigma))
    tables = _zero_law_tables(spec)
    x0, n_paths, stream = np.ones(1), 8, (1,)
    rng = np.random.default_rng([*stream, 0])
    alpha = _sample_regime_paths(spec.gen, spec.grid, 0, n_paths, rng)
    dw = brownian_increments(spec.grid, rng, n_paths)
    nodes = {}
    for a in range(0, n_paths, 2):
        try:
            _integrate_policy(tables, alpha[a:a + 2], x0, dw[a:a + 2])
        except DivergenceError as err:
            nodes[a] = err.node
    earliest = min(nodes.values())
    # neither the first nor the last tile diverges first, and one holds
    assert len(nodes) == 3 and nodes.get(0) > earliest and nodes.get(6) > earliest
    with pytest.raises(DivergenceError) as err:
        sim._path_costs(spec, tables, x0, 0, 0, n_paths, stream)
    assert err.value.node == earliest
    with pytest.raises(DivergenceError) as whole:  # as the untiled batch does
        _integrate_policy(tables, alpha, x0, dw)
    assert whole.value.node == earliest


def test_one_batch_holds_one_byte_regimes_and_one_tile_of_increments():
    # one BATCH_PATHS batch on standard.yaml peaks near 5 MiB: 2 MiB of
    # one-byte regimes and 2 MiB of one tile's increments; int64 regimes
    # and a whole batch of increments would take 32 MiB
    spec = bundled("standard")
    ric, _ = _solved(spec)
    tracemalloc.start()
    try:
        mc_value(spec, ric.Theta_bar, 0.0, 0, np.ones(spec.n), sim.BATCH_PATHS, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_euler_weak_error_scaling():
    # first-order weak convergence: halving h roughly halves the bias
    x0 = np.array([0.7])
    ref = bundled("two_regime", 3200)
    ric_ref, aff_ref = _solved(ref)
    v_ref = value_function(ric_ref, aff_ref, 0.0, 0, x0)
    biases = []
    for steps in (25, 50):
        spec = bundled("two_regime", steps)
        ric, _ = _solved(spec)
        est = mc_value(spec, ric.Theta_bar, 0.0, 0, x0, 200000, 314)
        biases.append(est.mean - v_ref)
    ratio = biases[0] / biases[1]
    assert 1.3 < ratio < 3.5


@pytest.mark.parametrize("diverging", [False, True])
def test_path_costs_hold_one_tile_of_increments(monkeypatch, diverging):
    # each tile's increments must be gone when the next tile draws, also
    # after a tile diverged: the error's frames would hold them
    monkeypatch.setattr(sim, "TILE_ROWS", 3)
    draws, real = [], sim.brownian_increments

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in draws), "an earlier tile's increments are alive"
        out = real(*args, **kwargs)
        draws.append(weakref.ref(out))
        return out

    monkeypatch.setattr(sim, "brownian_increments", tracked)
    spec = bundled("two_regime")
    if diverging:
        spec = dataclasses.replace(spec, A=np.full(spec.A.shape, 300.0))
        with pytest.raises(DivergenceError):
            sim._path_costs(spec, _zero_law_tables(spec), np.ones(1), 0, 0, 10, (2,))
    else:
        tables = _closed_loop_tables(spec, _solved(spec)[0].Theta_bar)
        sim._path_costs(spec, tables, np.ones(1), 0, 0, 10, (2,))
    assert len(draws) == 3
