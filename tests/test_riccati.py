"""Backward solver oracles: closed forms, decoupling, iteration behavior."""

import dataclasses
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regimelq import benchmarks, matcore, riccati
from regimelq.affine import solve_eta
from regimelq.matcore import InvalidInputError, symmetrize
from regimelq.model import Generator, ProblemSpec, TimeGrid, _hats
from regimelq.problemfile import parse_problem
from regimelq.riccati import (
    DEFAULT_PINV_TOL,
    DivergenceError,
    NonConvergenceError,
    NotStronglyRegularError,
    iterate_strongly_regular,
    solve_lyapunov,
    solve_riccati_direct,
)

from reference import iterate_one_by_one, wide_spec


# ---------------------------------------------------------------- rhs


def _rhs(coef, p):
    """Direct-sweep RHS of every regime from one stacked coefficient
    sample (A, B, C, D, Q, S, R, generator)."""
    return riccati._riccati_rhs(riccati._riccati_tables(coef), p, DEFAULT_PINV_TOL)


def _node(spec, k):
    return tuple(x[k] for x in riccati._sweep_coefs(spec))


def test_rhs_scalar_quadratic_term():
    spec = benchmarks.scalar_benchmark(steps=4)
    for p in (0.3, 1.0, -2.0):
        got = _rhs(_node(spec, 2), np.array([[[p]]]))
        assert got[0, 0, 0] == pytest.approx(p * p, rel=1e-12)


def test_rhs_reduces_to_linear_form_without_gain_channels():
    spec = benchmarks.two_regime_standard(steps=4)
    spec = dataclasses.replace(
        spec,
        B=np.zeros_like(spec.B),
        D=np.zeros_like(spec.D),
        S=np.zeros_like(spec.S),
    )
    rng = np.random.default_rng(0)
    p_all = rng.normal(size=(2, 2, 2))
    p_all = p_all + np.swapaxes(p_all, -1, -2)
    a, _, c, _, q, _, _, lam = _node(spec, 1)
    got = _rhs(_node(spec, 1), p_all)
    for i in range(2):
        want = -(
            p_all[i] @ a[i] + a[i].T @ p_all[i] + c[i].T @ p_all[i] @ c[i] + q[i]
            + lam[i, 0] * p_all[0] + lam[i, 1] * p_all[1]
        )
        assert np.allclose(got[i], 0.5 * (want + want.T), atol=1e-13)


def _finite_eigh(m, eigh=np.linalg.eigh):
    """``np.linalg.eigh`` that fails on a non-finite operand."""
    assert np.isfinite(m).all(), "eigh ran on a non-finite matrix"
    return eigh(m)


@pytest.mark.parametrize(
    "make",
    [benchmarks.scalar_benchmark, benchmarks.two_regime_standard, benchmarks.dead_channel],
)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rhs_rejects_non_finite_p_in_each_regime(make, bad):
    # a non-finite P, the input of a stage after one that overflowed, is
    # rejected by the derivative: non-finite in its regime, so the step
    # guard ends the slice.  Nothing raises, and no eigensolver sees the
    # non-finite R_hat (m = 1 takes the closed form, dead_channel's m = 2
    # solves the finite regime alone).  An inf meets a zero of D^T P (D = 0
    # on the scalar problem); the driver's errstate keeps 0 * inf quiet
    spec = make(steps=4)
    for i in range(spec.n_regimes):
        p = np.array(spec.G)
        p[i, -1, -1] = bad
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(np.linalg, "eigh", side_effect=_finite_eigh) as eigh:
            got = _rhs(_node(spec, 2), p)
        assert not np.isfinite(got[i]).all()
        assert eigh.call_count == (spec.m > 1)


def test_rhs_all_zero_data():
    spec = benchmarks.scalar_benchmark(steps=4)
    spec = dataclasses.replace(
        spec, B=np.zeros_like(spec.B), R=np.zeros_like(spec.R)
    )
    got = _rhs(_node(spec, 0), np.zeros((1, 1, 1)))
    assert np.array_equal(got, np.zeros((1, 1, 1)))


@st.composite
def _stacked_samples(draw, zero_generator=False):
    """One stacked coefficient sample with D <= 3 regimes, n <= 3,
    m <= 2, and a symmetric P.  R = W^T W + 4I and |D| <= 0.3 keep
    R + D^T P D positive definite, far from the pseudo-inverse cutoff."""
    d, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def stack(*shape, lo=-1.0, hi=1.0):
        elements = st.floats(lo, hi, allow_subnormal=False)
        return draw(hnp.arrays(np.float64, (d, *shape), elements=elements))

    a, b, c, dd, q, s, w, p = (
        stack(n, n), stack(n, m), stack(n, n), 0.3 * stack(n, m),
        symmetrize(stack(n, n)), stack(m, n), stack(m, m), symmetrize(stack(n, n)),
    )
    r = np.swapaxes(w, -1, -2) @ w + 4.0 * np.eye(m)
    lam = np.zeros((d, d))
    if not zero_generator:
        off = draw(hnp.arrays(np.float64, (d, d), elements=st.floats(0.0, 2.0)))
        lam = off * (1.0 - np.eye(d))
        lam -= np.diag(lam.sum(axis=1))
    return (a, b, c, dd, q, s, r, lam), p


def _close(got, want):
    return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@given(_stacked_samples())
def test_rhs_property_exactly_symmetric(sample):
    out = _rhs(*sample)
    assert np.array_equal(out, np.swapaxes(out, -1, -2))


@given(_stacked_samples(), st.data())
def test_rhs_property_regime_permutation_equivariant(sample, data):
    coef, p = sample
    perm = np.array(data.draw(st.permutations(range(p.shape[0]))))
    permuted = tuple(x[perm] for x in coef[:-1]) + (coef[-1][perm][:, perm],)
    assert _close(_rhs(permuted, p[perm]), _rhs(coef, p)[perm])


@given(_stacked_samples(zero_generator=True))
def test_rhs_property_decouples_under_zero_generator(sample):
    coef, p = sample
    out = _rhs(coef, p)
    for i in range(p.shape[0]):
        alone = tuple(x[i:i + 1] for x in coef[:-1]) + (np.zeros((1, 1)),)
        assert _close(_rhs(alone, p[i:i + 1])[0], out[i])


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
    p = solve_lyapunov(spec)
    assert np.array_equal(p, np.ones_like(p))


def test_lyapunov_exponential_closed_form():
    a = 0.7
    steps = 400
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[0.0]], grid)
    spec = benchmarks.scalar_benchmark(steps=steps)
    a_arr = np.full_like(spec.A, a)
    spec = dataclasses.replace(spec, gen=gen, A=a_arr, B=np.zeros_like(spec.B))
    p = solve_lyapunov(spec)
    want = np.exp(2.0 * a * (1.0 - grid.nodes()))
    assert np.abs(p[:, 0, 0, 0] - want).max() < 1e-10


def test_lyapunov_time_varying_closed_form():
    # dP/dt = -2 a(t) P with a(t) = 0.7 - 1.2 t: P(t) = exp(2 int_t^T a),
    # so a node or midpoint sample taken from the wrong place shows
    steps = 400
    spec = benchmarks.scalar_benchmark(steps=steps)
    t = spec.grid.nodes()
    spec = dataclasses.replace(spec, A=(0.7 - 1.2 * t)[:, None, None, None])
    p = solve_lyapunov(spec)
    want = np.exp(2.0 * (0.7 * (1.0 - t) - 0.6 * (1.0 - t * t)))
    assert np.abs(p[:, 0, 0, 0] - want).max() < 1e-10


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
    p = solve_lyapunov(spec)
    assert np.array_equal(p[:, 0], p[:, 1])


def test_lyapunov_terminal_condition_exact():
    spec = benchmarks.two_regime_standard(steps=12)
    p = solve_lyapunov(spec)
    assert np.array_equal(p[-1], spec.G)


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


@pytest.mark.parametrize("solver", [solve_riccati_direct, iterate_strongly_regular])
def test_p_block_does_not_see_affine_data(solver):
    # the zero rows of B_bar, C_bar and D_bar keep eta and w out of P, S_hat
    # and Theta exactly (the iteration stops after as many solves on both),
    # and the last row and column of P_bar hold eta and w
    spec = _time_varying(benchmarks.two_regime_inhomogeneous(steps=70))
    affine, plain = solver(spec), solver(spec.homogeneous())
    for name in ("P", "S_hat", "R_hat", "Theta", "min_eig_R_hat"):
        assert np.array_equal(getattr(affine, name), getattr(plain, name)), name
    assert affine.classification == plain.classification
    assert np.array_equal(affine.P_bar[..., :-1, :-1], affine.P)
    assert np.array_equal(affine.P_bar[..., -1, :-1], affine.P_bar[..., :-1, -1])
    assert np.array_equal(affine.P_bar[-1, :, :-1, -1], spec.g)
    assert not affine.P_bar[-1, :, -1, -1].any()
    assert not plain.P_bar[..., -1, :].any()


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


@pytest.mark.parametrize(
    "solver, steps, ref_steps",
    [
        (solve_riccati_direct, (10, 20, 40, 80, 160), 1280),
        # the iteration's discrete fixed point has a larger fifth-order
        # term: its w ratio from N = 10 to 20 reads 4.40, so start at 20
        (iterate_strongly_regular, (20, 40, 80, 160, 320), 2560),
    ],
    ids=["direct", "iterate"],
)
def test_offset_and_value_integral_rk4_order(solver, steps, ref_steps):
    # eta and w are blocks of the augmented Riccati solution, so they
    # converge at the sweep's order 4, against a fine-grid reference at t0
    def at_t0(n):
        spec = benchmarks.two_regime_inhomogeneous(steps=n)
        aff = solve_eta(spec, solver(spec))
        return aff.eta[0], aff.value_integral[0]

    ref = at_t0(ref_steps)
    errs = np.array([[np.abs(x - r).max() for x, r in zip(at_t0(n), ref)] for n in steps])
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all((orders >= 3.7) & (orders <= 4.3)), orders.T


def test_rk4_stack_guards_every_sweep():
    grid = TimeGrid(0.0, 1.0, 200)

    def failure(rhs, top):  # no tables, so nothing to derive
        _, failed = riccati._rk4_stack(rhs, list, [], [top], [(0, grid.steps)], grid.h)
        assert list(failed) == [0]
        return DivergenceError.at(grid, failed[0])

    # dy/dt = -y^2 from y(T) = 4 escapes backward at t = T - 1/4, through
    # a finite entry beyond 1e12
    err = failure(lambda c, y: -y * y, np.array([4.0]))
    assert abs(err.t - 0.75) < 0.01
    assert not err.non_finite
    # a non-finite derivative is caught on the first step
    err = failure(lambda c, y: np.full_like(y, np.nan), np.zeros(3))
    assert err.node == grid.steps - 1
    assert err.non_finite


BLOCK = riccati._BLOCK_STEPS


def _riccati_stack_runner(aug):
    """``_rk4_stack`` on the Riccati system of ``aug``, with no eigensolver
    on a non-finite matrix, and the terminal value with P[0, 0] = g."""
    tables, h = riccati._sweep_coefs(aug), aug.grid.h

    def run(tops, spans):
        with mock.patch.object(np.linalg, "eigh", side_effect=_finite_eigh):
            return riccati._rk4_stack(
                lambda c, p: riccati._riccati_rhs(c, p, DEFAULT_PINV_TOL),
                riccati._riccati_tables, tables, tops, spans, h,
            )

    def top(g):
        y = aug.G.copy()
        y[:, 0, 0] = g
        return y

    return run, top


def test_stacked_slices_match_their_one_slice_runs():
    # Riccati slices from terminals 0.5 and 4.0 over the whole grid and a
    # short span in between, stepped together in chunks of other sizes
    # than their one-slice runs: every finished slice is its own run, bit
    # for bit, and the escaping one names the node solve_riccati_direct
    # does, an entry beyond 1e12 its cause.  A slice from 1e200 overflows
    # in its first stage (P^2 = 1e400) and fails at the node below its
    # top, its state non-finite
    run, top = _riccati_stack_runner(benchmarks.scalar_blowup(steps=1000).augmented())
    tops = [top(0.5), top(0.5), top(4.0), top(1e200)]
    spans = [(0, 1000), (300, 370), (0, 1000), (200, 640)]
    path, failed = run(tops, spans)
    assert failed == {2: (749, False), 3: (639, True)}
    assert run(tops[2:3], spans[2:3])[1] == {0: (749, False)}
    assert run(tops[3:], spans[3:])[1] == {0: (639, True)}
    for p in (0, 1):
        lo, hi = spans[p]
        own, own_failed = run([tops[p]], [spans[p]])
        assert not own_failed
        assert np.array_equal(path[1000 - (hi - lo):, p], own[:, 0])
    # m = 2: from 1e308 a stage's R_hat overflows; the eigensolver then
    # runs on the finite slice's matrices alone, which keep their bits
    run, top = _riccati_stack_runner(benchmarks.dead_channel(steps=200).augmented())
    path, failed = run([top(0.5), top(1e308)], [(0, 200), (0, 200)])
    assert failed == {1: (199, True)}
    assert np.array_equal(path[:, 0], run([top(0.5)], [(0, 200)])[0][:, 0])


@st.composite
def _stacks(draw):
    """Grid steps, tops from {0.5, 4.0, 1e200} (finite, finite escape,
    first-stage overflow) and spans inside the grid of 1..4 slices."""
    steps = draw(st.integers(40, 120))
    slices = draw(st.lists(
        st.tuples(st.sampled_from([0.5, 4.0, 1e200]),
                  st.lists(st.integers(0, steps), min_size=2, max_size=2, unique=True)),
        min_size=1, max_size=4))
    return steps, [g for g, _ in slices], [tuple(sorted(ends)) for _, ends in slices]


@given(_stacks(), st.sampled_from([1, 3, 8, 64]))
@settings(max_examples=150)
def test_stack_property_slices_are_their_one_slice_runs(stack, block):
    # in chunks of every size, each slice that did not fail is its own
    # run, bit for bit over its span, and each failed one fails at the
    # node and for the cause its own run names
    steps, gs, spans = stack
    run, top = _riccati_stack_runner(benchmarks.scalar_blowup(steps=steps).augmented())
    tops = [top(g) for g in gs]
    with mock.patch.object(riccati, "_BLOCK_STEPS", block):
        path, failed = run(tops, spans)
    longest = max(hi - lo for lo, hi in spans)
    for p, (lo, hi) in enumerate(spans):
        own, own_failed = run([tops[p]], [(lo, hi)])
        if p in failed:
            assert own_failed == {0: failed[p]}
        else:
            assert not own_failed
            assert np.array_equal(path[longest - (hi - lo):, p], own[:, 0])


def test_stack_ignores_an_escape_below_a_span():
    # a slice from 4.0 over nodes 800..1000 runs on below node 800 beside
    # a full-span slice and escapes there, near node 749; outside its span
    # that is no failure, and the full-span slice is its own run
    run, top = _riccati_stack_runner(benchmarks.scalar_blowup(steps=1000).augmented())
    path, failed = run([top(0.5), top(4.0)], [(0, 1000), (800, 1000)])
    assert not failed
    assert not np.abs(path[:800, 1]).max() <= riccati.BLOWUP_LIMIT
    assert np.array_equal(path[:, 0], run([top(0.5)], [(0, 1000)])[0][:, 0])


def test_stacked_lyapunov_slices_match_their_one_law_calls():
    # the optimal law on the augmented problem, a constant shift of it and
    # a node- and regime-varying law: each slice of the stacked solve is
    # its one-law solve, bit for bit
    spec = _time_varying(benchmarks.two_regime_inhomogeneous(steps=150))
    aug, theta_bar = spec.augmented(), solve_riccati_direct(spec).Theta_bar
    rng = np.random.default_rng(3)
    laws = np.stack([theta_bar, theta_bar + 0.4,
                     theta_bar + rng.uniform(-1.0, 1.0, theta_bar.shape)])
    stacked = solve_lyapunov(aug, laws)
    assert stacked.shape == (3, *solve_lyapunov(aug).shape)
    for law, p_law in zip(laws, stacked):
        assert np.array_equal(p_law, solve_lyapunov(aug, law))


def test_stacked_lyapunov_names_the_diverging_law(monkeypatch):
    # the gain 50 makes P escape 1e12 within the horizon; the stack
    # raises at the node the one-law solve names, whatever the chunks
    spec = benchmarks.scalar_benchmark(steps=1000)
    gains = np.stack([np.zeros((1001, 1, 1, 1)), np.full((1001, 1, 1, 1), 50.0)])
    for block in (1, 7, BLOCK, 250, 251):
        monkeypatch.setattr(riccati, "_BLOCK_STEPS", block)
        with pytest.raises(DivergenceError) as one:
            solve_lyapunov(spec, gains[1])
        with pytest.raises(DivergenceError) as stack:
            solve_lyapunov(spec, gains)
        assert (stack.value.node, stack.value.non_finite) == (one.value.node, False)
        assert one.value.node == 756
    with pytest.raises(InvalidInputError, match="theta shape"):
        solve_lyapunov(spec, gains[:0])


def _paths_by_block_size(monkeypatch, spec, block):
    monkeypatch.setattr(riccati, "_BLOCK_STEPS", block)
    direct = solve_riccati_direct(spec)
    aff = solve_eta(spec, direct)
    lyap = solve_lyapunov(spec, direct.Theta)
    return direct.P, lyap, aff.eta, aff.value_integral



@pytest.mark.parametrize("steps", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_block_size_does_not_change_paths(monkeypatch, steps):
    spec = _time_varying(benchmarks.two_regime_inhomogeneous(steps=steps))
    blocked = _paths_by_block_size(monkeypatch, spec, BLOCK)
    single = _paths_by_block_size(monkeypatch, spec, 1)
    for got, want in zip(single, blocked):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


# at 251 the escape, step 250 of the sweep, is a chunk's last step, and
# at 250 a chunk's first
@pytest.mark.parametrize("block", [1, 7, BLOCK, 250, 251])
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
        p = solve_lyapunov(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * p.nbytes, peak / p.nbytes


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
    # regimes are labelled from 1, as in the problem file and the CLI
    assert "regime 1 " in sol.classification.reason
    assert sol.classification.residual is None  # no range test decided


def test_dead_channel_is_regular_and_dead_offset_is_not():
    # the second control is dead in regime 2, so R_hat is singular there
    # with S_hat inside its range: P is regular; a linear cost on the
    # dead control puts rho_hat outside that range, which leaves no
    # closed-loop optimal law
    channel = solve_riccati_direct(benchmarks.dead_channel(steps=60))
    offset = solve_riccati_direct(benchmarks.dead_offset(steps=60))
    assert str(channel.classification) == "regular"
    assert channel.classification.is_regular
    assert channel.min_eig_R_hat.min() == 0.0
    assert not channel.Theta_bar[:, 1, 1].any()
    assert offset.classification.kind == "not_regular"
    assert offset.classification.reason.startswith(
        "offset range condition fails at node 0, regime 2 "
    )
    assert offset.classification.residual == pytest.approx(0.4, rel=1e-12)
    # the offset data reaches neither P nor its gain
    assert np.array_equal(offset.P, channel.P)
    assert np.array_equal(offset.Theta, channel.Theta)
    for spec in (benchmarks.dead_channel(steps=60), benchmarks.dead_offset(steps=60)):
        with pytest.raises(NotStronglyRegularError):
            iterate_strongly_regular(spec)


def _reclassify(sol, s_bar=None, r_hat=None):
    """The verdict of ``sol`` with its S_bar or R_hat replaced."""
    s_bar = sol.S_bar if s_bar is None else s_bar
    r_hat = sol.R_hat if r_hat is None else r_hat
    _, r_hat_pinv = matcore.pinv(r_hat, sol.pinv_tol)
    return riccati._classify(
        s_bar, r_hat, r_hat_pinv, sol.min_eig_R_hat, sol.classification.strong_tol,
    )


def test_offset_range_failure_on_strongly_regular_solution_is_not_regular():
    sol = solve_riccati_direct(benchmarks.two_regime_inhomogeneous(steps=50))
    assert sol.classification.kind == "strongly_regular"
    # a zero R_hat has the zero pseudo-inverse, so rho_hat leaves its
    # range; strong regularity skips the S_hat test, not the offset test
    cls = _reclassify(sol, r_hat=np.zeros_like(sol.R_hat))
    assert cls.kind == "not_regular"
    assert cls.reason.startswith("offset range condition fails at node")


def test_range_failures_name_the_column_that_fails():
    sol = solve_riccati_direct(benchmarks.dead_offset(steps=40))
    s_bar = sol.S_bar.copy()
    s_bar[7, 1, 1, 0] = 0.25  # the dead control's S_hat entry in regime 2
    cls = _reclassify(sol, s_bar=s_bar)
    assert cls.reason == "range inclusion fails at node 7, regime 2 (residual 2.500e-01)"
    assert cls.residual == 0.25
    s_bar[7, 1, 1, 0] = 0.0
    s_bar[:, 1, 1, 1] = 0.0  # the dead control's rho_hat entry
    assert str(_reclassify(sol, s_bar=s_bar)) == "regular"


@pytest.mark.parametrize("solver", [solve_riccati_direct, iterate_strongly_regular])
@pytest.mark.parametrize("strong_tol", [0.0, -5.0, np.nan, np.inf])
def test_solvers_reject_bad_strong_tol(solver, strong_tol):
    # at or below zero an indefinite problem would certify as strongly regular
    with pytest.raises(InvalidInputError, match="strong_tol"):
        solver(benchmarks.negative_r(steps=50), strong_tol=strong_tol)


@pytest.mark.parametrize("solver", [solve_riccati_direct, iterate_strongly_regular])
@pytest.mark.parametrize("pinv_tol", [0.0, 1.0, -1e-12, np.nan])
def test_solvers_reject_bad_pinv_tol(solver, pinv_tol):
    with pytest.raises(InvalidInputError, match="pinv_tol"):
        solver(benchmarks.scalar_benchmark(steps=8), pinv_tol=pinv_tol)


# --------------------------------------------------------- iteration


def test_iteration_scalar_matches_analytic():
    spec = benchmarks.scalar_benchmark(steps=500)
    sol = iterate_strongly_regular(spec, max_iter=30, conv_tol=1e-10)
    want = benchmarks.scalar_benchmark_solution(spec.grid.nodes())
    assert np.abs(sol.P[:, 0, 0, 0] - want).max() <= 1e-8
    deltas = sol.iteration_trace
    assert all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:]))
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
    _, _, iterates = iterate_one_by_one(spec, 50, 1e-10)
    for p_prev, p_next in zip(iterates, iterates[1:]):
        diff = p_prev - p_next
        min_eig = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, -1, -2)))
        assert min_eig.min() >= -1e-8


def test_iteration_rejects_nonconvex():
    with pytest.raises(NotStronglyRegularError):
        iterate_strongly_regular(benchmarks.negative_r(steps=50))


PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@pytest.mark.parametrize("name, eigh_runs", [("scalar", False), ("dead_channel", True)])
def test_scalar_control_solve_runs_no_eigensolver(name, eigh_runs):
    # a scalar control's R_hat is 1 x 1: its pseudo-inverse, in the RK4
    # stages and at the nodes, is taken in closed form; m = 2 still runs eigh
    spec, _ = parse_problem(PROBLEMS / f"{name}.yaml")
    assert (spec.m == 1) != eigh_runs
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        solve_riccati_direct(spec)
    assert eigh.called == eigh_runs


@pytest.mark.parametrize(
    "arg, value",
    [("max_iter", 0), ("max_iter", -2), ("conv_tol", 0.0), ("conv_tol", -1e-10),
     ("conv_tol", np.nan), ("conv_tol", np.inf)],
)
def test_iteration_rejects_bad_arguments(arg, value):
    with pytest.raises(InvalidInputError, match=arg):
        iterate_strongly_regular(benchmarks.scalar_benchmark(steps=8), **{arg: value})


@pytest.mark.parametrize("name", ["negative_r", "blowup"])
def test_iteration_rejects_bundled_nonconvex_at_first_iterate(name):
    spec, _ = parse_problem(PROBLEMS / f"{name}.yaml")
    with pytest.raises(NotStronglyRegularError) as err:
        iterate_strongly_regular(spec)
    *_, min_eig = riccati._derived_tables(spec, solve_lyapunov(spec), DEFAULT_PINV_TOL)
    assert err.value.min_eig == float(min_eig.min()) <= 0.0


def _outcome(run):
    """The bytes of P and the trace of a run, or its error's type and
    message."""
    try:
        p, trace, *_ = run()
    except (DivergenceError, NotStronglyRegularError, NonConvergenceError) as exc:
        return type(exc), str(exc)
    return p.tobytes(), trace


def _staggered(spec, **kwargs):
    sol = iterate_strongly_regular(spec, **kwargs)
    return sol.P_bar, sol.iteration_trace


@st.composite
def _small_specs(draw):
    """Problems with n, m, D <= 2 and N <= 40 whose A, C, S and R vary
    along the grid.  R may be indefinite or nearly singular, and A or the
    horizon large enough for a sweep to diverge."""
    d, n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    grid = TimeGrid(0.0, draw(st.sampled_from([0.5, 1.0, 4.0])), draw(st.integers(2, 40)))

    def stack(*shape, scale=1.0):
        elements = st.floats(-1.0, 1.0, allow_subnormal=False)
        return scale * draw(hnp.arrays(np.float64, (d, *shape), elements=elements))

    off = draw(hnp.arrays(np.float64, (d, d), elements=st.floats(0.0, 2.0)))
    off *= 1.0 - np.eye(d)
    gen = Generator.constant(off - np.diag(off.sum(axis=1)), grid)
    w, q, g = stack(m, m), stack(n, n), stack(n, n)
    r_shift = draw(st.sampled_from([-0.5, 1e-3, 1.0]))
    spec = ProblemSpec.from_regimes(
        grid, gen,
        A=list(stack(n, n, scale=draw(st.sampled_from([0.5, 4.0, 12.0])))),
        B=list(stack(n, m)), C=list(stack(n, n)), D=list(stack(n, m, scale=0.5)),
        Q=list(q @ np.swapaxes(q, -1, -2)), S=list(stack(m, n, scale=0.3)),
        R=list(w @ np.swapaxes(w, -1, -2) + r_shift * np.eye(m)),
        G=list(g @ np.swapaxes(g, -1, -2)),
    )
    return _time_varying(spec)


def _error_race(case):
    """Problems where a later sweep fails first while an earlier one fails
    further down.  "divergence": P_0 diverges under a growing A, while
    P_1, driven by the gain -S/R with R = 1e-3, diverges sooner.
    "gain_check": P_2 diverges before the gain check on P_1 fails
    further down."""
    if case == "divergence":
        grid = TimeGrid(0.0, 4.0, 18)
        spec = ProblemSpec.from_regimes(
            grid, Generator.constant([[0.0]], grid), A=[[[4.0]]], B=np.zeros((1, 2)),
            C=[[[0.0]]], D=np.zeros((1, 2)), Q=[[[0.0]]], S=np.zeros((2, 1)),
            R=1e-3 * np.eye(2), G=[[[0.25]]],
        )
    else:
        grid = TimeGrid(0.0, 0.5, 28)
        zero = np.zeros((1, 1))
        spec = ProblemSpec.from_regimes(
            grid, Generator.constant([[-1.0, 1.0], [1.0, -1.0]], grid), A=zero,
            B=[[[0.0]], [[0.75]]], C=zero, D=[[[0.5]], [[0.0]]], Q=zero, S=zero,
            R=[[[1.001]], [[1e-3]]], G=zero,
        )
    return _time_varying(spec)


def _counted_sweeps(monkeypatch):
    """Every sweep the iteration makes, and a one-item list counting its
    waves."""
    made, waves = [], [0]

    class Counted(riccati._Sweep):
        def __init__(self, j, y):
            super().__init__(j, y)
            made.append(self)

    def wave(*args):
        waves[0] += 1
        return run_wave(*args)

    run_wave = riccati._wave
    monkeypatch.setattr(riccati, "_Sweep", Counted)
    monkeypatch.setattr(riccati, "_wave", wave)
    return made, waves


@pytest.mark.parametrize("max_iter", [50, 4, 1])
def test_iteration_starts_only_the_sweeps_it_needs(monkeypatch, max_iter):
    # the loop solving one sweep after another runs P_0 .. P_5 when the
    # sixth sweep converges, P_0 .. P_max_iter otherwise; the staggered
    # one starts at most one sweep beyond those, none beyond max_iter,
    # each one block behind the last it needs, so the 25 blocks and the
    # iterations take 25 + iterations waves
    made, waves = _counted_sweeps(monkeypatch)
    monkeypatch.setattr(riccati, "_BLOCK_STEPS", 8)
    spec = benchmarks.scalar_benchmark(steps=200)
    try:
        iterations = len(iterate_strongly_regular(spec, max_iter=max_iter).iteration_trace)
    except NonConvergenceError as exc:
        iterations = exc.iterations
    assert iterations == min(max_iter, 5)
    assert [s.j for s in made] == list(range(min(iterations + 2, max_iter + 1)))
    assert len(riccati._blocks(200)) == 25
    assert waves[0] == 25 + iterations


def _speculative_failure(case):
    """Problems where P_1 converges at ``conv_tol`` 10 while the
    speculative solve for P_2 fails: "divergence", its gain from P_1 is
    large enough for it to escape 1e12; "gain_check", R_hat(P_1) has a
    negative eigenvalue.  Neither ever runs in the one-by-one loop."""
    grid, (a, b, c, d, q, s, r, g) = {
        "divergence": (TimeGrid(0.0, 4.0, 10),
                       (-2.25, -0.63, -0.12, 0.01, 0.17, -0.16, 0.122, 0.87)),
        "gain_check": (TimeGrid(0.0, 0.5, 8), (0.12, 0.9, 0.87, 0.43, 0.53, 0.16, 0.011, 0.04)),
    }[case]
    return ProblemSpec.from_regimes(
        grid, Generator.constant([[0.0]], grid), A=[[[a]]], B=[[[b]]], C=[[[c]]],
        D=[[[d]]], Q=[[[q]]], S=[[[s]]], R=[[[r]]], G=[[[g]]],
    )


@pytest.mark.parametrize("case, block", [("divergence", 2), ("gain_check", 3)])
def test_iteration_drops_a_speculative_sweep_that_fails(monkeypatch, case, block):
    # P_1 converges, so the result and trace are the loop's and no failure
    # beyond P_1 is raised: "divergence", the speculative sweep 2 diverges
    # while sweep 1 runs on, and is dropped; "gain_check", sweep 1 fails
    # its own gain check on its first block, so it is final at once and
    # sweep 2 never starts
    made, _ = _counted_sweeps(monkeypatch)
    monkeypatch.setattr(riccati, "_BLOCK_STEPS", block)
    spec = _speculative_failure(case)
    want = _outcome(lambda: iterate_one_by_one(spec, 4, 10.0))
    got = _outcome(lambda: _staggered(spec, max_iter=4, conv_tol=10.0))
    assert got == want
    assert len(want[1]) == 1
    assert made[1].error is None
    if case == "divergence":
        assert [s.j for s in made] == [0, 1, 2]
        assert isinstance(made[2].error, DivergenceError)
    else:
        assert [s.j for s in made] == [0, 1]
        assert made[1].gain_min < 0.0


@pytest.mark.parametrize(
    "case, max_iter, error",
    [("divergence", 1, DivergenceError), ("gain_check", 2, NotStronglyRegularError)],
)
def test_iteration_raises_the_earliest_sweeps_error(monkeypatch, case, max_iter, error):
    # the later sweep's error is found first and must be held back
    monkeypatch.setattr(riccati, "_BLOCK_STEPS", 1)
    spec = _error_race(case)
    want = _outcome(lambda: iterate_one_by_one(spec, max_iter, 1e-10))
    assert want[0] is error
    assert _outcome(lambda: _staggered(spec, max_iter=max_iter)) == want


@given(
    _small_specs(), st.integers(1, 4), st.sampled_from([1e-10, 1e-3, 1e-1, 10.0]),
    st.integers(1, 8),
)
@settings(max_examples=300)
def test_iteration_property_equals_one_by_one(spec, max_iter, conv_tol, block):
    # blocks of 1..8 steps on N <= 40 stagger several sweeps at once
    with mock.patch.object(riccati, "_BLOCK_STEPS", block):
        want = _outcome(lambda: iterate_one_by_one(spec, max_iter, conv_tol))
        got = _outcome(lambda: _staggered(spec, max_iter=max_iter, conv_tol=conv_tol))
    assert got == want


def _assert_same_solution(got, want):
    for f in dataclasses.fields(riccati.RiccatiSolution):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("name, block, max_iter", [
    ("standard", 64, 50), ("standard", 7, 50), ("standard", 7, 5), ("wide-1", 64, 5),
    ("wide-1", 9, 50),
])
def test_iteration_result_equals_a_full_path_build(monkeypatch, name, block, max_iter):
    # the result sweep keeps the derived tables of each block it steps;
    # joined, they are bit for bit those of one pass over its whole path,
    # for a block that does not divide N = 500 too, and for a result at
    # max_iter (both problems converge in 5 solves)
    monkeypatch.setattr(riccati, "_BLOCK_STEPS", block)
    spec = wide_spec(1) if name == "wide-1" else parse_problem(PROBLEMS / f"{name}.yaml")[0]
    sol = iterate_strongly_regular(spec, max_iter=max_iter)
    assert len(sol.iteration_trace) == 5
    want = riccati._build_solution(
        spec.augmented(), sol.P_bar, sol.pinv_tol, sol.classification.strong_tol,
        sol.iteration_trace)
    _assert_same_solution(sol, want)


def test_iteration_takes_no_gains_no_sweep_reads(monkeypatch):
    # standard.yaml needs 5 solves: at max_iter = 4 the last sweep keeps
    # its gains and tables only on the top blocks, while its running
    # delta is below conv_tol, and none once it cannot be the result;
    # every earlier sweep takes gains on every block, for the next to read
    made, _ = _counted_sweeps(monkeypatch)
    spec = parse_problem(PROBLEMS / "standard.yaml")[0]
    with pytest.raises(NonConvergenceError):
        iterate_strongly_regular(spec, max_iter=4)
    n_blocks = len(riccati._blocks(spec.grid.steps))
    assert [len(s.gains) for s in made[:4]] == [n_blocks] * 4
    assert 0 < len(made[4].gains) < n_blocks == len(made[4].blocks)
    assert all(s.derived is None for s in made)


def _assert_bitwise_symmetric(p_bar):
    # array_equal takes -0.0 for 0.0; the bits tell them apart
    bits = p_bar.view(np.int64)
    assert np.array_equal(bits, np.swapaxes(bits, -1, -2))


_SOLVES = [(name, "direct") for name in
           ("scalar", "standard", "two_regime", "negative_r", "dead_channel", "dead_offset")]
_SOLVES += [(name, "iterate") for name in ("scalar", "standard", "two_regime")]
_SOLVES += [(f"wide-{seed}", route) for seed in (1, 2, 3) for route in ("direct", "iterate")]


@pytest.mark.parametrize("name, route", _SOLVES)
def test_solution_is_symmetric_bit_for_bit(name, route):
    # riccati.csv formats only P's upper triangle; blowup diverges, and
    # iterate rejects the other bundled problems
    if name.startswith("wide"):
        spec = wide_spec(int(name[5:]))
    else:
        spec = parse_problem(PROBLEMS / f"{name}.yaml")[0]
    solve = solve_riccati_direct if route == "direct" else iterate_strongly_regular
    _assert_bitwise_symmetric(solve(spec).P_bar)


@given(_small_specs(), st.booleans())
@settings(max_examples=100)
def test_solution_property_symmetric_bit_for_bit(spec, direct):
    try:
        sol = solve_riccati_direct(spec) if direct else iterate_strongly_regular(spec)
    except (DivergenceError, NotStronglyRegularError, NonConvergenceError):
        return
    _assert_bitwise_symmetric(sol.P_bar)
