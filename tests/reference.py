"""Reference implementations that the tests compare the package against."""

import numpy as np

from regimelq import matcore, verify
from regimelq.affine import value_function
from regimelq.model import _hats
from regimelq.riccati import (
    DEFAULT_PINV_TOL,
    NonConvergenceError,
    NotStronglyRegularError,
    solve_lyapunov,
)
from regimelq.sim import (
    _cell_transitions,
    _closed_loop_tables,
    _expected_values,
    _open_loop_table,
    mc_value,
    simulate_closed_loop,
)


def iterate_one_by_one(spec, max_iter, conv_tol):
    """The fixed-point loop with each linear solve run to the end before
    the next: the reference the staggered sweeps of
    :func:`regimelq.riccati.iterate_strongly_regular` must reproduce.
    Like them it runs on the problem in x_bar = [x, 1]; returns the last
    P_bar, the trace and every P_bar iterate from P_0 on."""
    spec = spec.augmented()
    p_n = solve_lyapunov(spec)
    trace, iterates = [], [p_n]
    for _ in range(max_iter):
        s_hat, r_hat = _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p_n)
        eig, r_hat_pinv = matcore.pinv(r_hat, DEFAULT_PINV_TOL)
        if eig[..., 0].min() <= 0.0:
            raise NotStronglyRegularError(float(eig[..., 0].min()))
        p_next = solve_lyapunov(spec, -(r_hat_pinv @ s_hat))
        trace.append(float(np.linalg.norm(p_next - p_n, axis=(-2, -1)).max()))
        iterates.append(p_next)
        p_n = p_next
        if trace[-1] < conv_tol:
            return p_n, trace, iterates
    raise NonConvergenceError(len(trace), trace[-1])


def _euler_values(spec, theta, v, trans, k0, i0):
    """Exact expected Euler cost matrix of the one law (theta, v) from
    node k0 and regime i0: one law per recursion."""
    (vals,) = _expected_values(_closed_loop_tables(spec, theta, v), trans, k0)
    return vals[i0]


def certify_one_law_per_call(spec, ric, aff, t0, i0, x0, paths, seed, controls, threads=1):
    """The rows of :func:`regimelq.verify.certify` with every law priced in
    a call of its own: one Lyapunov solve per law, M0's backward side from
    the zero-gain solve of the problem itself (not of the problem in
    x_bar = [x, 1]), and one Euler recursion per law, each with its own
    transition table and homogeneous copy.  The draws and the rows are
    certify's."""
    k0, n, h = spec.grid.node_index(t0), spec.n, spec.grid.h
    n_nodes = spec.grid.steps + 1
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    v_fn = value_function(ric, aff, t0, i0, x0)
    report = verify.VerificationReport()

    chain, path = simulate_closed_loop(spec, ric, aff, i0, x0, np.random.default_rng([seed, 1]))
    res = verify.stationarity_residual(spec, ric, aff, chain, path)
    report.add("stationarity_max_residual", float(np.linalg.norm(res, axis=1).max()),
               1e-6 + 10.0 * h, seed=seed)
    est = mc_value(spec, ric, aff, t0, i0, x0, paths, seed, threads)
    _, u_path = simulate_closed_loop(spec, ric, aff, i0, x0, np.random.default_rng([seed, 2]))
    v_dir = np.random.default_rng([seed, 3]).normal(size=(n_nodes, spec.m))

    aug = spec.augmented()
    p_bar = np.stack([solve_lyapunov(aug, law)[k0, i0]
                      for law in verify._perturbed_laws(spec, ric, aff, seed)])
    report.extend(verify._value_rows(est, v_fn, p_bar @ x_bar @ x_bar, h))

    trans = _cell_transitions(spec.gen, spec.grid)
    e_h = float(x_bar @ _euler_values(spec, ric.Theta, aff.v_star, trans, k0, i0) @ x_bar)
    report.extend(verify._euler_bias_row(e_h, v_fn, h))

    hspec = spec.homogeneous()
    zero = np.zeros((n_nodes, spec.n_regimes, spec.m))
    m0_h = _euler_values(hspec, None, zero, _cell_transitions(spec.gen, spec.grid), k0, i0)
    report.extend(verify._m0_row(m0_h[:n, :n], solve_lyapunov(spec)[k0, i0], h))

    probes = verify._probe_controls(spec, k0, controls, seed)
    ratios = np.array([homogeneous_cost(spec, u, k0, i0) for u in probes])
    report.extend(verify._probe_row(ratios, seed))
    return report.extend(frechet_rows(spec, k0, i0, x0, u_path.u, v_dir, (0.05, 0.1)))


def homogeneous_cost(spec, u, k0, i0):
    """Exact expected Euler cost of the open-loop control u on the
    homogeneous problem from zero state, x_bar = [0, 1]."""
    hspec = spec.homogeneous()
    trans = _cell_transitions(hspec.gen, hspec.grid)
    return _euler_values(hspec, None, _open_loop_table(hspec, u), trans, k0, i0)[-1, -1]


def frechet_rows(spec, k0, i0, x0, u, v, sizes):
    """The Fréchet rows of control u along direction v for eps = 0 and
    +-each of ``sizes``, every eps-law priced in its own recursion."""
    eps = np.array(sorted({0.0, *sizes, *(-e for e in sizes)}))
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    trans = _cell_transitions(spec.gen, spec.grid)
    vals = np.stack([
        _euler_values(spec, None, _open_loop_table(spec, u + e * v), trans, k0, i0)
        for e in eps
    ])
    j0 = float(homogeneous_cost(spec, v, k0, i0))
    return verify._frechet_rows(eps, vals @ x_bar @ x_bar, j0)
