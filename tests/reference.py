"""Reference implementations that the tests compare the package against,
and the problems they run on: the bundled files of ``problems/`` and the
test-only instances built here."""

from dataclasses import replace
from pathlib import Path

import numpy as np

from regimelq import matcore, verify
from regimelq.affine import solve_eta, value_function
from regimelq.model import _FIELDS, _RUNNING_FIELDS, Generator, ProblemSpec, TimeGrid, _hats
from regimelq.problemfile import parse_problem
from regimelq.riccati import (
    DEFAULT_RANGE_TOL,
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
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def bundled(name, steps=None):
    """The bundled problem ``problems/<name>.yaml``, resampled onto a grid
    of ``steps`` steps when given."""
    spec, _ = parse_problem(PROBLEMS / f"{name}.yaml")
    return spec if steps is None else spec.with_steps(steps)


def scalar_benchmark_solution(t, horizon=1.0):
    """Closed form P(t) = 1 / (1 + (T - t)) of ``problems/scalar.yaml``:
    unit control weight, input gain and terminal weight, everything else
    zero; the feedback gain is -P and the optimal cost from (t, x) is
    P(t) x^2."""
    return 1.0 / (1.0 + (horizon - np.asarray(t)))


def state_blowup(steps=100):
    """Scalar instance whose state escapes in forward simulation.

    No weight on the state, so the backward solve is exactly zero and
    the optimal control is u = 0; the uncontrolled drift 40 x then
    grows past the blow-up limit before T, and Monte-Carlo simulation
    must abort with a divergence error naming the first bad node.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    return ProblemSpec.from_regimes(
        grid, Generator.constant([[0.0]], grid),
        A=40.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=1.0, G=0.0,
    )


def three_regime_decoupled(steps=400):
    """Three regimes with distinct data and a zero generator.

    With no coupling the joint solve must reproduce three independent
    single-regime solves exactly.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    return ProblemSpec.from_regimes(
        grid, Generator.constant(np.zeros((3, 3)), grid),
        A=[0.5, -0.2, 0.0], B=[1.0, 0.8, 1.3], C=[0.2, 0.4, 0.0],
        D=[0.1, 0.0, 0.2], Q=[1.0, 0.3, 0.7], S=[0.1, 0.0, -0.2],
        R=[1.0, 2.0, 0.5], G=[1.0, 0.5, 2.0],
    )


def single_regime_of(spec, i):
    """Regime i of a spec as an uncoupled single-regime problem."""
    return replace(
        spec,
        gen=Generator.constant([[0.0]], spec.grid),
        **{
            name: getattr(spec, name)[:, i:i + 1] if name in _RUNNING_FIELDS
            else getattr(spec, name)[i:i + 1]
            for name in _FIELDS
        },
    )


def state_decoupled(steps=400):
    """Noise-free scalar instance whose control never feeds the state.

    With zero input gains the running cost is minimized node-wise by the
    feedback law, so the grid-sampled optimal control is stationary for
    the discretized cost as well, to rounding; exact-identity checks
    (quadratic expansion at the optimum, completion of squares) use it.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    return ProblemSpec.from_regimes(
        grid, Generator.constant([[0.0]], grid),
        A=0.4, B=0.0, C=0.0, D=0.0, Q=1.0, S=0.3, R=2.0, G=1.5,
        b=0.2, q=0.1, rho=-0.3, g=0.5,
    )


def cell_transitions_loop(gen, grid):
    """The cell transitions of :func:`regimelq.sim._cell_transitions` by
    its own forward RK4 loop, which sums k1 + 2 (k2 + k3) + k4 where the
    shared stepper sums k1 + 2 k2 + 2 k3 + k4 left to right."""
    q0, q1 = gen.rates[:-1], gen.rates[1:]
    top_rate = float((-np.einsum("kii->ki", gen.rates)).max(initial=0.0))
    n_sub = max(8, int(np.ceil(8.0 * grid.h * top_rate)))
    dt = grid.h / n_sub
    trans = np.broadcast_to(np.eye(gen.n_regimes), q0.shape).copy()
    for s in range(n_sub):
        qa, qm, qb = (q0 + (w / n_sub) * (q1 - q0) for w in (s, s + 0.5, s + 1))
        k1 = trans @ qa
        k2 = (trans + 0.5 * dt * k1) @ qm
        k3 = (trans + 0.5 * dt * k2) @ qm
        k4 = (trans + dt * k3) @ qb
        trans += dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return trans, n_sub


def eigh_pinv(m, rel_tol):
    """Eigenvalues and pseudo-inverse of a symmetric stack from the
    eigensolver at every size: the path that :func:`regimelq.matcore.pinv`
    takes for m > 1, which its 1 x 1 closed form must equal bit for bit."""
    w, v = np.linalg.eigh(m)
    mag = np.abs(w)
    keep = mag > rel_tol * mag.max(axis=-1, keepdims=True)
    inv_w = 1.0 / np.where(keep, w, np.inf)
    return w, v @ (inv_w[..., None] * v.swapaxes(-1, -2))


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
        eig, r_hat_pinv = matcore.pinv(r_hat, matcore.DEFAULT_PINV_TOL)
        if eig[..., 0].min() <= 0.0:
            raise NotStronglyRegularError(float(eig[..., 0].min()))
        p_next = solve_lyapunov(spec, -(r_hat_pinv @ s_hat))
        trace.append(float(np.linalg.norm(p_next - p_n, axis=(-2, -1)).max()))
        iterates.append(p_next)
        p_n = p_next
        if trace[-1] < conv_tol:
            return p_n, trace, iterates
    raise NonConvergenceError(len(trace), trace[-1])


def evaluate_cost(spec, alpha, x, u):
    """Quadratic cost of one realized path: regimes ``alpha``, (N + 1,),
    states ``x``, (N + 1, n), and controls ``u``, (N + 1, m).  The running
    cost xᵀQx + 2uᵀSx + uᵀRu + 2qᵀx + 2ρᵀu at every node at once,
    trapezoidal in time, plus the terminal cost xᵀGx + 2gᵀx, each read
    from the spec's fields, not from the Euler tables: the independent
    check of the cost that :func:`regimelq.sim._integrate_policy`
    accumulates in its loop."""
    idx, reg = np.arange(spec.grid.steps + 1), alpha
    q_xx, s_ux, r_uu, q_x, rho_u = (
        f[idx, reg] for f in (spec.Q, spec.S, spec.R, spec.q, spec.rho))
    integrand = (
        np.einsum("ki,kij,kj->k", x, q_xx, x) + 2.0 * np.einsum("ki,kij,kj->k", u, s_ux, x)
        + np.einsum("ki,kij,kj->k", u, r_uu, u)
        + 2.0 * (np.einsum("ki,ki->k", q_x, x) + np.einsum("ki,ki->k", rho_u, u))
    )
    run = spec.grid.h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
    x_end, i_end = x[-1], reg[-1]
    return float(run + x_end @ spec.G[i_end] @ x_end + 2.0 * spec.g[i_end] @ x_end)


def stationarity_residual(spec, ric, aff, alpha, x, u):
    """First-order optimality residual B^T Y + D^T Z + S X + R u + rho
    along a realized path (regimes ``alpha``, states ``x``, controls
    ``u``), node by node, with the adjoint pair Y = P x + eta,
    Z = P(C x + D u + sigma) of the feedback law u = Theta x + v*: the
    path-wise form of the stationarity row of
    :func:`regimelq.verify.certify`.  Shape (N + 1, m)."""
    idx = np.arange(spec.grid.steps + 1)
    reg = alpha
    b_k = spec.B[idx, reg]
    d_k = spec.D[idx, reg]
    p_k = ric.P[idx, reg]
    theta_k = ric.Theta[idx, reg]
    y = np.einsum("kij,kj->ki", p_k, x) + aff.eta[idx, reg]
    c_eff = spec.C[idx, reg] + d_k @ theta_k
    z_arg = np.einsum("kij,kj->ki", c_eff, x)
    z_arg += np.einsum("kij,kj->ki", d_k, aff.v_star[idx, reg])
    z_arg += spec.sigma[idx, reg]
    z = np.einsum("kij,kj->ki", p_k, z_arg)
    res = np.einsum("kji,kj->ki", b_k, y) + np.einsum("kji,kj->ki", d_k, z)
    res += np.einsum("kij,kj->ki", spec.S[idx, reg], x)
    res += np.einsum("kij,kj->ki", spec.R[idx, reg], u)
    res += spec.rho[idx, reg]
    return res


def _euler_values(spec, theta_bar, trans, k0):
    """Exact expected Euler cost matrices of the one law theta_bar from
    node k0, one per regime: one law per recursion."""
    (vals,) = _expected_values(_closed_loop_tables(spec, theta_bar), trans, k0)
    return vals


def certify_one_law_per_call(spec, ric, t0, i0, x0, paths, seed, controls, threads=1):
    """The rows of :func:`regimelq.verify.certify` with every law priced in
    a call of its own: one Lyapunov solve per law, M0's backward side from
    the zero-gain solve of the problem itself (not of the problem in
    x_bar = [x, 1]), and one Euler recursion per law, each with its own
    transition table and homogeneous copy.  The stationarity row is the
    range residual of the law, as :func:`regimelq.matcore.outside_range`
    takes it.  The value function is the affine module's.  The draws and
    the rows are certify's."""
    k0, n, h = spec.grid.node_index(t0), spec.n, spec.grid.h
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    v_fn = value_function(ric, solve_eta(spec, ric), t0, i0, x0)
    report = verify.VerificationReport()

    s_bar, r_hat = ric.S_bar[k0:], ric.R_hat[k0:]
    resid, _ = matcore.outside_range(r_hat, matcore.pinv(r_hat, ric.pinv_tol)[1], s_bar,
                                     DEFAULT_RANGE_TOL)
    scale = np.maximum(1.0, np.linalg.norm(s_bar, axis=(-2, -1)))
    report.add("stationarity_max_residual", (resid / scale).max(), DEFAULT_RANGE_TOL)
    est = mc_value(spec, ric.Theta_bar, t0, i0, x0, paths, seed, threads)
    report.extend(verify._value_mc_row(est, float(x_bar @ ric.P_bar[k0, i0] @ x_bar), h))

    aug = spec.augmented()
    p_bar = np.stack([solve_lyapunov(aug, law) for law in verify._perturbed_laws(spec, ric, seed)])
    report.extend(verify._no_improvement_rows(p_bar, k0, spec.grid, seed))

    trans = _cell_transitions(spec.gen, spec.grid)
    v_h = _euler_values(spec, ric.Theta_bar, trans, k0)
    report.extend(verify._euler_bias_row(v_h, ric.P_bar[k0], h))

    hspec = spec.homogeneous()
    zero = np.zeros((spec.grid.steps + 1, spec.n_regimes, spec.m, n + 1))
    m0_h = _euler_values(hspec, zero, _cell_transitions(spec.gen, spec.grid), k0)
    report.extend(verify._m0_row(m0_h[:, :n, :n], solve_lyapunov(spec)[k0], h))

    probes = verify._probe_controls(spec, k0, controls, seed)
    ratios = np.array([homogeneous_cost(spec, u, k0) for u in probes])
    return report.extend(verify._probe_row(ratios, seed))


def homogeneous_cost(spec, u, k0):
    """Exact expected Euler cost of the open-loop control u on the
    homogeneous problem from zero state, x_bar = [0, 1], from every
    regime."""
    hspec = spec.homogeneous()
    trans = _cell_transitions(hspec.gen, hspec.grid)
    return _euler_values(hspec, _open_loop_table(hspec, u), trans, k0)[:, -1, -1]


def pointwise_rows(spec, ric, t0, i0, x0, seed):
    """The law-reading rows as they were before they read every node and
    regime: at (t0, x0, i0) only.  Perturbation p's statistic is
    -(J_p - J_0), the gap of the continuous-time costs x_bar^T P_bar x_bar
    of its law and the optimal one, against tolerance 0; ``euler_bias`` is
    |E_h - V| against the bias allowance of V."""
    k0, h = spec.grid.node_index(t0), spec.grid.h
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    v_fn = float(x_bar @ ric.P_bar[k0, i0] @ x_bar)
    aug = spec.augmented()
    costs = [x_bar @ solve_lyapunov(aug, law)[k0, i0] @ x_bar
             for law in verify._perturbed_laws(spec, ric, seed)]
    report = verify.VerificationReport()
    for p_id, cost in enumerate(costs[1:]):
        report.add(f"value_no_improvement_perturbation_{p_id + 1}", costs[0] - cost, 0.0)
    trans = _cell_transitions(spec.gen, spec.grid)
    e_h = float(x_bar @ _euler_values(spec, ric.Theta_bar, trans, k0)[i0] @ x_bar)
    return report.add("euler_bias", abs(e_h - v_fn), verify.euler_bias_budget(h, v_fn))


def quadratic_expansion(spec, k0, i0, x0, u, v, sizes):
    """The expected Euler cost J(u + eps v) from (k0, x0, i0) for eps = 0
    and +-each of ``sizes``, every eps-law priced in its own recursion, and
    the quadratic fitted through it.  The state is affine in the control,
    so the cost is exactly J(u) + 2 eps <grad J(u), v> + eps^2 J0(v), with
    J0(v) the homogeneous cost of v from zero state.  Returns the fit's
    largest residual, its coefficients c0, c1, c2, the centered difference
    at the largest eps, and J0(v)."""
    eps = np.array(sorted({0.0, *sizes, *(-e for e in sizes)}))
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    trans = _cell_transitions(spec.gen, spec.grid)
    costs = np.array([
        x_bar @ _euler_values(spec, _open_loop_table(spec, u + e * v), trans, k0)[i0] @ x_bar
        for e in eps
    ])
    coef = np.polyfit(eps, costs, 2)
    c2, c1, c0 = (float(c) for c in coef)
    return dict(
        fit_residual=float(np.abs(np.polyval(coef, eps) - costs).max()), c0=c0, c1=c1, c2=c2,
        c1_centered=float((costs[-1] - costs[0]) / (2.0 * eps[-1])),
        j0=float(homogeneous_cost(spec, v, k0)[i0]),
    )


def wide_spec(seed):
    """The bench's generated wide problem for ``seed``: n = 8, m = 3,
    D = 4, N = 500, uniformly convex, constant random coefficients."""
    rng = np.random.default_rng([seed, 0x57DE])
    n, m, d = 8, 3, 4
    grid = TimeGrid(0.0, 1.0, 500)
    rates = rng.uniform(0.5, 2.0, (d, d))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))

    def normal(scale, *shape):
        return list(scale * rng.normal(size=(d, *shape)))

    def gram(scale, dim):
        f = rng.normal(size=(d, dim, dim))
        return list(scale * f @ np.swapaxes(f, -1, -2) / dim)

    return ProblemSpec.from_regimes(
        grid, Generator.constant(rates, grid),
        A=normal(0.4 / np.sqrt(n), n, n), B=normal(0.8 / np.sqrt(n), n, m),
        C=normal(0.2 / np.sqrt(n), n, n), D=normal(0.2 / np.sqrt(m), n, m),
        Q=gram(1.0, n), S=[np.zeros((m, n))] * d, R=[np.eye(m) + r for r in gram(0.5, m)],
        G=gram(1.0, n), b=normal(0.3, n), sigma=normal(0.3, n), q=normal(0.3, n),
        rho=normal(0.3, m), g=normal(0.3, n),
    )
