"""Monte-Carlo engine: chain sampling, Euler-Maruyama, cost evaluation.

Chain jumps are sampled by thinning against a dominating rate, with the
intensities interpolated piecewise-linearly between grid nodes (exact
competing exponentials for a constant generator).  Regime changes take
effect at the next grid node for the state integrator, consistent with
the Euler-Maruyama order.  Batched internals carry all paths as leading
axes; path streams are addressed by (seed, batch) so reductions are
deterministic regardless of scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .affine import AffineSolution
from .model import Generator, ProblemSpec, TimeGrid, interp_nodes
from .riccati import BLOWUP_LIMIT, DivergenceError, RiccatiSolution

__all__ = [
    "ChainPath",
    "StatePath",
    "MCEstimate",
    "MCMatrixEstimate",
    "simulate_chain",
    "brownian_increments",
    "simulate_state",
    "simulate_policy",
    "simulate_closed_loop",
    "evaluate_cost",
    "mc_value",
    "feynman_kac_M0",
]

BATCH_PATHS = 4096


def as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class ChainPath:
    """One realized regime trajectory on the grid.

    ``alpha`` holds the right-continuous regime value at each node;
    ``jumps`` the exact (time, from, to) records; ``counts[k, j]`` the
    number of jumps into regime j up to node k; ``compensators[k, j]``
    the exact integral of the jump intensity into j along the path,
    so counts - compensators is a martingale sampled at the nodes.
    """

    grid: TimeGrid
    i0: int
    alpha: np.ndarray                     # (N + 1,) int
    jumps: tuple[tuple[float, int, int], ...]
    counts: np.ndarray                    # (N + 1, D)
    compensators: np.ndarray              # (N + 1, D)


@dataclass(frozen=True)
class StatePath:
    """One realized controlled state trajectory on the grid."""

    grid: TimeGrid
    x0: np.ndarray
    X: np.ndarray    # (N + 1, n)
    u: np.ndarray    # (N + 1, m)
    dw: np.ndarray   # (N,)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    paths: int
    seed: int


@dataclass(frozen=True)
class MCMatrixEstimate:
    mean: np.ndarray       # (n, n)
    std_error: np.ndarray  # (n, n)
    paths: int
    seed: int


def _rate_cumulative(gen: Generator, grid: TimeGrid) -> np.ndarray:
    """Cumulative node integrals of every intensity entry (trapezoid is
    exact for the piecewise-linear rate model)."""
    h = grid.h
    steps = 0.5 * h * (gen.rates[:-1] + gen.rates[1:])
    out = np.zeros_like(gen.rates)
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def _rate_integral_to(gen, grid, cum, x: float) -> np.ndarray:
    """Exact integral of all intensity entries from t0 to x."""
    k, w = grid.locate(x)
    if w == 0.0:
        return cum[k]
    t_k = grid.nodes()[k]
    rate_x = (1.0 - w) * gen.rates[k] + w * gen.rates[k + 1]
    return cum[k] + 0.5 * (x - t_k) * (gen.rates[k] + rate_x)


def simulate_chain(gen: Generator, grid: TimeGrid, i0: int, rng) -> ChainPath:
    """Sample one regime path with exact jump times and compensators.

    Thinning runs against the global dominating rate (the largest exit
    intensity over all nodes and regimes, a valid bound for the
    piecewise-linear rate model); acceptance uses the interpolated rates.
    """
    rng = as_rng(rng)
    d = gen.n_regimes
    t_nodes = grid.nodes()
    n_nodes = t_nodes.size
    exit_rates = -np.einsum("kii->ki", gen.rates)
    m_dom = float(exit_rates.max()) if d > 1 else 0.0

    jumps: list[tuple[float, int, int]] = []
    cur = i0
    if m_dom > 0.0:
        t = grid.t0
        while True:
            t += rng.exponential(1.0 / m_dom)
            if t >= grid.T:
                break
            row = interp_nodes(gen.rates, grid, t)[cur]
            exit_rate = -row[cur]
            if exit_rate <= 0.0:
                continue
            if rng.uniform() < exit_rate / m_dom:
                weights = np.maximum(row, 0.0)
                weights[cur] = 0.0
                target = int(rng.choice(d, p=weights / weights.sum()))
                jumps.append((t, cur, target))
                cur = target

    jump_times = np.array([j[0] for j in jumps])
    seq = np.array([i0] + [j[2] for j in jumps], dtype=np.int64)
    alpha = seq[np.searchsorted(jump_times, t_nodes, side="right")]

    counts = np.zeros((n_nodes, d))
    for t_j, _, target in jumps:
        counts[np.searchsorted(t_nodes, t_j, side="left"):, target] += 1.0

    compensators = _compensator_exact(gen, grid, seq, jump_times, t_nodes)

    return ChainPath(
        grid=grid, i0=i0, alpha=alpha, jumps=tuple(jumps),
        counts=counts, compensators=compensators,
    )


def _compensator_exact(gen, grid, seq, jump_times, t_nodes):
    """Per-node compensators: exact integral of the intensity into each
    target regime along the realized path (own-regime entry excluded)."""
    comp = np.zeros((t_nodes.size, gen.n_regimes))
    cum = _rate_cumulative(gen, grid)
    seg_edges = [grid.t0, *jump_times.tolist(), grid.T]
    for s, (a, b) in enumerate(zip(seg_edges[:-1], seg_edges[1:])):
        if b <= a:
            continue
        reg = int(seq[s])
        f_a = _rate_integral_to(gen, grid, cum, a)[reg]
        f_b = _rate_integral_to(gen, grid, cum, b)[reg]
        inside = (t_nodes > a) & (t_nodes < b)
        if inside.any():
            seg = cum[inside, reg, :] - f_a
            seg[:, reg] = 0.0
            comp[inside] += seg
        tail = f_b - f_a
        tail[reg] = 0.0
        comp[t_nodes >= b] += tail
    return comp


def brownian_increments(grid: TimeGrid, rng, n_paths: int = 1, k0: int = 0) -> np.ndarray:
    """N(0, h) increments, shape (n_paths, N); zeros before node k0."""
    rng = as_rng(rng)
    out = np.zeros((n_paths, grid.steps))
    out[:, k0:] = rng.normal(0.0, np.sqrt(grid.h), (n_paths, grid.steps - k0))
    return out


def _sample_regime_paths(
    gen: Generator, grid: TimeGrid, i0: int, n_paths: int, rng, k0: int = 0
) -> np.ndarray:
    """Node-aligned regime values for a batch of paths (thinning per cell
    with the dominating rate taken over the cell endpoints)."""
    rng = as_rng(rng)
    d = gen.n_regimes
    n_steps = grid.steps
    t_nodes = grid.nodes()
    h = grid.h
    alpha = np.full((n_paths, n_steps + 1), i0, dtype=np.int64)
    if d == 1:
        return alpha
    cur = np.full(n_paths, i0, dtype=np.int64)
    exit_rates = -np.einsum("kii->ki", gen.rates)
    for k in range(k0, n_steps):
        m_dom = float(max(exit_rates[k].max(), exit_rates[k + 1].max()))
        if m_dom <= 0.0:
            alpha[:, k + 1] = cur
            continue
        r_lo, r_hi = gen.rates[k], gen.rates[k + 1]
        tau = np.full(n_paths, t_nodes[k])
        active = np.arange(n_paths)
        while active.size:
            tau[active] += rng.exponential(1.0 / m_dom, active.size)
            active = active[tau[active] < t_nodes[k + 1]]
            if not active.size:
                break
            w = ((tau[active] - t_nodes[k]) / h)[:, None]
            rows = (1.0 - w) * r_lo[cur[active]] + w * r_hi[cur[active]]
            exit_loc = -rows[np.arange(active.size), cur[active]]
            accept = rng.uniform(size=active.size) < exit_loc / m_dom
            acc = active[accept]
            if acc.size:
                wts = np.maximum(rows[accept], 0.0)
                wts[np.arange(acc.size), cur[acc]] = 0.0
                cdf = np.cumsum(wts, axis=1)
                total = cdf[:, -1]
                draw = rng.uniform(size=acc.size) * total
                cur[acc] = (cdf > draw[:, None]).argmax(axis=1)
        alpha[:, k + 1] = cur
    return alpha


def _gather(field: np.ndarray, k: int, reg: np.ndarray) -> np.ndarray:
    return field[k][reg]


def _open_loop_table(spec: ProblemSpec, u) -> np.ndarray:
    """Per-node control samples (N + 1, m) as a regime-broadcast offset
    table (N + 1, D, m), so that u = v runs through the feedback
    integrator with no gain."""
    u = np.asarray(u, dtype=float)
    return np.broadcast_to(u[:, None, :], (u.shape[0], spec.n_regimes, spec.m))


def _integrate_policy(spec, alpha, theta, v, x0, dw, k0=0):
    """Euler-Maruyama under the affine control u = theta x + v.

    ``theta``/``v`` are node- and regime-indexed tables; ``theta`` None is
    open loop (u = v, see :func:`_open_loop_table`).  Returns the state
    (P, N + 1, n) and the realized controls (P, N + 1, m).
    """
    n_paths, n_steps = dw.shape
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, spec.n)).copy()
    xs = np.zeros((n_paths, n_steps + 1, spec.n))
    us = np.zeros((n_paths, n_steps + 1, spec.m))
    xs[:, k0] = x
    h = spec.grid.h

    def control(k, reg, x):
        if theta is None:
            return _gather(v, k, reg)
        uk = np.einsum("pij,pj->pi", _gather(theta, k, reg), x)
        uk += _gather(v, k, reg)
        return uk

    for k in range(k0, n_steps):
        reg = alpha[:, k]
        uk = control(k, reg, x)
        us[:, k] = uk
        drift = np.einsum("pij,pj->pi", _gather(spec.A, k, reg), x)
        drift += np.einsum("pij,pj->pi", _gather(spec.B, k, reg), uk)
        drift += _gather(spec.b, k, reg)
        diff = np.einsum("pij,pj->pi", _gather(spec.C, k, reg), x)
        diff += np.einsum("pij,pj->pi", _gather(spec.D, k, reg), uk)
        diff += _gather(spec.sigma, k, reg)
        x = x + h * drift + dw[:, k, None] * diff
        if not np.abs(x).max() <= BLOWUP_LIMIT:  # also catches NaN
            raise DivergenceError(k + 1, spec.grid.nodes()[k + 1])
        xs[:, k + 1] = x
    us[:, n_steps] = control(n_steps, alpha[:, n_steps], x)
    return xs, us


def _cost_batch(spec, alpha, xs, us, k0=0):
    """Trapezoidal running cost plus terminal term, one value per path."""
    n_paths = xs.shape[0]
    n_steps = spec.grid.steps
    h = spec.grid.h
    integrand = np.zeros((n_paths, n_steps + 1 - k0))
    for k in range(k0, n_steps + 1):
        reg = alpha[:, k]
        xk, uk = xs[:, k], us[:, k]
        qx = np.einsum("pij,pj->pi", _gather(spec.Q, k, reg), xk)
        term = np.einsum("pi,pi->p", qx + 2.0 * _gather(spec.q, k, reg), xk)
        sx = np.einsum("pij,pj->pi", _gather(spec.S, k, reg), xk)
        term += 2.0 * np.einsum("pi,pi->p", sx, uk)
        ru = np.einsum("pij,pj->pi", _gather(spec.R, k, reg), uk)
        term += np.einsum("pi,pi->p", ru + 2.0 * _gather(spec.rho, k, reg), uk)
        integrand[:, k - k0] = term
    run = h * (integrand.sum(axis=1) - 0.5 * (integrand[:, 0] + integrand[:, -1]))
    reg = alpha[:, n_steps]
    gx = np.einsum("pij,pj->pi", spec.G[reg], xs[:, n_steps])
    terminal = np.einsum("pi,pi->p", gx + 2.0 * spec.g[reg], xs[:, n_steps])
    return run + terminal


def simulate_state(spec: ProblemSpec, chain: ChainPath, u, x0, rng=None, dw=None) -> StatePath:
    """Integrate one state path under given control samples per node."""
    u = np.asarray(u, dtype=float).reshape(spec.grid.steps + 1, spec.m)
    return simulate_policy(spec, chain, None, _open_loop_table(spec, u), x0, rng, dw)


def simulate_policy(
    spec: ProblemSpec, chain: ChainPath, theta: np.ndarray | None, v: np.ndarray,
    x0, rng=None, dw=None,
) -> StatePath:
    """Integrate one state path under a node/regime-indexed feedback law
    (``theta`` None: open loop u = v)."""
    if dw is None:
        dw = brownian_increments(spec.grid, rng, 1)
    else:
        dw = np.asarray(dw, dtype=float).reshape(1, spec.grid.steps)
    xs, us = _integrate_policy(spec, chain.alpha[None, :], theta, v, x0, dw)
    return StatePath(
        grid=spec.grid, x0=np.asarray(x0, dtype=float),
        X=xs[0], u=us[0], dw=dw[0],
    )


def simulate_closed_loop(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    aff: AffineSolution,
    i0: int,
    x0,
    rng,
    chain: ChainPath | None = None,
    dw=None,
) -> tuple[ChainPath, StatePath]:
    """Sample the closed-loop system under the synthesized feedback law.

    Draws the chain and Brownian increments unless given (pass both to
    reuse common random numbers).  Returns the chain together with the
    state path because cost evaluation needs the realized regimes.
    """
    if not ric.classification.is_regular:
        raise ValueError(
            f"closed-loop simulation needs a regular solution, got "
            f"{ric.classification}"
        )
    rng = as_rng(rng)
    if chain is None:
        chain = simulate_chain(spec.gen, spec.grid, i0, rng)
    path = simulate_policy(spec, chain, ric.Theta, aff.v_star, x0, rng, dw)
    return chain, path


def evaluate_cost(spec: ProblemSpec, chain: ChainPath, path: StatePath) -> float:
    """Quadratic cost of one realized (chain, state, control) trajectory."""
    return float(
        _cost_batch(spec, chain.alpha[None, :], path.X[None], path.u[None])[0]
    )


def _run_batched(worker, n_paths: int, threads: int = 1):
    """Run seed-addressed batch workers ``worker(batch_start, size)`` over
    ``BATCH_PATHS``-path batches; results come back in batch order."""
    starts = range(0, n_paths, BATCH_PATHS)
    batches = [(b, min(b + BATCH_PATHS, n_paths) - b) for b in starts]
    if threads <= 1 or len(batches) == 1:
        return [worker(b, size) for b, size in batches]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, b, size) for b, size in batches]
        return [f.result() for f in futures]


def mc_value(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    aff: AffineSolution,
    t0: float,
    i0: int,
    x0,
    n_paths: int,
    rng_seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Closed-loop cost estimate from (t0, x0, i0) over independent paths."""
    k0 = spec.grid.node_index(t0)

    def worker(batch_start, size):
        rng = np.random.default_rng([rng_seed, batch_start])
        alpha = _sample_regime_paths(spec.gen, spec.grid, i0, size, rng, k0)
        dw = brownian_increments(spec.grid, rng, size, k0)
        xs, us = _integrate_policy(spec, alpha, ric.Theta, aff.v_star, x0, dw, k0)
        return _cost_batch(spec, alpha, xs, us, k0)

    costs = np.concatenate(_run_batched(worker, n_paths, threads))
    if n_paths > 1 and not np.all(costs == costs[0]):
        se = float(costs.std(ddof=1) / np.sqrt(n_paths))
    else:
        se = 0.0  # degenerate randomness: report an exact zero
    return MCEstimate(
        mean=float(costs.mean()), std_error=se, paths=n_paths, seed=rng_seed
    )


def feynman_kac_M0(
    spec: ProblemSpec,
    t0: float,
    i0: int,
    n_paths: int,
    rng_seed: int,
    threads: int = 1,
) -> MCMatrixEstimate:
    """Path-functional estimate of the zero-control quadratic value matrix.

    Integrates the fundamental-matrix SDE per path and averages the
    terminal-weighted outer product plus the trapezoidal running weight;
    the comparable deterministic object is the zero-gain backward solve
    evaluated at (t0, i0).
    """
    k0 = spec.grid.node_index(t0)
    n_steps, h, n = spec.grid.steps, spec.grid.h, spec.n

    def worker(batch_start, size):
        rng = np.random.default_rng([rng_seed, batch_start])
        alpha = _sample_regime_paths(spec.gen, spec.grid, i0, size, rng, k0)
        dw = brownian_increments(spec.grid, rng, size, k0)
        phi = np.broadcast_to(np.eye(n), (size, n, n)).copy()
        acc = np.zeros((size, n, n))

        def weighted(k, reg):
            qphi = np.einsum("pij,pjk->pik", _gather(spec.Q, k, reg), phi)
            return np.einsum("pji,pjk->pik", phi, qphi)

        w_prev = weighted(k0, alpha[:, k0])
        for k in range(k0, n_steps):
            reg = alpha[:, k]
            a_phi = np.einsum("pij,pjk->pik", _gather(spec.A, k, reg), phi)
            c_phi = np.einsum("pij,pjk->pik", _gather(spec.C, k, reg), phi)
            phi = phi + h * a_phi + dw[:, k, None, None] * c_phi
            w_next = weighted(k + 1, alpha[:, k + 1])
            acc += 0.5 * h * (w_prev + w_next)
            w_prev = w_next
        reg = alpha[:, n_steps]
        g_phi = np.einsum("pij,pjk->pik", spec.G[reg], phi)
        acc += np.einsum("pji,pjk->pik", phi, g_phi)
        return acc

    samples = np.concatenate(_run_batched(worker, n_paths, threads))
    mean = samples.mean(axis=0)
    if n_paths > 1:
        se = samples.std(axis=0, ddof=1) / np.sqrt(n_paths)
        se[np.all(samples == samples[0], axis=0)] = 0.0
    else:
        se = np.zeros_like(mean)
    return MCMatrixEstimate(mean=mean, std_error=se, paths=n_paths, seed=rng_seed)
