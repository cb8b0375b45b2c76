"""Monte-Carlo engine: chain sampling, Euler-Maruyama, cost evaluation,
and the exact expectation of the Euler scheme.

One node-aligned sampler serves single paths and batches alike.  It
thins against a piecewise-constant dominating rate, with the
intensities interpolated piecewise-linearly between grid nodes: each
path's unit-rate stream is mapped through the cumulative dominating
intensity to a cell and a time, so one vectorised round handles one
jump candidate of every path (Lewis & Shedler, Naval Res. Logist. Q.
26, 1979).  A jump takes effect at the next grid node, consistent with
the Euler-Maruyama order, so only the node values of the regime are
kept; they have the exact joint law of the chain at the nodes.  Batched
internals carry all paths as a leading axis, and a regime index takes
one byte up to 128 regimes.  The one estimator, :func:`mc_value`, runs
its paths through the seeded runner :func:`_path_costs`: batch b of
``BATCH_PATHS`` paths draws from ``default_rng([*stream, b])``, so
reductions are deterministic regardless of scheduling, and
:func:`_mean_se` gives equal samples an exact-zero standard error.

Under an affine control u = Θx + v the drift, the diffusion and the
running cost are affine or quadratic in the augmented state x̄ = [x, 1]:
their coefficients are the closed-loop A_cl, C_cl and Q_cl of the law
Θ̄ = [Θ | v] on ``spec.augmented()``, which the Lyapunov solve of
:mod:`regimelq.riccati` forms too.  Each Monte-Carlo call therefore
builds, once, per-node tables that hold every regime's blocks side by
side (:func:`_closed_loop_tables`, from Θ̄ as the Riccati solution holds
it, (..., N + 1, D, m, n + 1); open loop u is the law [0 | u]).  The tables
carry a law axis, which only the exact expectation below reads with
more than one law; the Euler loop runs one.  There x̄ is (P, n + 1),
and one Euler step is one product x̄ W[k], a row take on the path's
regime, one einsum of [1, ΔWₖ] against the step and diffusion blocks,
and the trapezoidal cost added in the loop.
The estimators keep no trajectories, only per-path costs; states are
recorded only for the single paths of :func:`simulate_policy`.  Since
each step multiplies by every regime's block, its flops grow with the
number of regimes D.  The unit of a batch is a tile of ``TILE_ROWS``
paths: the batch draws all its regimes, then each tile draws its
increments from the batch's stream and runs the Euler loop, and drops
them before the next tile draws, so only one tile's increments and
product blocks are held at a time, and a tile's blocks of every regime
stay in the L2 cache until the take reads them.
The tiles' draws together are the batch's one draw of increments.  A
product per regime, forming only each path's own block, slowed the
small batches of ``verify``.

Given the regime, one Euler step is linear in x̄, so the expected cost of
the scheme is a quadratic form in x̄ whose matrices follow a backward
per-regime recursion over the same tables (:func:`_expected_values`),
with the chain's cell transitions (:func:`_cell_transitions`): the
exact expectation of what the loop samples, for every initial state and
law at once.  The checks of :mod:`regimelq.verify` that compare several
laws read this recursion, not sampled paths.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import Generator, ProblemSpec, TimeGrid, _check_regime
from .riccati import (
    _BLOCK_STEPS, BLOWUP_LIMIT, DivergenceError, RiccatiSolution, _law_stack,
    _lyapunov_tables, _sweep_coefs,
)

__all__ = [
    "ChainPath",
    "StatePath",
    "MCEstimate",
    "simulate_chain",
    "brownian_increments",
    "simulate_state",
    "simulate_policy",
    "simulate_closed_loop",
    "evaluate_cost",
    "mc_value",
]

BATCH_PATHS = 4096
TILE_ROWS = 512


def as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class ChainPath:
    """One realized regime trajectory on the grid.

    ``alpha`` holds the regime at each node; a jump inside a cell takes
    effect at the cell's right node, as for every batched path.
    """

    grid: TimeGrid
    i0: int
    alpha: np.ndarray  # (N + 1,) int8 up to 128 regimes (see _sample_regime_paths)


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


def _initial_state(x0, n: int) -> np.ndarray:
    """``x0`` as a float (n,) array; another shape raises, not broadcasts."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"initial state x0 has shape {x0.shape}, the problem has n = {n}")
    return x0


def simulate_chain(gen: Generator, grid: TimeGrid, i0: int, rng) -> ChainPath:
    """Sample one regime path: a one-path call of the batched sampler."""
    alpha = _sample_regime_paths(gen, grid, i0, 1, rng)[0]
    return ChainPath(grid=grid, i0=i0, alpha=alpha)


def brownian_increments(grid: TimeGrid, rng, n_paths: int = 1, k0: int = 0) -> np.ndarray:
    """N(0, h) increments, shape (n_paths, N); zeros before node k0."""
    rng = as_rng(rng)
    draw = rng.normal(0.0, np.sqrt(grid.h), (n_paths, grid.steps - k0))
    if k0 == 0:
        return draw
    out = np.zeros((n_paths, grid.steps))
    out[:, k0:] = draw
    return out


def _sample_regime_paths(
    gen: Generator, grid: TimeGrid, i0: int, n_paths: int, rng, k0: int = 0
) -> np.ndarray:
    """Node-aligned regime values for a batch of paths, (P, N + 1) of the
    smallest signed integer type that holds D − 1 and the jump deltas
    down to −(D − 1): int8 up to 128 regimes, int16 beyond.

    Thinning against the piecewise-constant dominating rate m_k, the
    largest exit rate at the endpoints of cell k.  Each path runs one
    unit-rate stream s; its cumulative dominating intensity Λ maps s to
    the candidate's cell and time, so one round handles one candidate of
    every active path.  A jump inside cell k takes effect at node k + 1.
    """
    _check_regime(i0, gen.n_regimes)
    rng = as_rng(rng)
    alpha = np.zeros((n_paths, grid.steps + 1), dtype=np.min_scalar_type(-gen.n_regimes))
    alpha[:, 0] = i0
    exit_rates = -np.einsum("kii->ki", gen.rates[k0:])
    node_max = exit_rates.max(axis=1)
    m_dom = np.maximum(np.maximum(node_max[:-1], node_max[1:]), 0.0)
    lam = np.zeros(m_dom.size + 1)
    np.cumsum(m_dom * grid.h, out=lam[1:])
    cur = np.full(n_paths, i0, dtype=np.int64)
    s = np.zeros(n_paths)
    active = np.arange(n_paths if gen.n_regimes > 1 and lam[-1] > 0.0 else 0)
    while active.size:
        s[active] += rng.standard_exponential(active.size)
        active = active[s[active] < lam[-1]]
        if not active.size:
            break
        # zero-width cells (m_k = 0) are never chosen, so m_k > 0 below
        cell = np.searchsorted(lam, s[active], side="right") - 1
        w = (s[active] - lam[cell]) / (m_dom[cell] * grid.h)
        reg = cur[active]
        exit_loc = (1.0 - w) * exit_rates[cell, reg] + w * exit_rates[cell + 1, reg]
        accept = rng.uniform(size=active.size) < exit_loc / m_dom[cell]
        acc, cell, w, reg = active[accept], cell[accept], w[accept, None], reg[accept]
        if acc.size:
            wts = (1.0 - w) * gen.rates[k0 + cell, reg] + w * gen.rates[k0 + cell + 1, reg]
            np.maximum(wts, 0.0, out=wts)
            wts[np.arange(acc.size), reg] = 0.0
            cdf = np.cumsum(wts, axis=1)
            draw = rng.uniform(size=acc.size) * cdf[:, -1]
            target = (cdf > draw[:, None]).argmax(axis=1)
            np.add.at(alpha, (acc, k0 + cell + 1), target - reg)
            cur[acc] = target
    np.cumsum(alpha, axis=1, out=alpha)
    return alpha


def _cell_transitions(gen: Generator, grid: TimeGrid) -> np.ndarray:
    """Tₖ[i, j] = P(α_{k+1} = j | α_k = i) of every cell, (N, D, D).

    RK4 on the Kolmogorov forward equation dT/dt = T Q(t) from T = I,
    with Q linear over the cell (the law the sampler draws from), all
    cells at once.  A cell takes 8 substeps, or more where h times the
    largest exit rate is large, so that every substep stays well inside
    RK4's stability region.
    """
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
    return trans


def _open_loop_table(spec: ProblemSpec, u) -> np.ndarray:
    """Per-node control samples (..., N + 1, m) as the open-loop law
    [0 | u], (..., N + 1, D, m, n + 1): no gain, and the offset u in every
    regime."""
    u = np.asarray(u, dtype=float)
    law = np.zeros((*u.shape[:-1], spec.n_regimes, spec.m, spec.n + 1))
    law[..., spec.n] = u[..., None, :]
    return law


@dataclass(frozen=True)
class _Tables:
    """Closed-loop Euler tables over the augmented state x̄ = [x, 1].

    ``W[k, l]`` is (n + 1, D (3n + 1)) for law l: for regime r its
    columns are the first n columns of I + h A_clᵀ and of C_clᵀ, then
    h Q_cl, the closed-loop coefficients of Θ̄ = [Θ | v] on
    ``spec.augmented()``.  So one product x̄ W[k, l] gives every regime's
    x + h drift, diffusion and h Q_cl x̄; ``terminal`` is the augmented G.
    """

    W: np.ndarray         # (N + 1, L, n + 1, D (3n + 1))
    terminal: np.ndarray  # (D, n + 1, n + 1)
    grid: TimeGrid


def _closed_loop_tables(spec: ProblemSpec, theta_bar) -> _Tables:
    """Tables of the affine control u = Θ̄ x̄ = Θx + v.

    ``theta_bar`` is (N + 1, D, m, n + 1) for one law or
    (L, N + 1, D, m, n + 1) for L laws.  The coefficients of each law on
    ``spec.augmented()`` come from the Lyapunov solve's tables, node
    chunk by node chunk, each written straight to its place, so that one
    chunk's are held beside the tables.
    """
    n, h = spec.n, spec.grid.h
    theta_bar = _law_stack(
        theta_bar, (spec.grid.steps + 1, spec.n_regimes, spec.m, n + 1), "theta_bar")
    n_laws, n_nodes, n_reg = theta_bar.shape[:3]
    aug = spec.augmented()
    coefs = _sweep_coefs(aug)
    w = np.empty((n_nodes, n_laws, n + 1, n_reg, 3 * n + 1))
    blocks = w.transpose(1, 0, 3, 2, 4)  # (L, N + 1, D, n + 1, 3n + 1)
    for lo in range(0, n_nodes, _BLOCK_STEPS):
        nodes = slice(lo, lo + _BLOCK_STEPS)
        a_cl, c_cl_t, _, q_cl, _ = _lyapunov_tables(
            [x[nodes] for x in coefs] + [theta_bar[:, nodes]])
        out = blocks[:, nodes]
        np.multiply(h, np.swapaxes(a_cl, -1, -2)[..., :n], out=out[..., :n])
        out[..., :n] += np.eye(n + 1, n)
        out[..., n:2 * n] = c_cl_t[..., :n]
        np.multiply(h, q_cl, out=out[..., 2 * n:])
    return _Tables(W=w.reshape(*w.shape[:3], -1), terminal=aug.G, grid=spec.grid)


def _regime_product(w, state, width):
    """``select(k, regime)``: the (P, width) block that row p of
    ``state @ w[k]`` has in regime ``regime[p]``; ``state`` is updated in
    place between steps.  Its caller hands it one tile of rows, whose
    blocks of every regime stay in cache for the take."""
    n_rows, n_cols = state.shape[0], w.shape[-1]
    block = np.empty((n_rows, n_cols))
    flat = block.reshape(-1, width)
    first = np.arange(n_rows) * (n_cols // width)  # flat row of row p's first regime
    sel = np.empty((n_rows, width))

    def select(k, regime):
        np.matmul(state, w[k], block)
        # with mode "raise", take writes to a copy of out and then
        # copies it back; the indices are in range by construction
        flat.take(first + regime, 0, sel, "clip")
        return sel

    return select


def _integrate_policy(tables: _Tables, alpha, x0, dw, k0=0, states=None):
    """Euler-Maruyama of the one law in ``tables`` from node ``k0``, with
    the cost accumulated in the loop; returns the (P,) per-path costs.

    ``alpha`` holds the regime indices, (P, N + 1), and ``dw`` the
    increments, (P, N).  The cost is the trapezoidal running cost plus
    the terminal term.  ``states``, if given as (P, N + 1, n), receives
    the state at every node from k0.
    """
    (w,) = tables.W.swapaxes(0, 1)  # the loop runs one law
    n = w.shape[1] - 1
    n_paths, n_steps = dw.shape
    xbar = np.ones((n_paths, n + 1))
    xbar[:, :n] = x0
    x = xbar[:, :n]
    select = _regime_product(w, xbar, 3 * n + 1)
    coef = np.ones((n_paths, 2))  # [1, ΔW_k] per row
    if states is not None:
        states[:, k0] = x

    cost = np.zeros(n_paths)
    for k in range(k0, n_steps):
        sel = select(k, alpha[:, k])
        run = np.einsum("pi,pi->p", xbar, sel[:, 2 * n:])
        cost += 0.5 * run if k == k0 else run
        coef[:, 1] = dw[:, k]
        blocks = sel[:, :2 * n].reshape(n_paths, 2, n)
        np.einsum("pj,pjn->pn", coef, blocks, out=x)
        if not np.abs(x).max() <= BLOWUP_LIMIT:  # also catches NaN
            raise DivergenceError(k + 1, tables.grid.nodes()[k + 1])
        if states is not None:
            states[:, k + 1] = x
    if k0 < n_steps:
        sel = select(n_steps, alpha[:, n_steps])
        cost += 0.5 * np.einsum("pi,pi->p", xbar, sel[:, 2 * n:])
    g_bar = tables.terminal[alpha[:, n_steps]]
    cost += np.einsum("pi,pij,pj->p", xbar, g_bar, xbar)
    return cost


def _expected_values(tables: _Tables, trans, k0=0) -> np.ndarray:
    """Exact expectation of :func:`_integrate_policy`'s cost from node
    ``k0``: V, (L, D, n + 1, n + 1), with E[cost | x̄ at k0, regime i] =
    x̄ V[l, i] x̄ᵀ under law l, for every initial state at once.

    Given the regime, a step is x̄ₖ₊₁ = x̄ₖ S + ΔWₖ x̄ₖ D, with S the step
    block bordered by e_{n+1} and D the diffusion block bordered by zeros,
    and the jump drawn in cell k (``trans[k]``) takes effect at node k + 1.
    So V_N = G + ½hM_N and, backward, V_k(i) = S V̄ Sᵀ + h D V̄ Dᵀ + hM_k
    with V̄ = Σⱼ Tₖ[i, j] V_{k+1}(j); the start keeps half its hM_{k0}, as
    in the trapezoidal cost (Costa, Fragoso & Marques, Discrete-Time
    Markov Jump Linear Systems, Springer 2005).
    """
    w, h, n_steps = tables.W, tables.grid.h, tables.W.shape[0] - 1
    n_laws, n, n_reg = w.shape[1], w.shape[2] - 1, tables.terminal.shape[0]

    def blocks(k):  # [step, diffusion, hM] per law and regime, (L, D, n + 1, 3n + 1)
        return w[k].reshape(n_laws, n + 1, n_reg, 3 * n + 1).swapaxes(1, 2)

    vals = np.broadcast_to(tables.terminal, (n_laws, n_reg, n + 1, n + 1)).copy()
    if k0 == n_steps:
        return vals
    vals += 0.5 * blocks(n_steps)[..., 2 * n:]
    sd = np.zeros((n_laws, n_reg, 2, n + 1, n + 1))  # [S, D]
    sd[:, :, 0, n, n] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps - 1, k0 - 1, -1):
            blk = blocks(k)
            sd[..., :n] = blk[..., :2 * n].reshape(n_laws, n_reg, n + 1, 2, n).swapaxes(2, 3)
            mixed = (trans[k] @ vals.reshape(n_laws, n_reg, -1)).reshape(vals.shape)
            moments = sd @ mixed[:, :, None] @ sd.swapaxes(-1, -2)
            vals = moments[:, :, 0] + h * moments[:, :, 1] + blk[..., 2 * n:]
            if not np.isfinite(vals).all():
                raise DivergenceError(k, tables.grid.nodes()[k])
    return vals - 0.5 * blocks(k0)[..., 2 * n:]


def simulate_state(spec: ProblemSpec, chain: ChainPath, u, x0, rng=None) -> StatePath:
    """Integrate one state path under given control samples per node."""
    u = np.asarray(u, dtype=float).reshape(spec.grid.steps + 1, spec.m)
    return simulate_policy(spec, chain, _open_loop_table(spec, u), x0, rng)


def simulate_policy(
    spec: ProblemSpec, chain: ChainPath, theta_bar: np.ndarray, x0, rng=None, dw=None,
) -> StatePath:
    """Integrate one state path under a node/regime-indexed affine law
    ``theta_bar`` = Θ̄, (N + 1, D, m, n + 1): u = Θ̄ x̄ with x̄ = [x, 1]."""
    x0 = _initial_state(x0, spec.n)
    if dw is None:
        dw = brownian_increments(spec.grid, rng, 1)
    else:
        dw = np.asarray(dw, dtype=float).reshape(1, spec.grid.steps)
    xs = np.zeros((1, spec.grid.steps + 1, spec.n))
    tables = _closed_loop_tables(spec, theta_bar)
    _integrate_policy(tables, chain.alpha[None, :], x0, dw, states=xs)
    law, x = np.asarray(theta_bar)[np.arange(spec.grid.steps + 1), chain.alpha], xs[0]
    # Θx + v: one sum over the n + 1 entries of x̄ may round otherwise
    u = np.einsum("kij,kj->ki", law[..., :-1], x) + law[..., -1]
    return StatePath(
        grid=spec.grid, x0=x0, X=x, u=u, dw=dw[0],
    )


def simulate_closed_loop(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    i0: int,
    x0,
    rng,
) -> tuple[ChainPath, StatePath]:
    """Sample the closed-loop system under the synthesized feedback law.

    Draws the chain, then the Brownian increments.  Returns the chain
    together with the state path because cost evaluation needs the
    realized regimes.
    """
    if not ric.classification.is_regular:
        raise ValueError(
            f"closed-loop simulation needs a regular solution, got "
            f"{ric.classification}"
        )
    rng = as_rng(rng)
    chain = simulate_chain(spec.gen, spec.grid, i0, rng)
    return chain, simulate_policy(spec, chain, ric.Theta_bar, x0, rng)


def evaluate_cost(spec: ProblemSpec, chain: ChainPath, path: StatePath) -> float:
    """Quadratic cost of one realized (chain, state, control) trajectory:
    the running cost xᵀQx + 2uᵀSx + uᵀRu + 2qᵀx + 2ρᵀu at every node at
    once, trapezoidal in time, plus the terminal cost xᵀGx + 2gᵀx, each
    read from the spec's fields, not from the Euler tables."""
    idx, reg = np.arange(spec.grid.steps + 1), chain.alpha
    x, u = path.X, path.u
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


def _path_costs(spec: ProblemSpec, tables: _Tables, x0, i0: int, k0: int, n_paths: int,
                stream, threads: int = 1) -> np.ndarray:
    """Per-path costs (n_paths,) of the one law in ``tables`` from state
    ``x0``, node ``k0`` and regime ``i0``.

    Batch b of ``BATCH_PATHS`` paths draws its regimes, one byte per
    node, from ``default_rng([*stream, b])``, b its first path.  It then
    walks its rows in tiles of ``TILE_ROWS``, the unit of a batch: each
    tile draws its increments from the batch's stream and runs the Euler
    loop, so the tiles' draws are the batch's one draw of increments.  A
    tile's increments are dropped before the next tile draws, so only
    one tile's are held.  A lone last row joins the tile before,
    because numpy forms a one-row product as a matrix-vector product,
    which rounds differently.  Every tile runs, and a diverging batch
    raises the earliest node of its tiles.  Batches run on ``threads``
    threads and join in batch order, so the costs do not depend on
    ``threads``."""
    tile = max(TILE_ROWS, 2)

    def batch(start):
        size = min(start + BATCH_PATHS, n_paths) - start
        rng = np.random.default_rng([*stream, start])
        alpha = _sample_regime_paths(spec.gen, spec.grid, i0, size, rng, k0)
        costs, errors = np.empty(size), []
        starts = list(range(0, max(size - 1, 1), tile))
        for a, b in zip(starts, starts[1:] + [size]):
            dw = brownian_increments(spec.grid, rng, b - a, k0)
            try:
                costs[a:b] = _integrate_policy(tables, alpha[a:b], x0, dw, k0)
            except DivergenceError as err:
                errors.append(err.with_traceback(None))  # whose frames hold dw
            del dw  # before the next tile draws its own
        if errors:
            raise min(errors, key=lambda err: err.node)
        return costs

    starts = range(0, n_paths, BATCH_PATHS)
    if threads <= 1 or len(starts) == 1:
        parts = [batch(b) for b in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(batch, starts))
    return np.concatenate(parts)


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a 1-D sample; equal samples (degenerate
    randomness) get an exact-zero standard error."""
    se = 0.0
    if samples.size > 1 and not np.all(samples == samples[0]):
        se = float(samples.std(ddof=1) / np.sqrt(samples.size))
    return float(samples.mean()), se


def mc_value(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    t0: float,
    i0: int,
    x0,
    n_paths: int,
    rng_seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Cost estimate of the law ``ric.Theta_bar`` from (t0, x0, i0) over
    ``n_paths`` >= 1 independent paths, drawn from the stream
    ``(rng_seed,)``."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    x0 = _initial_state(x0, spec.n)
    tables = _closed_loop_tables(spec, ric.Theta_bar)
    costs = _path_costs(
        spec, tables, x0, i0, spec.grid.node_index(t0), n_paths, (rng_seed,), threads,
    )
    mean, se = _mean_se(costs)
    return MCEstimate(mean=mean, std_error=se, paths=n_paths, seed=rng_seed)
