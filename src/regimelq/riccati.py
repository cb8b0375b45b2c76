"""Backward sweeps for the coupled per-regime matrix ODE systems.

Every backward system of the package (the quadratic Riccati system with
the pseudo-inverse gain term, the linear Lyapunov system for a frozen
feedback gain, and the affine offset and value-integral systems) runs
through one classic fixed-step RK4 core, :func:`rk4_backward`, from the
terminal data, all regimes advanced together because the generator
couples them; the matrix right-hand sides are exactly symmetric, so the
iterates stay symmetric from a symmetric terminal value.  A
constructive fixed-point iteration (repeated Lyapunov solves through the
current gain) provides an independent route to the strongly regular
solution.

The core runs in blocks of ``_BLOCK_STEPS`` steps.  Per block each sweep
turns the node and midpoint samples of its coefficients into derived
tables in one stacked pass: the Lyapunov solve its closed-loop
A + B Theta, C + D Theta and weight Q + S^T Theta + Theta^T S +
Theta^T R Theta, the Riccati solve its pre-transposed factors.  An RK4
stage then evaluates only the terms that depend on P; in the Riccati
stage that includes the composites S_hat, R_hat and the pseudo-inverse
of R_hat, taken by the symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import symmetrize
from .model import ProblemSpec, TimeGrid, _hats, interp_nodes

__all__ = [
    "DivergenceError",
    "NotStronglyRegularError",
    "NonConvergenceError",
    "Classification",
    "LyapunovSolution",
    "RiccatiSolution",
    "solve_lyapunov",
    "rk4_backward",
    "solve_riccati_direct",
    "iterate_strongly_regular",
]

BLOWUP_LIMIT = 1e12

DEFAULT_PINV_TOL = 1e-12
DEFAULT_STRONG_TOL = 1e-8
DEFAULT_PSD_TOL = 1e-8
DEFAULT_RANGE_TOL = 1e-8


class DivergenceError(RuntimeError):
    """Backward integration escaped (entry beyond the blow-up limit)."""

    def __init__(self, node: int, t: float):
        super().__init__(
            f"integration diverged at node {node} (t={t:.6g}); "
            f"entry magnitude exceeded {BLOWUP_LIMIT:.0e}"
        )
        self.node = node
        self.t = t


class NotStronglyRegularError(RuntimeError):
    """The fixed-point iteration hit a non-positive-definite gain weight."""


class NonConvergenceError(RuntimeError):
    """The fixed-point iteration exhausted max_iter."""

    def __init__(self, iterations: int, last_delta: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last sup-norm delta {last_delta:.3e})"
        )
        self.iterations = iterations
        self.last_delta = last_delta


@dataclass(frozen=True)
class Classification:
    """Regularity verdict with the tolerances that produced it."""

    kind: str  # "strongly_regular" | "regular" | "not_regular"
    lambda_min: float | None = None
    reason: str | None = None
    strong_tol: float = DEFAULT_STRONG_TOL
    psd_tol: float = DEFAULT_PSD_TOL
    range_tol: float = DEFAULT_RANGE_TOL

    def __str__(self) -> str:
        if self.kind == "strongly_regular":
            return f"strongly_regular(lambda_min={self.lambda_min:.6g})"
        if self.kind == "not_regular":
            return f"not_regular({self.reason})"
        return self.kind

    @property
    def is_regular(self) -> bool:
        return self.kind in ("strongly_regular", "regular")


@dataclass(frozen=True)
class LyapunovSolution:
    grid: TimeGrid
    P: np.ndarray  # (N + 1, D, n, n)


@dataclass(frozen=True)
class RiccatiSolution:
    """Node-sampled quadratic-value matrices with derived feedback gains."""

    grid: TimeGrid
    P: np.ndarray            # (N + 1, D, n, n)
    S_hat: np.ndarray        # (N + 1, D, m, n)
    R_hat: np.ndarray        # (N + 1, D, m, m)
    R_hat_pinv: np.ndarray   # (N + 1, D, m, m)
    Theta: np.ndarray        # (N + 1, D, m, n), minimum-norm gain
    min_eig_R_hat: np.ndarray  # (N + 1, D)
    classification: Classification
    pinv_tol: float
    iteration_trace: list[float] | None = None
    iterates: list[np.ndarray] | None = None  # fixed-point iterates, on request

    def value_matrix_at(self, t: float, i: int) -> np.ndarray:
        return interp_nodes(self.P, self.grid, t)[i]

    def gain_at(self, t: float, i: int) -> np.ndarray:
        return interp_nodes(self.Theta, self.grid, t)[i]


def _coupling(lam, p):
    """Generator coupling sum_k lam[i,k] P_k of regime-stacked matrices."""
    return (lam @ p.reshape(p.shape[0], -1)).reshape(p.shape)


def _riccati_tables(coef):
    """Direct-sweep tables from stacked samples of the ``_sweep_coefs``."""
    a, b, c, d, q, s, r, lam = coef
    b_t, c_t, d_t = (np.swapaxes(x, -1, -2) for x in (b, c, d))
    return a, b_t, c, c_t, d_t, d, q, s, r, lam


def _riccati_rhs(coef, p, pinv_tol):
    """Quadratic Riccati RHS over all regimes from one sample of the tables.

    P is symmetric, so A^T P is taken as (P A)^T.
    """
    a, b_t, c, c_t, d_t, d, q, s, r, lam = coef
    d_t_p = d_t @ p
    s_hat = b_t @ p + d_t_p @ c + s
    r_pinv = matcore.pinv(r + d_t_p @ d, pinv_tol, hermitian=True)
    out = s_hat.swapaxes(-1, -2) @ (r_pinv @ s_hat)
    pa = p @ a
    out -= pa + pa.swapaxes(-1, -2) + c_t @ p @ c + q + _coupling(lam, p)
    return symmetrize(out)


def _lyapunov_tables(coef):
    """Closed-loop tables for a frozen gain from stacked samples.

    A + B Theta, (C + D Theta)^T, C + D Theta and the closed-loop weight
    Q + S^T Theta + Theta^T S + Theta^T R Theta, each built from the
    (averaged) samples of its factors.
    """
    a, b, c, d, q, s, r, lam, theta = coef
    theta_t = np.swapaxes(theta, -1, -2)
    c_cl = c + d @ theta
    s_theta = np.swapaxes(s, -1, -2) @ theta
    q_cl = q + s_theta + np.swapaxes(s_theta, -1, -2) + theta_t @ r @ theta
    return a + b @ theta, np.swapaxes(c_cl, -1, -2), c_cl, q_cl, lam


def _lyapunov_rhs(coef, p):
    """Linear Lyapunov RHS over all regimes from one sample of the tables.

    P is symmetric, so A_cl^T P is taken as (P A_cl)^T.
    """
    a_cl, c_cl_t, c_cl, q_cl, lam = coef
    pa = p @ a_cl
    out = pa + pa.swapaxes(-1, -2) + c_cl_t @ p @ c_cl + q_cl + _coupling(lam, p)
    return -symmetrize(out)


def _sweep_coefs(spec: ProblemSpec) -> list[np.ndarray]:
    """Node tables of the fields the matrix sweeps need, in table order."""
    names = ("A", "B", "C", "D", "Q", "S", "R")
    return [getattr(spec, f) for f in names] + [spec.gen.rates]


# Steps per block of rk4_backward: the derived tables of a block are
# built in one stacked pass, so the state-independent work costs a few
# numpy calls per block instead of per RHS evaluation, while the tables
# held at once stay a small fraction of the returned path.
_BLOCK_STEPS = 64


def rk4_backward(rhs, terminal, tables, grid: TimeGrid, derive=None) -> np.ndarray:
    """Classic RK4 from ``terminal`` at T back to t0 over every grid step.

    ``tables`` are node tables, each shaped ``(N + 1, ...)``.  The steps
    run in blocks of ``_BLOCK_STEPS``; per block the node samples of every
    table, interleaved with the midpoint averages of the steps, are
    stacked along a leading axis (:func:`_block_samples`), and ``derive``
    (if given) maps that tuple of stacks to the tuple of stacked tables
    the right-hand side reads, so everything that does not depend on
    ``y`` is formed once per block.  Products are formed from averaged
    factors, never averaged themselves.
    ``rhs(coef, y)`` is the time derivative of ``y``; ``coef`` holds one
    sample of each (derived) table: the node sample at an end of the
    step, or the midpoint sample inside it.  Returns the path, shape
    ``(N + 1, *terminal.shape)``.  A non-finite entry or one beyond
    ``BLOWUP_LIMIT`` raises :class:`DivergenceError` naming the node.
    """
    n_steps, h = grid.steps, grid.h
    y = np.array(terminal, dtype=float)
    path = np.empty((n_steps + 1, *y.shape))
    path[n_steps] = y
    for hi in range(n_steps, 0, -_BLOCK_STEPS):
        lo = max(hi - _BLOCK_STEPS, 0)
        coef = tuple(_block_samples(a, lo, hi) for a in tables)
        if derive is not None:
            coef = derive(coef)
        samples = [tuple(a[j] for a in coef) for j in range(2 * (hi - lo) + 1)]
        for k in range(hi - 1, lo - 1, -1):
            j = 2 * (k - lo)
            c_lo, c_mid, c_hi = samples[j:j + 3]
            k1 = rhs(c_hi, y)
            k2 = rhs(c_mid, y - 0.5 * h * k1)
            k3 = rhs(c_mid, y - 0.5 * h * k2)
            k4 = rhs(c_lo, y - h * k3)
            y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.abs(y).max() <= BLOWUP_LIMIT:  # also catches NaN
                raise DivergenceError(k, grid.nodes()[k])
            path[k] = y
    return path


def _block_samples(table, lo, hi):
    """Node samples lo..hi of ``table`` interleaved with the midpoint
    averages of the steps between them: node j at 2(j - lo), the midpoint
    of step k at 2(k - lo) + 1."""
    out = np.empty((2 * (hi - lo) + 1, *table.shape[1:]))
    out[0::2] = table[lo:hi + 1]
    out[1::2] = 0.5 * (table[lo:hi] + table[lo + 1:hi + 1])
    return out


def solve_lyapunov(spec: ProblemSpec, theta: np.ndarray | None = None) -> LyapunovSolution:
    """Backward solve of the linear matrix system for a frozen gain.

    ``theta`` holds per-node per-regime gains (N + 1, D, m, n); None means
    the zero gain, which drops every control-channel term.
    """
    want = (spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n)
    if theta is None:
        theta = np.broadcast_to(0.0, want)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != want:
        raise matcore.InvalidInputError(f"theta shape {theta.shape} != {want}")
    p_path = rk4_backward(
        _lyapunov_rhs, spec.G, [*_sweep_coefs(spec), theta], spec.grid,
        derive=_lyapunov_tables,
    )
    return LyapunovSolution(grid=spec.grid, P=p_path)


def _derived_tables(spec: ProblemSpec, p_path: np.ndarray, pinv_tol: float):
    """Per-node gain-side composites, their pseudo-inverses and gains."""
    s_hat, r_hat = _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p_path)
    eig, r_hat_pinv = matcore._eigh_pinv(r_hat, pinv_tol)
    theta = -(r_hat_pinv @ s_hat)
    return s_hat, r_hat, r_hat_pinv, theta, eig[..., 0]


def _classify(
    s_hat, r_hat, r_hat_pinv, min_eig,
    strong_tol: float, psd_tol: float, range_tol: float,
) -> Classification:
    lam_min = float(min_eig.min())
    if lam_min >= strong_tol:
        return Classification(
            "strongly_regular", lambda_min=lam_min,
            strong_tol=strong_tol, psd_tol=psd_tol, range_tol=range_tol,
        )
    if lam_min < -psd_tol:
        k, i = np.unravel_index(int(min_eig.argmin()), min_eig.shape)
        return Classification(
            "not_regular",
            reason=f"control weight composite indefinite at node {k}, "
                   f"regime {i} (min eig {lam_min:.3e})",
            strong_tol=strong_tol, psd_tol=psd_tol, range_tol=range_tol,
        )
    resid = s_hat - r_hat @ (r_hat_pinv @ s_hat)
    resid_norm = np.linalg.norm(resid, axis=(-2, -1))
    bound = range_tol * np.maximum(1.0, np.linalg.norm(s_hat, axis=(-2, -1)))
    bad = resid_norm > bound
    if bad.any():
        k, i = np.unravel_index(int(bad.argmax()), bad.shape)
        return Classification(
            "not_regular",
            reason=f"range inclusion fails at node {k}, regime {i} "
                   f"(residual {resid_norm[k, i]:.3e})",
            strong_tol=strong_tol, psd_tol=psd_tol, range_tol=range_tol,
        )
    return Classification(
        "regular",
        strong_tol=strong_tol, psd_tol=psd_tol, range_tol=range_tol,
    )


def _check_strong_tol(strong_tol: float) -> None:
    """A strong-regularity threshold must be positive and finite: at or
    below zero an indefinite control weight would certify as strong."""
    if not 0.0 < strong_tol < np.inf:
        raise matcore.InvalidInputError(
            f"strong_tol must be positive and finite, got {strong_tol}"
        )


def _build_solution(
    spec, p_path, pinv_tol, strong_tol, psd_tol, range_tol, trace=None, iterates=None,
) -> RiccatiSolution:
    s_hat, r_hat, r_hat_pinv, theta, min_eig = _derived_tables(spec, p_path, pinv_tol)
    cls = _classify(s_hat, r_hat, r_hat_pinv, min_eig, strong_tol, psd_tol, range_tol)
    return RiccatiSolution(
        grid=spec.grid, P=p_path, S_hat=s_hat, R_hat=r_hat,
        R_hat_pinv=r_hat_pinv, Theta=theta, min_eig_R_hat=min_eig,
        classification=cls, pinv_tol=pinv_tol, iteration_trace=trace,
        iterates=iterates,
    )


def solve_riccati_direct(
    spec: ProblemSpec,
    pinv_tol: float = DEFAULT_PINV_TOL,
    strong_tol: float = DEFAULT_STRONG_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    range_tol: float = DEFAULT_RANGE_TOL,
) -> RiccatiSolution:
    """Backward RK4 solve of the quadratic system with classification.

    The minimum-norm gain is taken at every node (the free complement of
    the pseudo-inverse gain is fixed to zero).  Finite-time escape of
    indefinite problems raises :class:`DivergenceError` rather than
    propagating non-finite values into the classification.
    """
    _check_strong_tol(strong_tol)
    p_path = rk4_backward(
        lambda c, p: _riccati_rhs(c, p, pinv_tol),
        spec.G, _sweep_coefs(spec), spec.grid, derive=_riccati_tables,
    )
    return _build_solution(spec, p_path, pinv_tol, strong_tol, psd_tol, range_tol)


def iterate_strongly_regular(
    spec: ProblemSpec,
    max_iter: int = 50,
    conv_tol: float = 1e-10,
    pinv_tol: float = DEFAULT_PINV_TOL,
    strong_tol: float = DEFAULT_STRONG_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    range_tol: float = DEFAULT_RANGE_TOL,
    keep_iterates: bool = False,
) -> RiccatiSolution:
    """Constructive fixed-point route to the strongly regular solution.

    Starts from the zero-gain linear solve, then alternates the gain
    update with a fresh linear solve until the sup-norm of the iterate
    difference drops below ``conv_tol``.  Only meaningful on uniformly
    convex problems: a non-positive control weight composite at any node
    aborts with :class:`NotStronglyRegularError`.

    When ``keep_iterates`` is set, all iterates are retained on the
    returned solution as ``iterates`` for diagnosis (None otherwise).
    """
    _check_strong_tol(strong_tol)
    p_n = solve_lyapunov(spec).P
    trace: list[float] = []
    iterates = [p_n] if keep_iterates else None
    for _ in range(max_iter):
        s_hat, r_hat = _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p_n)
        eig, r_hat_pinv = matcore._eigh_pinv(r_hat, pinv_tol)
        min_eig = float(eig[..., 0].min())
        if min_eig <= 0.0:
            raise NotStronglyRegularError(
                f"control weight composite not positive definite along the "
                f"iteration (min eig {min_eig:.3e}); problem is not "
                f"uniformly convex"
            )
        theta_n = -(r_hat_pinv @ s_hat)
        p_next = solve_lyapunov(spec, theta_n).P
        delta = float(np.linalg.norm(p_next - p_n, axis=(-2, -1)).max())
        trace.append(delta)
        if keep_iterates:
            iterates.append(p_next)
        p_n = p_next
        if delta < conv_tol:
            return _build_solution(
                spec, p_n, pinv_tol, strong_tol, psd_tol, range_tol,
                trace=trace, iterates=iterates,
            )
    raise NonConvergenceError(len(trace), trace[-1] if trace else float("nan"))
