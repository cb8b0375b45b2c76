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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import symmetrize
from .model import CoeffAt, ProblemSpec, TimeGrid, _hats, interp_nodes

__all__ = [
    "DivergenceError",
    "NotStronglyRegularError",
    "NonConvergenceError",
    "Classification",
    "LyapunovSolution",
    "RiccatiSolution",
    "solve_lyapunov",
    "riccati_rhs",
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


def riccati_rhs(
    co: CoeffAt,
    p_all: np.ndarray,
    i: int,
    lambda_row: np.ndarray,
    pinv_tol: float = DEFAULT_PINV_TOL,
) -> np.ndarray:
    """Time derivative of the quadratic-value matrix of regime ``i``.

    ``p_all`` stacks the current matrices of every regime (the generator
    row couples them); the quadratic term uses the pseudo-inverse of the
    control weight composite.  A single-regime view of the stacked RHS;
    every regime's matrix is validated (finite, square).
    """
    p_all = np.stack([matcore.sym_matrix(p) for p in np.asarray(p_all, dtype=float)])
    d = p_all.shape[0]
    coef = [np.broadcast_to(a, (d, *a.shape))
            for a in (co.A, co.B, co.C, co.D, co.Q, co.S, co.R)]
    lam = np.broadcast_to(np.asarray(lambda_row, dtype=float), (d, d))
    return _rhs_stack((*coef, lam), p_all, pinv_tol)[i]


def _rhs_stack(coef, p, pinv_tol, theta=None):
    """Stacked backward RHS over all regimes at one time.

    With ``theta`` None the quadratic pseudo-inverse term is used; with a
    frozen gain the linear Lyapunov form is used instead.
    """
    ak, bk, ck, dk, qk, sk, rk, lam = coef
    p = symmetrize(p)
    coupling = np.einsum("ik,kab->iab", lam, p)
    lin = p @ ak + np.swapaxes(ak, -1, -2) @ p
    lin += np.swapaxes(ck, -1, -2) @ p @ ck + qk + coupling
    s_hat, r_hat = _hats(bk, dk, ck, sk, rk, p)
    if theta is None:
        quad = np.swapaxes(s_hat, -1, -2) @ (matcore.pinv(r_hat, pinv_tol) @ s_hat)
        return symmetrize(quad - lin)
    st_theta = np.swapaxes(s_hat, -1, -2) @ theta
    gain_terms = st_theta + np.swapaxes(st_theta, -1, -2)
    gain_terms += np.swapaxes(theta, -1, -2) @ r_hat @ theta
    return symmetrize(-(lin + gain_terms))


def _sweep_coefs(spec: ProblemSpec) -> list[np.ndarray]:
    """Node tables of the fields the matrix sweeps need, in _rhs_stack order."""
    names = ("A", "B", "C", "D", "Q", "S", "R")
    return [getattr(spec, f) for f in names] + [spec.gen.rates]


def rk4_backward(rhs, terminal, tables, grid: TimeGrid) -> np.ndarray:
    """Classic RK4 from ``terminal`` at T back to t0 over every grid step.

    ``rhs(coef, y)`` is the time derivative of ``y``; ``coef`` is a tuple
    with one sample of each node table in ``tables`` (each shaped
    ``(N + 1, ...)``): the node sample at an end of the step, or the
    midpoint average inside it.  Returns the path, shape
    ``(N + 1, *terminal.shape)``.  A non-finite entry or one beyond
    ``BLOWUP_LIMIT`` raises :class:`DivergenceError` naming the node.
    """
    n_steps, h = grid.steps, grid.h
    mid = [0.5 * (a[:-1] + a[1:]) for a in tables]
    y = np.array(terminal, dtype=float)
    path = np.empty((n_steps + 1, *y.shape))
    path[n_steps] = y
    for k in range(n_steps - 1, -1, -1):
        c_lo = tuple(a[k] for a in tables)
        c_mid = tuple(a[k] for a in mid)
        c_hi = tuple(a[k + 1] for a in tables)
        k1 = rhs(c_hi, y)
        k2 = rhs(c_mid, y - 0.5 * h * k1)
        k3 = rhs(c_mid, y - 0.5 * h * k2)
        k4 = rhs(c_lo, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(y).max() <= BLOWUP_LIMIT:  # also catches NaN
            raise DivergenceError(k, grid.nodes()[k])
        path[k] = y
    return path


def solve_lyapunov(spec: ProblemSpec, theta: np.ndarray | None = None) -> LyapunovSolution:
    """Backward solve of the linear matrix system for a frozen gain.

    ``theta`` holds per-node per-regime gains (N + 1, D, m, n); None means
    the zero gain, which drops every control-channel term.
    """
    if theta is None:
        theta = np.zeros((spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n))
    theta = np.asarray(theta, dtype=float)
    want = (spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n)
    if theta.shape != want:
        raise matcore.InvalidInputError(f"theta shape {theta.shape} != {want}")
    p_path = rk4_backward(
        lambda c, p: _rhs_stack(c[:-1], p, DEFAULT_PINV_TOL, c[-1]),
        spec.G, [*_sweep_coefs(spec), theta], spec.grid,
    )
    return LyapunovSolution(grid=spec.grid, P=p_path)


def _derived_tables(spec: ProblemSpec, p_path: np.ndarray, pinv_tol: float):
    """Per-node gain-side composites, their pseudo-inverses and gains."""
    s_hat, r_hat = _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p_path)
    r_hat_pinv = matcore.pinv(r_hat, pinv_tol)
    theta = -(r_hat_pinv @ s_hat)
    min_eig = np.linalg.eigvalsh(r_hat)[..., 0]
    return s_hat, r_hat, r_hat_pinv, theta, min_eig


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
    p_path = rk4_backward(
        lambda c, p: _rhs_stack(c, p, pinv_tol),
        spec.G, _sweep_coefs(spec), spec.grid,
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
    p_n = solve_lyapunov(spec).P
    trace: list[float] = []
    iterates = [p_n] if keep_iterates else None
    for _ in range(max_iter):
        s_hat, r_hat = _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p_n)
        min_eig = float(np.linalg.eigvalsh(r_hat)[..., 0].min())
        if min_eig <= 0.0:
            raise NotStronglyRegularError(
                f"control weight composite not positive definite along the "
                f"iteration (min eig {min_eig:.3e}); problem is not "
                f"uniformly convex"
            )
        theta_n = -(matcore.pinv(r_hat, pinv_tol) @ s_hat)
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
