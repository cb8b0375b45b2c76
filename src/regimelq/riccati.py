"""Backward sweeps for the coupled per-regime matrix ODE systems.

Every backward system of the package (the quadratic Riccati system with
the pseudo-inverse gain term and the linear Lyapunov system for a frozen
feedback gain) runs through one stacked RK4 driver, :func:`_rk4_stack`,
classic fixed-step RK4 from the terminal data, all regimes advanced
together because the generator couples them; the matrix right-hand
sides are exactly symmetric, so the iterates stay symmetric from a
symmetric terminal value.  The driver steps a stack of slices, each
from its own top node over its own span, and every sweep calls it
directly: :func:`solve_riccati_direct` as one slice over the whole grid,
:func:`solve_lyapunov` with one slice per frozen gain, its gain table a
per-slice table of the driver, and the fixed-point iteration with one
slice per running solve.

Both Riccati routes sweep the problem in x_bar = [x, 1]
(:meth:`ProblemSpec.augmented`); its solution [[P, eta], [eta^T, w]]
holds P, the offset eta and the value integral w, all at RK4 order 4.
The feedback law is synthesized there too: S_bar = [S_hat, rho_hat]
and Theta_bar = -R_hat^+ S_bar = [Theta, v*] give the gain and the
offset in one product, and one range test over S_bar decides the
closed-loop verdict (:func:`_classify`).

A constructive fixed-point iteration (repeated Lyapunov solves through
the current gain) provides an independent route to the strongly regular
solution.  Its solves run staggered: the solve for P_(j+1) needs P_j
and its gain only at the nodes of the block it runs, so it starts one
block behind the solve for P_j, and every running solve moves back by
one block per wave, all of them as the slices of one driver call over
states (J, D, n, n).  Each solve takes its own gains, and its own gain
check R_hat(P_j) > 0, on every block it steps, but the solve at the
iteration limit only while it can still be the result; while a solve
can, it keeps those blocks' derived tables, which join into the
result's.  Solve j + 1 starts as soon as the loop doing one solve
after another would certainly run solve j: P_0 and P_1 always, P_j
once the running maximum of ||P_(j-1) - P_(j-2)||_F over the nodes
done reaches the convergence tolerance, and none beyond the iteration
limit.  So at most one solve runs speculatively.  One end rule gives
the results, iteration trace and errors of that loop, bit for bit: a
solve that diverged, failed its gain check or finished below the
tolerance is final, drops every later solve and lets none start after
it, so the loop ends at the last solve left.

The driver runs in chunks of at most ``_BLOCK_STEPS`` steps.  Per chunk
it turns the node and midpoint samples of the coefficients, taken at
each slice's own nodes, into derived tables in one stacked pass: the
Lyapunov solve its closed-loop A + B Theta, C + D Theta and weight
Q + S^T Theta + Theta^T S + Theta^T R Theta, the Riccati solve its
pre-transposed factors.  An RK4
stage then evaluates only the terms that depend on P; in the Riccati
stage that includes the composites S_hat, R_hat and the pseudo-inverse
of R_hat, taken by the symmetric eigensolver, or as 1/R_hat for a
scalar control.  The driver checks no step as it runs: after each
chunk, one scan of the chunk's states finds each slice's first state
with a non-finite entry or one beyond ``BLOWUP_LIMIT``.  A stage that
overflows is a divergence like any other: the driver runs with numpy's
overflow and invalid warnings off, and the scan names the slice whose
state went non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore
from .model import ProblemSpec, TimeGrid, _check_regime, _hats, interp_nodes

__all__ = [
    "DivergenceError",
    "NotStronglyRegularError",
    "NonConvergenceError",
    "Classification",
    "RiccatiSolution",
    "solve_lyapunov",
    "solve_riccati_direct",
    "iterate_strongly_regular",
]

BLOWUP_LIMIT = 1e12

DEFAULT_STRONG_TOL = 1e-8
DEFAULT_PSD_TOL = 1e-8
DEFAULT_RANGE_TOL = 1e-8


class DivergenceError(RuntimeError):
    """Integration escaped: the state went non-finite, or an entry went
    beyond the blow-up limit; the message names which."""

    def __init__(self, node: int, t: float, non_finite: bool = False):
        cause = "the state went non-finite" if non_finite else (
            f"an entry exceeded {BLOWUP_LIMIT:.0e}")
        super().__init__(f"integration diverged at node {node} (t={t:.6g}); {cause}")
        self.node = node
        self.t = t
        self.non_finite = non_finite

    @classmethod
    def at(cls, grid: TimeGrid, failure: tuple[int, bool]) -> DivergenceError:
        """The error of a ``(node, non_finite)`` failure on ``grid``: a
        step guard's, or one that :func:`_rk4_stack` reports per slice."""
        node, non_finite = failure
        return cls(node, grid.nodes()[node], non_finite)


class NotStronglyRegularError(RuntimeError):
    """The fixed-point iteration hit a non-positive-definite gain weight."""

    def __init__(self, min_eig: float):
        super().__init__(
            f"control weight composite not positive definite along the "
            f"iteration (min eig {min_eig:.3e}); problem is not "
            f"uniformly convex"
        )
        self.min_eig = min_eig


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
    """Regularity verdict with the tolerances that produced it.

    ``reason`` labels regimes from 1 and nodes from 0; ``residual`` is the
    failing node's range-test residual when a range test decided."""

    kind: str  # "strongly_regular" | "regular" | "not_regular"
    lambda_min: float | None = None
    reason: str | None = None
    residual: float | None = None
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
class RiccatiSolution:
    """Node-sampled solution of the problem in [x, 1] and its feedback law.

    ``P_bar`` = [[P, eta], [eta^T, w]], ``S_bar`` = [S_hat, rho_hat] and
    the minimum-norm ``Theta_bar`` = -R_hat^+ S_bar = [Theta, v*]; P,
    ``S_hat`` and ``Theta`` are their leading blocks."""

    grid: TimeGrid
    P_bar: np.ndarray        # (N + 1, D, n + 1, n + 1)
    S_bar: np.ndarray        # (N + 1, D, m, n + 1)
    R_hat: np.ndarray        # (N + 1, D, m, m)
    Theta_bar: np.ndarray    # (N + 1, D, m, n + 1)
    min_eig_R_hat: np.ndarray  # (N + 1, D)
    classification: Classification
    pinv_tol: float
    iteration_trace: list[float] | None = None

    @cached_property
    def P(self) -> np.ndarray:
        return np.ascontiguousarray(self.P_bar[..., :-1, :-1])

    @cached_property
    def S_hat(self) -> np.ndarray:
        return np.ascontiguousarray(self.S_bar[..., :-1])

    @cached_property
    def Theta(self) -> np.ndarray:
        return np.ascontiguousarray(self.Theta_bar[..., :-1])

    def gain_at(self, t: float, i: int) -> np.ndarray:
        _check_regime(i, self.Theta_bar.shape[1], "regime i")
        return interp_nodes(self.Theta, self.grid, t)[i]


def _coupling(lam, p):
    """Generator coupling sum_k lam[i,k] P_k of regime-stacked matrices,
    over any leading axes shared by ``lam`` and ``p``."""
    return (lam @ p.reshape(*p.shape[:-2], -1)).reshape(p.shape)


def _riccati_tables(coef):
    """Direct-sweep tables from stacked samples of the ``_sweep_coefs``."""
    a, b, c, d, q, s, r, lam = coef
    b_t, c_t, d_t = (np.swapaxes(x, -1, -2) for x in (b, c, d))
    return a, b_t, c, c_t, d_t, d, q, s, r, lam


def _riccati_rhs(coef, p, pinv_tol):
    """Quadratic Riccati RHS over all regimes from one sample of the tables.

    P is symmetric, so A^T P is taken as (P A)^T.  A P that is non-finite
    in some regime, the input of a stage after one that overflowed, gives
    a derivative that is non-finite there too, without raising, and its
    non-finite R_hat runs no eigensolver (:func:`matcore._eigh_pinv_finite`);
    so the driver's scan names its slice, and the slices beside it keep
    their bits.  The products then warn unless numpy's overflow and
    invalid warnings are off, as they are in :func:`_rk4_stack`.
    ``pinv_tol`` is checked by the solver.
    """
    a, b_t, c, c_t, d_t, d, q, s, r, lam = coef
    d_t_p = d_t @ p
    s_hat = b_t @ p + d_t_p @ c + s
    _, r_pinv = matcore._eigh_pinv_finite(r + d_t_p @ d, pinv_tol)
    out = s_hat.swapaxes(-1, -2) @ (r_pinv @ s_hat)
    pa = p @ a
    out -= pa + pa.swapaxes(-1, -2) + c_t @ p @ c + q + _coupling(lam, p)
    return 0.5 * (out + out.swapaxes(-1, -2))


def _lyapunov_tables(coef):
    """Closed-loop tables for a frozen gain from stacked samples.

    A + B Theta, (C + D Theta)^T, C + D Theta and the closed-loop weight
    Q + S^T Theta + Theta^T S + Theta^T R Theta, each built from the
    (averaged) samples of its factors.  The Euler tables of
    :func:`regimelq.sim._closed_loop_tables` read it too, from node
    samples of the augmented problem and Theta_bar = [Theta | v].
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
    return -0.5 * (out + out.swapaxes(-1, -2))


def _sweep_coefs(spec: ProblemSpec) -> list[np.ndarray]:
    """Node tables of the fields the matrix sweeps need, in table order."""
    names = ("A", "B", "C", "D", "Q", "S", "R")
    return [getattr(spec, f) for f in names] + [spec.gen.rates]


# Steps per chunk of _rk4_stack: the derived tables of a chunk are built
# in one stacked pass, so the state-independent work costs a few numpy
# calls per chunk instead of per RHS evaluation, while the tables held
# at once stay a small fraction of the returned path.
_BLOCK_STEPS = 64


def _blocks(n_steps: int) -> list[tuple[int, int]]:
    """Node ranges (lo, hi) of the blocks of a backward sweep, top first."""
    return [(max(hi - _BLOCK_STEPS, 0), hi) for hi in range(n_steps, 0, -_BLOCK_STEPS)]


def _rk4_block(rhs, y, samples, h, out):
    """Classic RK4 steps backward through one block of samples.

    Step i runs from the node sample ``samples[2i]`` at its upper end
    through the midpoint sample ``samples[2i + 1]`` to the node sample
    ``samples[2i + 2]`` at its lower end.  Every step runs, from ``y``,
    and stores its new state at ``out[i]``; returns the last state.
    """
    for i in range(len(out)):
        c_hi, c_mid, c_lo = samples[2 * i:2 * i + 3]
        k1 = rhs(c_hi, y)
        k2 = rhs(c_mid, y - 0.5 * h * k1)
        k3 = rhs(c_mid, y - 0.5 * h * k2)
        k4 = rhs(c_lo, y - h * k3)
        y = out[i] = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _samples(table):
    """Node samples of ``table`` interleaved with the midpoint averages of
    the steps between them: node j at 2j, the midpoint of step j at
    2j + 1."""
    out = np.empty((2 * len(table) - 1, *table.shape[1:]))
    out[0::2] = table
    out[1::2] = 0.5 * (table[:-1] + table[1:])
    return out


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the scan
def _rk4_stack(rhs, derive, tables, tops, spans, h, per_slice=()):
    """Classic RK4 backward for a stack of slices, each over its own span.

    Slice p starts from ``tops[p]`` at node hi of ``spans[p] = (lo, hi)``
    and steps back to node lo; all slices step together, so the states
    are stacked along a new axis 1.  ``tables`` are node tables, each
    shaped ``(N + 1, ...)``, sampled at each slice's own nodes; a
    ``per_slice`` table is ``(S + 1, J, ...)``, S the longest span and J
    the number of slices, its row S - i holding slice p's node hi - i.
    The steps run in chunks of at most ``_BLOCK_STEPS``; per chunk the
    node samples of every table, interleaved with the midpoint averages
    of the steps, are stacked along a leading axis (:func:`_samples`),
    and ``derive`` maps that tuple of stacks to the tuple of
    stacked tables the right-hand side reads, so everything that does
    not depend on the state is formed once per chunk.  Products are
    formed from averaged factors, never averaged themselves.
    ``rhs(coef, y)`` is the time derivative of the stacked state ``y``;
    ``coef`` holds one sample of each (derived) table.

    Returns the path (S + 1, J, ...), row S - i holding slice p's state
    at node hi - i, and for each diverged slice a pair (node, non_finite):
    the node at which it first had a non-finite entry or one beyond
    ``BLOWUP_LIMIT``, and whether a non-finite entry was the cause; a
    stage that overflows makes its step's new state non-finite, so the
    slice diverges at that step's lower node.  Every slice steps to the
    end of each chunk, and one scan of the chunk's states then finds each
    slice's first bad step within its span.  A slice that diverged steps
    on, apart from the others, while any slice runs; so does a slice
    below its span, on the tables of its own nodes and, past node 0, of
    node 0.  Neither state is part of the result.  The run ends after the
    chunk in which the last slice diverged.
    """
    y = np.array(tops, dtype=float)
    n_slices = len(y)
    his = np.array([hi for _, hi in spans])
    lengths = his - [lo for lo, _ in spans]
    steps = int(lengths.max())
    path = np.empty((steps + 1, *y.shape))
    path[steps] = y
    out = path[-2::-1]  # step i of every slice at out[i]
    failed = {}
    # the tables held at once cover one block's worth of slice steps
    chunk = -(-min(steps, _BLOCK_STEPS) // n_slices)
    for i0 in range(0, steps, chunk):
        i1 = min(i0 + chunk, steps)
        nodes = np.maximum(np.arange(i1 - i0 + 1)[:, None] + (his - i1), 0)  # bottom up
        coef = [_samples(a[nodes]) for a in tables]
        coef += [_samples(a[steps - i1:steps - i0 + 1]) for a in per_slice]
        coef = derive(coef)
        samples = [tuple(a[j] for a in coef) for j in range(2 * (i1 - i0), -1, -1)]
        y = _rk4_block(rhs, y, samples, h, out[i0:i1])
        size = np.abs(out[i0:i1]).reshape(i1 - i0, n_slices, -1).max(axis=2)
        bad = ~(size <= BLOWUP_LIMIT) & (np.arange(i0, i1)[:, None] < lengths)  # also NaN
        for p in np.flatnonzero(bad.any(axis=0)):
            i = int(bad[:, p].argmax())
            failed.setdefault(int(p), (int(his[p]) - 1 - i0 - i, not np.isfinite(size[i, p])))
        if len(failed) == n_slices:
            break
    return path, failed


def solve_lyapunov(spec: ProblemSpec, theta: np.ndarray | None = None) -> np.ndarray:
    """Backward solve of the linear matrix system for a frozen gain: P on
    the grid nodes, (N + 1, D, n, n).

    ``theta`` holds per-node per-regime gains (N + 1, D, m, n), or a stack
    of L such gain tables (L, N + 1, D, m, n), which run as the L slices
    of one driver call and give P of shape (L, N + 1, D, n, n); each slice
    is, bit for bit, the solve for its gain alone.  None means the zero
    gain, which drops every control-channel term.  A diverging solve
    raises :class:`DivergenceError` naming its node (the first diverging
    slice's, for a stack).
    """
    want = (spec.grid.steps + 1, spec.n_regimes, spec.m, spec.n)
    gains = _law_stack(np.broadcast_to(0.0, want) if theta is None else theta, want, "theta")
    path, failed = _rk4_stack(
        _lyapunov_rhs, _lyapunov_tables, _sweep_coefs(spec), [spec.G] * len(gains),
        [(0, spec.grid.steps)] * len(gains), spec.grid.h,
        per_slice=(np.moveaxis(gains, 0, 1),),
    )
    if failed:
        raise DivergenceError.at(spec.grid, failed[min(failed)])
    p_path = np.moveaxis(path, 1, 0)
    return p_path if np.ndim(theta) == len(want) + 1 else p_path[0]


def _law_stack(theta, want: tuple, name: str) -> np.ndarray:
    """One law of shape ``want``, or a stack (L >= 1, *want), as an (L, *want)
    float stack; any other shape raises an error naming ``name``."""
    theta = np.asarray(theta, dtype=float)
    laws = theta if theta.ndim == len(want) + 1 else theta[None]
    if laws.shape[1:] != want or len(laws) == 0:
        raise matcore.InvalidInputError(
            f"{name} shape {theta.shape} is neither {want} nor (L >= 1, *{want})")
    return laws


def _derived_tables(
    spec: ProblemSpec, p_path: np.ndarray, pinv_tol: float, nodes=slice(None),
):
    """Per-node gain-side composites, their pseudo-inverses and gains of
    ``p_path``, the path at the grid ``nodes``."""
    coefs = (x[nodes] for x in (spec.B, spec.D, spec.C, spec.S, spec.R))
    s_hat, r_hat = _hats(*coefs, p_path)
    eig, r_hat_pinv = matcore.pinv(r_hat, pinv_tol)
    theta = -(r_hat_pinv @ s_hat)
    return s_hat, r_hat, r_hat_pinv, theta, eig[..., 0]


def _classify(s_bar, r_hat, r_hat_pinv, min_eig, strong_tol: float) -> Classification:
    """The verdict on the law Theta_bar = -R_hat^+ S_bar.

    P is regular if R_hat >= 0 and R(S_hat) lies in R(R_hat) at every
    node; R_hat > 0 (strongly regular) implies the inclusion, so that
    case skips the S_hat test.  The law is closed-loop optimal iff P is
    regular and, in addition, rho_hat (the last column of S_bar) lies in
    R(R_hat) (Sun, Li & Yong, SIAM J. Control Optim. 54, 2016; extended
    to regime switching in arXiv 1809.01891), so that column is tested
    whenever R_hat >= 0.  The R_hat >= 0 test and the range tests use the
    fixed tolerances ``DEFAULT_PSD_TOL`` and ``DEFAULT_RANGE_TOL``.
    """
    lam_min = float(min_eig.min())
    strong = lam_min >= strong_tol
    if not strong and lam_min < -DEFAULT_PSD_TOL:
        k, i = np.unravel_index(int(min_eig.argmin()), min_eig.shape)
        return Classification(
            "not_regular",
            reason=f"control weight composite indefinite at node {k}, "
                   f"regime {i + 1} (min eig {lam_min:.3e})",
            strong_tol=strong_tol,
        )
    n = s_bar.shape[-1] - 1
    tests = [] if strong else [("range inclusion", s_bar[..., :n])]
    tests.append(("offset range condition", s_bar[..., n:]))
    for what, cols in tests:
        resid, bad = matcore.outside_range(r_hat, r_hat_pinv, cols, DEFAULT_RANGE_TOL)
        if bad.any():
            k, i = np.unravel_index(int(bad.argmax()), bad.shape)
            return Classification(
                "not_regular",
                reason=f"{what} fails at node {k}, regime {i + 1} "
                       f"(residual {resid[k, i]:.3e})",
                residual=float(resid[k, i]), strong_tol=strong_tol,
            )
    if strong:
        return Classification("strongly_regular", lambda_min=lam_min, strong_tol=strong_tol)
    return Classification("regular", strong_tol=strong_tol)


def _check_tols(pinv_tol: float, strong_tol: float) -> None:
    """The pseudo-inverse cutoff must lie in (0, 1), and a strong-
    regularity threshold must be positive and finite: at or below zero
    an indefinite control weight would certify as strong."""
    if not 0.0 < pinv_tol < 1.0:
        raise matcore.InvalidInputError(f"pinv_tol must lie in (0, 1), got {pinv_tol}")
    if not 0.0 < strong_tol < np.inf:
        raise matcore.InvalidInputError(
            f"strong_tol must be positive and finite, got {strong_tol}"
        )


def _build_solution(
    aug, p_bar, pinv_tol, strong_tol, trace=None, derived=None,
) -> RiccatiSolution:
    """The solution, its feedback law and its verdict from the path of
    ``aug``; ``derived``, if given, is the path's :func:`_derived_tables`."""
    if derived is None:
        derived = _derived_tables(aug, p_bar, pinv_tol)
    s_bar, r_hat, r_hat_pinv, theta_bar, min_eig = derived
    return RiccatiSolution(
        grid=aug.grid, P_bar=p_bar, S_bar=s_bar, R_hat=r_hat, Theta_bar=theta_bar,
        min_eig_R_hat=min_eig,
        classification=_classify(s_bar, r_hat, r_hat_pinv, min_eig, strong_tol),
        pinv_tol=pinv_tol, iteration_trace=trace,
    )


def solve_riccati_direct(
    spec: ProblemSpec,
    pinv_tol: float = matcore.DEFAULT_PINV_TOL,
    strong_tol: float = DEFAULT_STRONG_TOL,
) -> RiccatiSolution:
    """Backward RK4 solve of ``spec.augmented()`` with classification.

    The minimum-norm gain is taken at every node (the free complement of
    the pseudo-inverse gain is fixed to zero).  The sweep is one slice of
    :func:`_rk4_stack` over the whole grid.  Finite-time escape of
    indefinite problems, a non-finite entry or one beyond
    ``BLOWUP_LIMIT``, raises :class:`DivergenceError` naming the node and
    the cause rather than propagating into the classification.
    """
    _check_tols(pinv_tol, strong_tol)
    aug = spec.augmented()
    path, failed = _rk4_stack(
        lambda c, p: _riccati_rhs(c, p, pinv_tol), _riccati_tables, _sweep_coefs(aug),
        [aug.G], [(0, aug.grid.steps)], aug.grid.h,
    )
    if failed:
        raise DivergenceError.at(aug.grid, failed[0])
    return _build_solution(aug, path[:, 0], pinv_tol, strong_tol)


def iterate_strongly_regular(
    spec: ProblemSpec,
    max_iter: int = 50,
    conv_tol: float = 1e-10,
    pinv_tol: float = matcore.DEFAULT_PINV_TOL,
    strong_tol: float = DEFAULT_STRONG_TOL,
) -> RiccatiSolution:
    """Constructive fixed-point route to the strongly regular solution.

    Starts from the zero-gain linear solve P_0, then alternates the gain
    update Theta_j = -R_hat(P_j)^+ S_hat(P_j) with a fresh linear solve
    for P_(j+1) until the sup-norm of the iterate difference drops below
    ``conv_tol``, for at most ``max_iter`` solves after P_0.  Only
    meaningful on uniformly convex problems: a non-positive control
    weight composite at any node aborts with
    :class:`NotStronglyRegularError`.

    It runs on ``spec.augmented()``, so iterates and trace are of P_bar.
    The linear solves run staggered, one block apart, as in
    :class:`_Sweep`, with at most one solve beyond those the loop solving
    them one after another is known to need; results, trace and errors
    are those of that loop.
    """
    _check_tols(pinv_tol, strong_tol)
    if not max_iter >= 1:
        raise matcore.InvalidInputError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 < conv_tol < np.inf:
        raise matcore.InvalidInputError(
            f"conv_tol must be positive and finite, got {conv_tol}"
        )
    aug = spec.augmented()
    bounds = _blocks(aug.grid.steps)
    sweeps = [_Sweep(0, aug.G)]
    while any(s.error is None and len(s.blocks) < len(bounds) for s in sweeps):
        _wave(aug, sweeps, bounds, pinv_tol, conv_tol, max_iter)
        last = sweeps[-1]
        needed = last.j == 0 or _passed(sweeps[last.j - 1], conv_tol)
        if needed and last.j < max_iter and not last.final(len(bounds), conv_tol):
            sweeps.append(_Sweep(last.j + 1, aug.G))
    # the loop solving the sweeps one after another went on past every
    # sweep but the last, and ends at that one
    s = sweeps[-1]
    if s.error is not None:
        raise s.error
    if s.j > 0 and s.delta < conv_tol:
        p_bar, s.blocks = _joined(s.blocks), []  # hold the path once
        derived, s.derived = [_joined(blocks) for blocks in zip(*s.derived)], None
        return _build_solution(
            aug, p_bar, pinv_tol, strong_tol, [r.delta for r in sweeps[1:]], derived)
    if s.j == max_iter:
        raise NonConvergenceError(s.j, s.delta)
    raise NotStronglyRegularError(s.gain_min)


def _passed(s, conv_tol) -> bool:
    """Whether P_j is certainly not the result, so that the loop solving
    one sweep after another solves for P_(j+1) unless P_j fails."""
    return s.j == 0 or s.delta >= conv_tol


@dataclass(eq=False)
class _Sweep:
    """The linear solve for P_j in the staggered fixed-point iteration.

    Sweep j + 1 needs P_j and Theta_j only at the nodes of the block it
    runs, so it starts one block behind sweep j, and every running sweep
    moves back by one block per wave of :func:`_wave`.  It starts once
    the one-after-another loop certainly runs sweep j: sweeps 0 and 1
    always, sweep j >= 2 once the running ``delta`` of sweep j - 1
    reaches ``conv_tol`` (:func:`_passed`), none beyond ``max_iter``; so
    at most one sweep runs speculatively.  Each sweep takes its own
    gains and gain check on every block it steps, except a sweep at
    ``max_iter`` once it cannot be the result, whose gains no sweep reads
    and whose check decides nothing.  While a sweep can still be the
    result (j > 0 and ``delta`` below ``conv_tol``), it keeps each
    block's :func:`_derived_tables`, which join into the result's.  It
    is final once it diverged, failed that check, or finished with
    ``delta`` below ``conv_tol``: then it drops every later sweep, none
    starts after it, and unless it diverged it steps on to the end, so
    that its check sees every node.  A path block is freed once the next
    sweep has used it and the sweep has passed; a gain block once the
    next sweep has read it.
    """

    j: int
    y: np.ndarray  # the state at the top of the next block
    blocks: list = field(default_factory=list)  # block b's path, nodes lo..hi
    gains: list = field(default_factory=list)  # block b's Theta_j, until sweep j + 1 reads it
    # block b's _derived_tables while P_j can still be the result, else None
    derived: list | None = field(default_factory=list)
    delta: float = 0.0  # max ||P_j - P_(j-1)||_F over the blocks run
    gain_min: float = np.inf  # min eig of R_hat(P_j) over the blocks run
    error: DivergenceError | None = None

    def final(self, n_blocks: int, conv_tol: float) -> bool:
        converged = self.j > 0 and len(self.blocks) == n_blocks and self.delta < conv_tol
        return self.error is not None or self.gain_min <= 0.0 or converged


def _wave(spec, sweeps, bounds, pinv_tol, conv_tol, max_iter) -> None:
    """Move every running sweep back by one block, all of them as the
    slices of one :func:`_rk4_stack`, the speculative one among them,
    sweep j > 0 on the gains its predecessor took on that block.  Then
    each sweep that stepped takes its own gains and gain check on the
    block, unless it is at ``max_iter`` and cannot be the result, and
    keeps them while it can; a sweep that is final drops every later
    one."""
    run = [s for s in sweeps if s.error is None and len(s.blocks) < len(bounds)]
    spans = [bounds[len(s.blocks)] for s in run]
    steps = max(hi - lo for lo, hi in spans)
    gains = np.zeros((steps + 1, len(run), spec.n_regimes, spec.m, spec.n))
    for p, (s, (lo, hi)) in enumerate(zip(run, spans)):
        if s.j > 0:
            pred, b = sweeps[s.j - 1], len(s.blocks)
            gains[steps - (hi - lo):, p], pred.gains[b] = pred.gains[b], None
    path, failed = _rk4_stack(
        _lyapunov_rhs, _lyapunov_tables, _sweep_coefs(spec), [s.y for s in run],
        spans, spec.grid.h, per_slice=(gains,),
    )
    for p, (s, (lo, hi)) in enumerate(zip(run, spans)):
        if s.j >= len(sweeps):
            break  # dropped behind a sweep that went final in this wave
        if p in failed:
            s.error = DivergenceError.at(spec.grid, failed[p])
        else:
            blk = path[steps - (hi - lo):, p].copy()
            if s.j > 0:
                pred, b = sweeps[s.j - 1], len(s.blocks)
                diff = np.linalg.norm(blk - pred.blocks[b], axis=(-2, -1))
                s.delta = max(s.delta, float(diff.max()))
                if _passed(pred, conv_tol):
                    pred.blocks[:b + 1] = [None] * (b + 1)  # this sweep has used them
            s.y = blk[0]
            s.blocks.append(blk)
            result = s.j > 0 and s.delta < conv_tol  # P_j can still be the result
            if not result:
                s.derived = None
            if result or s.j < max_iter:
                *tables, min_eig = _derived_tables(spec, blk, pinv_tol, slice(lo, hi + 1))
                s.gains.append(tables[-1])
                s.gain_min = min(s.gain_min, float(min_eig.min()))
                if result:  # min_eig is a view of every eigenvalue
                    s.derived.append((*tables, min_eig.copy()))
        if s.final(len(bounds), conv_tol):
            del sweeps[s.j + 1:]


def _joined(blocks) -> np.ndarray:
    """A node table (N + 1, ...) of a sweep, its path or one of its
    derived tables, from its blocks, top block first."""
    return np.concatenate([b[:-1] for b in blocks[::-1]] + [blocks[0][-1:]])
