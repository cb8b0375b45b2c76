"""Affine offset system, full feedback law, and value evaluation.

With deterministic per-regime coefficients the offset process reduces to
a coupled linear vector ODE over regimes (the Brownian integrand
vanishes; the jump integrands become differences of the regime-indexed
offsets, so the generator coupling carries the chain expectation).  The
same mechanism accumulates the value function's running scalar term as a
regime-indexed backward ODE, which collapses to plain trapezoidal
quadrature whenever the generator is zero.

With P known the offset ODE is affine in eta, so per block of the shared
RK4 core one stacked pseudo-inverse gives the tables of its effective
drift, its forcing and the generator coupling; a stage is then a few
matrix-vector products.  The value-integral sweep reuses the coupling
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import symmetrize
from .model import ProblemSpec, TimeGrid, _hats, interp_nodes
from .riccati import RiccatiSolution, rk4_backward

__all__ = [
    "AffineSolution", "RangeConditionError", "solve_eta", "feedback_at", "value_function",
]


class RangeConditionError(RuntimeError):
    """The offset left the range of the control weight composite although
    the solution was classified strongly regular (a numerical failure)."""


@dataclass(frozen=True)
class AffineSolution:
    """Node-sampled offsets: eta, rho_hat, v_star, and the value integral.

    ``value_integral[k, i]`` is the expected accumulated running term of
    the value function from node k to the horizon, started in regime i.
    ``range_ok`` records whether rho_hat stayed inside the range of the
    control weight composite everywhere (always true for strongly regular
    solutions; a violation downgrades the closed-loop construction).
    """

    grid: TimeGrid
    eta: np.ndarray            # (N + 1, D, n)
    rho_hat: np.ndarray        # (N + 1, D, m)
    v_star: np.ndarray         # (N + 1, D, m)
    value_integral: np.ndarray  # (N + 1, D)
    range_ok: bool = True
    range_report: str | None = None

    def eta_at(self, t: float, i: int) -> np.ndarray:
        return interp_nodes(self.eta, self.grid, t)[i]

    def offset_at(self, t: float, i: int) -> np.ndarray:
        return interp_nodes(self.v_star, self.grid, t)[i]


def _coupling_table(rates: np.ndarray) -> np.ndarray:
    """Generator as a matrix on regime-stacked vectors: row i of
    ``table @ vec`` is sum_k lam[i,k] (vec_k - vec_i), without assuming
    that the rows of ``rates`` sum to zero."""
    table = np.array(rates, dtype=float)
    diag = np.arange(table.shape[-1])
    table[..., diag, diag] -= rates.sum(axis=-1)
    return table


def _matvec(mat, vec):
    return (mat @ vec[..., None])[..., 0]


def _eta_tables(coef, pinv_tol):
    """Offset-sweep tables from stacked samples; P enters as known data.

    The offset RHS is affine in eta: ``-(a_eff eta + f + L eta)`` with
    a_eff = A^T - S_hat^T R_hat^+ B^T, the forcing
    f = (C^T - S_hat^T R_hat^+ D^T) P sigma - S_hat^T R_hat^+ rho + P b + q
    and L the coupling table; one stacked pseudo-inverse per call.
    """
    ak, bk, ck, dk, sk, rk, sig, rho, bvec, qvec, lam, p = coef
    s_hat, r_hat = _hats(bk, dk, ck, sk, rk, p)
    gain_t = np.swapaxes(s_hat, -1, -2) @ matcore.pinv(r_hat, pinv_tol, hermitian=True)
    a_eff = np.swapaxes(ak, -1, -2) - gain_t @ np.swapaxes(bk, -1, -2)
    c_eff = np.swapaxes(ck, -1, -2) - gain_t @ np.swapaxes(dk, -1, -2)
    force = _matvec(c_eff, _matvec(p, sig)) - _matvec(gain_t, rho)
    force += _matvec(p, bvec) + qvec
    return a_eff, force, lam


def _eta_rhs(coef, eta):
    """Backward derivative of the offset vectors, all regimes stacked."""
    a_eff, force, lam = coef
    return -(_matvec(a_eff, eta) + force + lam @ eta)


def solve_eta(spec: ProblemSpec, ric: RiccatiSolution) -> AffineSolution:
    """Backward solve of the coupled offset ODE plus derived quantities.

    Requires a regular or strongly regular solution.  Produces the
    feedback offset ``v_star`` (minimum-norm representative) and the
    regime-indexed value integral.  A violated range condition on
    ``rho_hat`` is recorded on the result for a regular solution; for a
    strongly regular one the condition always holds in exact arithmetic,
    so a violation is a numerical failure and raises
    :class:`RangeConditionError`.
    """
    if not ric.classification.is_regular:
        raise ValueError(
            f"offset solve needs a regular solution, got {ric.classification}"
        )
    names = ("A", "B", "C", "D", "S", "R", "sigma", "rho", "b", "q")
    coupling = _coupling_table(spec.gen.rates)
    tables = [getattr(spec, f) for f in names] + [coupling, ric.P]
    eta_path = rk4_backward(
        _eta_rhs, spec.g, tables, spec.grid,
        derive=lambda c: _eta_tables(c, ric.pinv_tol),
    )

    p_sig = np.einsum("kdij,kdj->kdi", ric.P, spec.sigma)
    rho_hat = (
        np.einsum("kdji,kdj->kdi", spec.B, eta_path)
        + np.einsum("kdji,kdj->kdi", spec.D, p_sig)
        + spec.rho
    )
    v_star = -np.einsum("kdij,kdj->kdi", ric.R_hat_pinv, rho_hat)

    proj = np.einsum("kdij,kdj->kdi", ric.R_hat, -v_star)
    gap = np.linalg.norm(proj - rho_hat, axis=-1)
    bound = ric.classification.range_tol * np.maximum(
        1.0, np.linalg.norm(rho_hat, axis=-1)
    )
    range_ok = bool(np.all(gap <= bound))
    report = None
    if not range_ok:
        k, i = np.unravel_index(int((gap - bound).argmax()), gap.shape)
        where = (
            f"offset range condition fails at node {k}, regime {i} "
            f"(gap {gap[k, i]:.3e})"
        )
        if ric.classification.kind == "strongly_regular":
            raise RangeConditionError(f"{where} for a strongly regular solution")
        report = f"{where}; closed-loop construction downgraded"

    # running scalar term of the value function, then its chain expectation
    p_hat = np.einsum("kdi,kdi->kd", p_sig, spec.sigma)
    p_hat += 2.0 * np.einsum("kdi,kdi->kd", eta_path, spec.b)
    integrand = p_hat + np.einsum("kdi,kdi->kd", v_star, rho_hat)
    w_path = rk4_backward(
        lambda c, w: -(c[0] + c[1] @ w),
        np.zeros(spec.n_regimes), [integrand, coupling], spec.grid,
    )

    return AffineSolution(
        grid=spec.grid, eta=eta_path, rho_hat=rho_hat, v_star=v_star,
        value_integral=w_path, range_ok=range_ok, range_report=report,
    )


def feedback_at(
    ric: RiccatiSolution, aff: AffineSolution, t: float, i: int, x: np.ndarray
) -> np.ndarray:
    """Feedback control at (t, i, x): gain times state plus offset.

    Node samples are interpolated piecewise-linearly in t.
    """
    x = np.asarray(x, dtype=float)
    return ric.gain_at(t, i) @ x + aff.offset_at(t, i)


def value_function(
    ric: RiccatiSolution, aff: AffineSolution, t: float, i: int, x: np.ndarray
) -> float:
    """Optimal cost-to-go from (t, x, i) under the synthesized feedback."""
    x = np.asarray(x, dtype=float)
    p = symmetrize(ric.value_matrix_at(t, i))
    quad = float(x @ p @ x) + 2.0 * float(aff.eta_at(t, i) @ x)
    return quad + float(interp_nodes(aff.value_integral, ric.grid, t)[i])
