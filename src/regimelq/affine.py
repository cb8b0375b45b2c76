"""Affine offset system, full feedback law, and value evaluation.

With deterministic per-regime coefficients the offset process reduces to
a coupled linear vector ODE over regimes (the Brownian integrand
vanishes; the jump integrands become differences of the regime-indexed
offsets, so the generator coupling carries the chain expectation).  The
same mechanism accumulates the value function's running scalar term as a
regime-indexed backward ODE, which collapses to plain trapezoidal
quadrature whenever the generator is zero.
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


def _coupling(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Generator coupling sum_k lam[i,k] (vec_k - vec_i), exactly."""
    full = np.einsum("ik,k...->i...", lam, vec)
    row_sum = lam.sum(axis=1)
    return full - row_sum.reshape((-1,) + (1,) * (vec.ndim - 1)) * vec


def _eta_rhs(coef, p, eta, pinv_tol):
    """Backward derivative of the offset vectors, all regimes stacked."""
    ak, bk, ck, dk, sk, rk, sig, rho, bvec, qvec, lam = coef
    s_hat, r_hat = _hats(bk, dk, ck, sk, rk, p)
    gain_t = np.swapaxes(s_hat, -1, -2) @ matcore.pinv(r_hat, pinv_tol)
    a_eff = np.swapaxes(ak, -1, -2) - gain_t @ np.swapaxes(bk, -1, -2)
    c_eff = np.swapaxes(ck, -1, -2) - gain_t @ np.swapaxes(dk, -1, -2)
    p_sig = np.einsum("dij,dj->di", p, sig)
    drift = np.einsum("dij,dj->di", a_eff, eta)
    drift += np.einsum("dij,dj->di", c_eff, p_sig)
    drift -= np.einsum("dij,dj->di", gain_t, rho)
    drift += np.einsum("dij,dj->di", p, bvec) + qvec
    drift += _coupling(lam, eta)
    return -drift


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
    tables = [getattr(spec, f) for f in names] + [spec.gen.rates, ric.P]
    eta_path = rk4_backward(
        lambda c, eta: _eta_rhs(c[:-1], c[-1], eta, ric.pinv_tol),
        spec.g, tables, spec.grid,
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
        lambda c, w: -(c[0] + _coupling(c[1], w)),
        np.zeros(spec.n_regimes), [integrand, spec.gen.rates], spec.grid,
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
