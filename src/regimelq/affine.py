"""Affine offsets, full feedback law, and value evaluation.

The Riccati solve sweeps the problem in x_bar = [x, 1], so its solution
P_bar = [[P, eta], [eta^T, w]] already holds the offset eta and the
value integral w at RK4 order 4; no further sweep runs here.  What is
left is the offset of the feedback law: rho_hat = B^T eta + D^T P sigma
+ rho and its minimum-norm preimage v* = -R_hat^+ rho_hat, with the
range condition rho_hat in R(R_hat) checked at every node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .model import ProblemSpec, TimeGrid, interp_nodes
from .riccati import RiccatiSolution

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

    def offset_at(self, t: float, i: int) -> np.ndarray:
        return interp_nodes(self.v_star, self.grid, t)[i]


def solve_eta(spec: ProblemSpec, ric: RiccatiSolution) -> AffineSolution:
    """Offsets and value integral from the augmented Riccati solution.

    Requires a regular or strongly regular solution.  Produces the
    feedback offset ``v_star`` (minimum-norm representative).  A
    violated range condition on ``rho_hat`` is recorded on the result
    for a regular solution; for a strongly regular one the condition
    always holds in exact arithmetic, so a violation is a numerical
    failure and raises :class:`RangeConditionError`.
    """
    if not ric.classification.is_regular:
        raise ValueError(
            f"offset solve needs a regular solution, got {ric.classification}"
        )
    eta, w = ric.P_bar[..., :-1, -1], ric.P_bar[..., -1, -1]
    p_sig = np.einsum("kdij,kdj->kdi", ric.P, spec.sigma)
    rho_hat = (
        np.einsum("kdji,kdj->kdi", spec.B, eta)
        + np.einsum("kdji,kdj->kdi", spec.D, p_sig)
        + spec.rho
    )
    r_hat_pinv = matcore.pinv(ric.R_hat, ric.pinv_tol, hermitian=True)
    v_star = -np.einsum("kdij,kdj->kdi", r_hat_pinv, rho_hat)

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

    return AffineSolution(
        grid=spec.grid, eta=eta, rho_hat=rho_hat, v_star=v_star,
        value_integral=w, range_ok=range_ok, range_report=report,
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
    """Optimal cost-to-go x_bar^T P_bar x_bar from (t, x, i), x_bar = [x, 1]."""
    x_bar = np.append(np.asarray(x, dtype=float), 1.0)
    return float(x_bar @ interp_nodes(ric.P_bar, ric.grid, t)[i] @ x_bar)
