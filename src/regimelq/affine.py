"""Affine offsets, full feedback law, and value evaluation.

The Riccati solve sweeps the problem in x_bar = [x, 1] and synthesizes
the feedback law there (:class:`RiccatiSolution`): P_bar = [[P, eta],
[eta^T, w]] holds the offset eta and the value integral w, S_bar =
[S_hat, rho_hat] the offset composite rho_hat = B^T eta + D^T P sigma +
rho, and Theta_bar = -R_hat^+ S_bar = [Theta, v*] the gain and the
minimum-norm offset v*.  Its verdict already covers the range condition
rho_hat in R(R_hat).  This module reads those columns off and evaluates
the law and the value function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec, TimeGrid, interp_nodes
from .riccati import RiccatiSolution

__all__ = ["AffineSolution", "solve_eta", "feedback_at", "value_function"]


@dataclass(frozen=True)
class AffineSolution:
    """Node-sampled offsets: eta, rho_hat, v_star, and the value integral.

    ``value_integral[k, i]`` is the expected accumulated running term of
    the value function from node k to the horizon, started in regime i.
    """

    grid: TimeGrid
    eta: np.ndarray            # (N + 1, D, n)
    rho_hat: np.ndarray        # (N + 1, D, m)
    v_star: np.ndarray         # (N + 1, D, m)
    value_integral: np.ndarray  # (N + 1, D)

    def offset_at(self, t: float, i: int) -> np.ndarray:
        return interp_nodes(self.v_star, self.grid, t)[i]


def solve_eta(spec: ProblemSpec, ric: RiccatiSolution) -> AffineSolution:
    """The offsets and the value integral of a regular solution ``ric``:
    the last columns of its P_bar, S_bar and Theta_bar."""
    if not ric.classification.is_regular:
        raise ValueError(
            f"offset solve needs a regular solution, got {ric.classification}"
        )
    return AffineSolution(
        grid=spec.grid, eta=ric.P_bar[..., :-1, -1],
        rho_hat=np.ascontiguousarray(ric.S_bar[..., -1]),
        v_star=np.ascontiguousarray(ric.Theta_bar[..., -1]),
        value_integral=ric.P_bar[..., -1, -1],
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
