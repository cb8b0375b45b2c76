"""Stochastic LQ control of Markov regime-switching linear SDEs.

Solves the coupled per-regime Riccati system backward on a time grid,
in the augmented state [x, 1] so that the offset and the value integral
come with it, synthesizes the optimal feedback law, and certifies the
optimality and value identities by Monte-Carlo simulation and by exact
expectations of the Euler scheme.
"""

from .affine import AffineSolution, feedback_at, solve_eta, value_function
from .model import (
    Generator,
    GridRangeError,
    ProblemSpec,
    TimeGrid,
    validate,
)
from .riccati import (
    Classification,
    DivergenceError,
    NonConvergenceError,
    NotStronglyRegularError,
    RiccatiSolution,
    iterate_strongly_regular,
    solve_lyapunov,
    solve_riccati_direct,
)
from .sim import (
    ChainPath,
    MCEstimate,
    StatePath,
    brownian_increments,
    evaluate_cost,
    mc_value,
    simulate_chain,
    simulate_closed_loop,
    simulate_policy,
    simulate_state,
)

__version__ = "0.1.0"
