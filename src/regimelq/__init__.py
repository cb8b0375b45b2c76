"""Stochastic LQ control of Markov regime-switching linear SDEs.

Solves the coupled per-regime Riccati and offset systems backward on a
time grid, synthesizes the optimal feedback law, and certifies the
optimality and value identities by Monte-Carlo simulation.
"""

from .affine import (
    AffineSolution, RangeConditionError, feedback_at, solve_eta, value_function,
)
from .matcore import min_eig_sym, pinv, range_included
from .model import (
    CoeffAt,
    Generator,
    GridRangeError,
    ProblemSpec,
    TimeGrid,
    coeff_at,
    hat_terms,
    validate,
)
from .riccati import (
    Classification,
    DivergenceError,
    LyapunovSolution,
    NonConvergenceError,
    NotStronglyRegularError,
    RiccatiSolution,
    iterate_strongly_regular,
    riccati_rhs,
    solve_lyapunov,
    solve_riccati_direct,
)
from .sim import (
    ChainPath,
    MCEstimate,
    MCMatrixEstimate,
    StatePath,
    brownian_increments,
    evaluate_cost,
    feynman_kac_M0,
    mc_value,
    simulate_chain,
    simulate_closed_loop,
    simulate_policy,
    simulate_state,
)

__version__ = "0.1.0"
