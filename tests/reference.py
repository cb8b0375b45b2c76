"""Reference implementations that the tests compare the package against."""

import numpy as np

from regimelq import matcore
from regimelq.model import _hats
from regimelq.riccati import (
    DEFAULT_PINV_TOL,
    NonConvergenceError,
    NotStronglyRegularError,
    solve_lyapunov,
)


def iterate_one_by_one(spec, max_iter, conv_tol):
    """The fixed-point loop with each linear solve run to the end before
    the next: the reference the staggered sweeps of
    :func:`regimelq.riccati.iterate_strongly_regular` must reproduce.
    Like them it runs on the problem in x_bar = [x, 1]; returns the last
    P_bar, the trace and every P_bar iterate from P_0 on."""
    spec = spec.augmented()
    p_n = solve_lyapunov(spec).P
    trace, iterates = [], [p_n]
    for _ in range(max_iter):
        s_hat, r_hat = _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p_n)
        eig, r_hat_pinv = matcore.pinv(r_hat, DEFAULT_PINV_TOL)
        if eig[..., 0].min() <= 0.0:
            raise NotStronglyRegularError(float(eig[..., 0].min()))
        p_next = solve_lyapunov(spec, -(r_hat_pinv @ s_hat)).P
        trace.append(float(np.linalg.norm(p_next - p_n, axis=(-2, -1)).max()))
        iterates.append(p_next)
        p_n = p_next
        if trace[-1] < conv_tol:
            return p_n, trace, iterates
    raise NonConvergenceError(len(trace), trace[-1])
