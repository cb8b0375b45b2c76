"""Dense real matrix kernel for stacks of small symmetric matrices.

Small matrices only (state and control dimensions stay in the tens).
Everything here is a pure function of its inputs; arrays are never
modified in place.  The one pseudo-inverse is taken by the symmetric
eigensolver, which gives the eigenvalues with it; :func:`pinv` checks
its operand, and :func:`_eigh_pinv_finite` is the same kernel without
the checks, for a caller that runs it once per RK4 stage.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InvalidInputError", "symmetrize", "pinv", "outside_range"]

DEFAULT_PINV_RTOL = 1e-12


class InvalidInputError(ValueError):
    """Raised when an operand is non-finite or has incompatible shape."""


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2 over the last two axes."""
    m = np.asarray(a, dtype=float)
    return 0.5 * (m + m.swapaxes(-1, -2))


def pinv(mat, rel_tol: float = DEFAULT_PINV_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and Moore-Penrose pseudo-inverse of a
    symmetric stack over the last two axes, from one eigendecomposition.

    Only the lower triangle is read.  Eigenvalues whose magnitude is
    below ``rel_tol`` times the largest magnitude of their matrix are
    treated as exact zeros (the singular values of a symmetric matrix
    are its eigenvalue magnitudes, so this is the usual relative cutoff).
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"pinv needs a stack of square matrices, got {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("pinv input contains non-finite entries")
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return _eigh_pinv_finite(m, rel_tol)


def _eigh_pinv_finite(m: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pinv` without the operand checks, for a caller that has
    established a finite square float stack and ``0 < rel_tol < 1``."""
    w, v = np.linalg.eigh(m)
    mag = np.abs(w)
    keep = mag > rel_tol * mag.max(axis=-1, keepdims=True)
    inv_w = 1.0 / np.where(keep, w, np.inf)
    return w, v @ (inv_w[..., None] * v.swapaxes(-1, -2))


def outside_range(r, r_pinv, s, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Range test of a stack: whether R(s) leaves R(r), matrix by matrix.

    ``r_pinv`` is the pseudo-inverse of the symmetric ``r``, so r r^+ is
    the orthogonal projector onto R(r).  Returns the residual
    ||(I - r r^+) s||_F of every matrix and whether it exceeds
    ``tol * max(1, ||s||_F)``.
    """
    resid = np.linalg.norm(s - r @ (r_pinv @ s), axis=(-2, -1))
    return resid, resid > tol * np.maximum(1.0, np.linalg.norm(s, axis=(-2, -1)))
