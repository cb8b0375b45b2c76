"""Dense real matrix kernel for stacks of small symmetric matrices.

Small matrices only (state and control dimensions stay in the tens).
Everything here is a pure function of its inputs; arrays are never
modified in place.  The one pseudo-inverse is taken by the symmetric
eigensolver, which gives the eigenvalues with it, except for 1 x 1
matrices, whose eigenvalue is their entry and whose pseudo-inverse is
its reciprocal (or zero), bit for bit what the eigensolver path gives;
:func:`pinv` checks its operand, and :func:`_eigh_pinv_finite` is the
same kernel without the checks, for a caller that runs it once per RK4
stage, where a matrix that went non-finite after an overflow gets NaN
results instead of an eigensolve.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InvalidInputError", "symmetrize", "pinv", "outside_range"]

DEFAULT_PINV_TOL = 1e-12


class InvalidInputError(ValueError):
    """Raised when an operand is non-finite or has incompatible shape."""


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2 over the last two axes."""
    m = np.asarray(a, dtype=float)
    return 0.5 * (m + m.swapaxes(-1, -2))


def pinv(mat, rel_tol: float = DEFAULT_PINV_TOL) -> tuple[np.ndarray, np.ndarray]:
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
    established a square float stack and ``0 < rel_tol < 1``.

    A (..., 1, 1) stack skips the eigensolver: LAPACK returns a 1 x 1
    matrix's entry r as its eigenvalue with eigenvector 1.0, so r and
    1/r, or 0 where the cutoff drops r, are its results bit for bit.  The
    cutoff is kept as |r| > rel_tol |r|, not r != 0: for a subnormal r
    and rel_tol above 1/2 the product can round up to |r|.

    The finite matrices of the stack get the results :func:`pinv` gives
    them.  A larger matrix with a non-finite entry, which an RK4 stage
    passes after an overflow, runs no eigensolver and gets NaN results;
    with errors ignored, as in that stage, a non-finite 1 x 1 one takes
    the closed form.
    """
    if m.shape[-1] == 1:
        mag = np.abs(m)
        return m[..., 0].copy(), 1.0 / np.where(mag > rel_tol * mag, m, np.inf)
    if not np.isfinite(m).all():
        ok = np.isfinite(m).all(axis=(-2, -1))
        w, r_pinv = np.full(m.shape[:-1], np.nan), np.full_like(m, np.nan)
        w[ok], r_pinv[ok] = _eigh_pinv_finite(m[ok], rel_tol)
        return w, r_pinv
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
