"""Dense real matrix kernel.

Small matrices only (state and control dimensions stay in the tens).
Everything here is a pure function of its inputs; arrays are never
modified in place.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InvalidInputError",
    "as_matrix",
    "symmetrize",
    "pinv",
    "min_eig_sym",
    "range_included",
]

DEFAULT_PINV_RTOL = 1e-12


class InvalidInputError(ValueError):
    """Raised when an operand is non-finite or has incompatible shape."""


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate ``a`` as a finite 2-d float array, optionally checking shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise InvalidInputError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise InvalidInputError(f"expected {cols} columns, got {m.shape[1]}")
    return m


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2 over the last two axes."""
    m = np.asarray(a, dtype=float)
    return 0.5 * (m + m.swapaxes(-1, -2))


def pinv(mat, rel_tol: float = DEFAULT_PINV_RTOL, hermitian: bool = False) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with relative truncation.

    Singular values below ``rel_tol`` times the largest singular value are
    treated as exact zeros.  Accepts stacked matrices over the last two
    axes.  The result satisfies the four Penrose identities to numerical
    tolerance.  With ``hermitian`` set the input is taken to be symmetric
    (only its lower triangle is read) and the symmetric eigensolver
    replaces the SVD: the singular values are the eigenvalue magnitudes,
    so the cutoff is ``rel_tol * max|lambda|``.
    """
    if hermitian:
        return _eigh_pinv(mat, rel_tol)[1]
    m = _pinv_operand(mat, rel_tol)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    inv_s = _inverse_above(s, rel_tol)
    return vt.swapaxes(-1, -2) @ (inv_s[..., None] * u.swapaxes(-1, -2))


def _eigh_pinv(mat, rel_tol: float = DEFAULT_PINV_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and pseudo-inverse of a symmetric stack.

    One eigendecomposition gives both; the cutoff is that of
    ``pinv(mat, rel_tol, hermitian=True)``.
    """
    m = _pinv_operand(mat, rel_tol)
    if m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"symmetric pinv needs square matrices, got {m.shape}")
    return _eigh_pinv_finite(m, rel_tol)


def _eigh_pinv_finite(m: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_eigh_pinv` without the operand checks, for a caller that
    has established a finite square float stack and ``0 < rel_tol < 1``."""
    w, v = np.linalg.eigh(m)
    inv_w = _inverse_above(w, rel_tol)
    return w, v @ (inv_w[..., None] * v.swapaxes(-1, -2))


def _inverse_above(vals, rel_tol: float) -> np.ndarray:
    """1/vals where |vals| exceeds ``rel_tol`` times the largest |vals| of
    its matrix (last axis), exact zeros elsewhere."""
    mag = np.abs(vals)
    keep = mag > rel_tol * mag.max(axis=-1, keepdims=True)
    return 1.0 / np.where(keep, vals, np.inf)


def _pinv_operand(mat, rel_tol: float) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim < 2:
        raise InvalidInputError("pinv needs at least a 2-d array")
    if not np.isfinite(m).all():
        raise InvalidInputError("pinv input contains non-finite entries")
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return m


def min_eig_sym(mat) -> float:
    """Smallest eigenvalue of a symmetric matrix (symmetric eigensolver)."""
    m = as_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got {m.shape}")
    return float(np.linalg.eigvalsh(symmetrize(m))[0])


def range_included(col_mat, psd_mat, tol: float = 1e-8) -> bool:
    """Whether range(col_mat) is contained in range(psd_mat).

    Uses the orthogonal projector onto range(psd_mat): the inclusion holds
    iff ``(I - R R^+) S == 0``, tested in Frobenius norm relative to
    ``max(1, ||S||_F)``.
    """
    s = as_matrix(col_mat)
    r = as_matrix(psd_mat)
    if r.shape[0] != r.shape[1]:
        raise InvalidInputError(f"projector matrix must be square, got {r.shape}")
    if s.shape[0] != r.shape[0]:
        raise InvalidInputError(
            f"row count {s.shape[0]} does not match projector dimension {r.shape[0]}"
        )
    resid = s - r @ (pinv(r) @ s)
    return float(np.linalg.norm(resid)) <= tol * max(1.0, float(np.linalg.norm(s)))
