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
    "sym_matrix",
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
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def sym_matrix(a, dim: int | None = None) -> np.ndarray:
    """Validated symmetric-matrix constructor: finite, square, (A + A^T)/2.

    The symmetrization keeps downstream definiteness and range tests
    well-posed when the input drifts off symmetry by rounding.
    """
    m = as_matrix(a, rows=dim, cols=dim)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got {m.shape}")
    return symmetrize(m)


def pinv(mat, rel_tol: float = DEFAULT_PINV_RTOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse by SVD with relative truncation.

    Singular values below ``rel_tol`` times the largest singular value are
    treated as exact zeros.  Accepts stacked matrices over the last two
    axes.  The result satisfies the four Penrose identities to numerical
    tolerance.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim < 2:
        raise InvalidInputError("pinv needs at least a 2-d array")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("pinv input contains non-finite entries")
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cutoff = rel_tol * np.max(s, axis=-1, keepdims=True)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return np.swapaxes(vt, -1, -2) @ (inv_s[..., None] * np.swapaxes(u, -1, -2))


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
