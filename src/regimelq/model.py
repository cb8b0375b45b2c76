"""Problem specification: time grid, chain generator, per-regime coefficients.

Coefficients are stored as samples on the uniform grid, one array per
field with shape ``(N + 1, n_regimes, ...)``, and evaluated anywhere in
``[t0, T]`` by piecewise-linear interpolation (exact at the nodes).
Terminal weights are per-regime constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .matcore import symmetrize

__all__ = [
    "GridRangeError",
    "TimeGrid",
    "Generator",
    "ProblemSpec",
    "validate",
    "interp_nodes",
]

# The one field schema: the paper's thirteen per-regime coefficients in
# problem-file order, each with its per-regime shape in the state
# dimension n and the control dimension m.  Running fields (A .. rho) are
# sampled per node, so their arrays carry a leading node axis; the
# terminal weights G and g do not.  The optional fields default to zero;
# the symmetric fields are symmetrized on construction and on read.
# validate, ProblemSpec, problemfile and benchmarks all walk this table.
_FIELDS = {
    "A": "nn", "B": "nm", "C": "nn", "D": "nm",
    "Q": "nn", "S": "mn", "R": "mm",
    "b": "n", "sigma": "n", "q": "n", "rho": "m",
    "G": "nn", "g": "n",
}
_RUNNING_FIELDS = tuple(name for name in _FIELDS if name not in ("G", "g"))
_OPTIONAL_FIELDS = ("b", "sigma", "q", "rho", "g")
_SYM_FIELDS = ("Q", "R", "G")


def _field_shapes(n: int, m: int) -> dict[str, tuple[int, ...]]:
    """Per-regime shape of every field, in table order."""
    dims = {"n": n, "m": m}
    return {name: tuple(dims[d] for d in spec) for name, spec in _FIELDS.items()}


class GridRangeError(ValueError):
    """Raised when a query time falls outside the solved horizon."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, T] with N steps (N + 1 nodes)."""

    t0: float
    T: float
    steps: int

    def __post_init__(self):
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got [{self.t0}, {self.T}]")
        if not math.isfinite(float(self.T) - float(self.t0)):
            raise ValueError(f"need finite t0, T and T - t0, got [{self.t0}, {self.T}]")
        if self.steps < 2:
            raise ValueError(f"need at least 2 steps, got {self.steps}")

    @property
    def h(self) -> float:
        return (self.T - self.t0) / self.steps

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.steps + 1)

    def nodes(self) -> np.ndarray:
        """Grid nodes (cached; treat as read-only)."""
        return self._nodes

    def locate(self, t: float) -> tuple[int, float]:
        """Cell index k and barycentric weight w with t = (1-w) t_k + w t_{k+1}."""
        if not self.t0 <= t <= self.T:
            raise GridRangeError(f"t={t} outside [{self.t0}, {self.T}]")
        pos = (t - self.t0) / self.h
        k = min(int(np.floor(pos)), self.steps - 1)
        return k, pos - k

    def node_index(self, t: float, tol: float = 1e-9) -> int:
        """Index of the grid node at time t; t must sit on a node."""
        k, w = self.locate(t)
        if w < tol:
            return k
        if 1.0 - w < tol:
            return k + 1
        raise GridRangeError(f"t={t} is not a grid node (step {self.h})")


def interp_nodes(arr: np.ndarray, grid: TimeGrid, t: float) -> np.ndarray:
    """Piecewise-linear interpolation of node samples arr[k, ...] at time t."""
    k, w = grid.locate(t)
    if w == 0.0:
        return arr[k]
    return (1.0 - w) * arr[k] + w * arr[k + 1]


@dataclass(frozen=True)
class Generator:
    """Chain generator: per-node D x D transition intensities.

    Off-diagonal entries are nonnegative rates, rows sum to zero.  A
    time-dependent generator is just non-constant node samples.
    """

    rates: np.ndarray  # (N + 1, D, D)

    def __post_init__(self):
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))
        if self.rates.ndim != 3 or self.rates.shape[1] != self.rates.shape[2]:
            raise ValueError(f"rates must be (nodes, D, D), got {self.rates.shape}")

    @property
    def n_regimes(self) -> int:
        return self.rates.shape[1]

    @classmethod
    def constant(cls, q_matrix, grid: TimeGrid) -> "Generator":
        q = np.asarray(q_matrix, dtype=float)
        return cls(np.broadcast_to(q, (grid.steps + 1, *q.shape)).copy())

    def violations(self, atol: float = 1e-10) -> list[str]:
        out = []
        if not np.all(np.isfinite(self.rates)):
            out.append("generator has non-finite entries")
            return out
        d = self.n_regimes
        off = self.rates * (1.0 - np.eye(d))
        if np.any(off < -atol):
            out.append("generator off-diagonal rate negative")
        with np.errstate(over="ignore"):  # an infinite sum is reported below
            row_sums = self.rates.sum(axis=2)
        scale = max(1.0, float(np.abs(self.rates).max(initial=0.0)))
        if np.any(np.abs(row_sums) > atol * scale):
            worst = float(np.abs(row_sums).max())
            out.append(f"generator row sum nonzero (max |sum| = {worst:.3e})")
        return out


@dataclass(frozen=True)
class ProblemSpec:
    """All problem data: dimensions, grid, generator, coefficient samples.

    Running coefficients have shape (N + 1, D, ...); terminal weights G
    (D, n, n) and g (D, n).  Immutable once built; safe to share across
    simulation workers.
    """

    n: int
    m: int
    grid: TimeGrid
    gen: Generator
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    q: np.ndarray
    rho: np.ndarray
    G: np.ndarray
    g: np.ndarray

    @property
    def n_regimes(self) -> int:
        return self.gen.n_regimes

    @classmethod
    def from_regimes(
        cls,
        grid: TimeGrid,
        gen: Generator,
        *,
        A, B, C, D, Q, S, R, G,
        b=None, sigma=None, q=None, rho=None, g=None,
    ) -> "ProblemSpec":
        """Build a spec from per-regime constant coefficients.

        Each matrix argument is a sequence over regimes (or a single array
        shared by all regimes).  Affine terms default to zero.  Weight
        matrices Q, R, G are symmetrized on construction.
        """
        given = locals()  # the coefficient arguments by field name
        n_reg = gen.n_regimes
        n = _regime_stack(A, n_reg).shape[1]
        b0 = _regime_stack(B, n_reg)
        m = b0.shape[2] if b0.ndim == 3 else 1

        kw = {}
        for name, tail in _field_shapes(n, m).items():
            x = given[name]
            if x is None and name in _OPTIONAL_FIELDS:
                x = np.zeros(tail)
            arr = _regime_stack(x, n_reg, tail)
            if name in _RUNNING_FIELDS:
                arr = np.broadcast_to(arr, (grid.steps + 1, *arr.shape)).copy()
            kw[name] = symmetrize(arr) if name in _SYM_FIELDS else arr
        return cls(n=n, m=m, grid=grid, gen=gen, **kw)

    def homogeneous(self) -> "ProblemSpec":
        """Copy with all affine data (the optional fields) zeroed."""
        return replace(
            self, **{name: np.zeros_like(getattr(self, name)) for name in _OPTIONAL_FIELDS}
        )

    def with_steps(self, steps: int) -> "ProblemSpec":
        """Resample every node-indexed field onto a grid with ``steps`` steps."""
        new_grid = TimeGrid(self.grid.t0, self.grid.T, steps)
        old_t = self.grid.nodes()
        new_t = new_grid.nodes()

        def resample(arr):
            flat = arr.reshape(arr.shape[0], -1)
            out = np.empty((steps + 1, flat.shape[1]))
            for j in range(flat.shape[1]):
                out[:, j] = np.interp(new_t, old_t, flat[:, j])
            return out.reshape(steps + 1, *arr.shape[1:])

        return replace(
            self, grid=new_grid, gen=Generator(resample(self.gen.rates)),
            **{name: resample(getattr(self, name)) for name in _RUNNING_FIELDS},
        )


def _regime_stack(x, n_regimes: int, shape=None) -> np.ndarray:
    """Stack per-regime data into (D, ...); a single array is shared."""
    if isinstance(x, (list, tuple)):
        arrs = [np.atleast_1d(np.asarray(v, dtype=float)) for v in x]
        if len(arrs) != n_regimes:
            raise ValueError(f"expected {n_regimes} per-regime entries, got {len(arrs)}")
        stacked = np.stack([a.reshape(shape) if shape else a for a in arrs])
    else:
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if shape is not None:
            a = a.reshape(shape)
        stacked = np.broadcast_to(a, (n_regimes, *a.shape)).copy()
    return stacked


def _hats(bk, dk, ck, sk, rk, p):
    """Stacked (B^T P + D^T P C + S, sym(R + D^T P D)) over leading axes."""
    bt_p = np.swapaxes(bk, -1, -2) @ p
    dt_p = np.swapaxes(dk, -1, -2) @ p
    s_hat = bt_p + dt_p @ ck + sk
    r_hat = symmetrize(rk + dt_p @ dk)
    return s_hat, r_hat


def validate(spec: ProblemSpec) -> list[str]:
    """Check admissibility; returns a list of violations (empty = admissible).

    Never raises: every problem found is reported as a human-readable
    string naming the offending field.
    """
    out: list[str] = []
    n, m, n_reg = spec.n, spec.m, spec.n_regimes
    n_nodes = spec.grid.steps + 1

    for name, tail in _field_shapes(n, m).items():
        arr = getattr(spec, name)
        want = (n_nodes, n_reg, *tail) if name in _RUNNING_FIELDS else (n_reg, *tail)
        if arr.shape != want:
            out.append(f"{name} shape {arr.shape} != {want}")
        elif not np.all(np.isfinite(arr)):
            out.append(f"{name} has non-finite entries")
        if name in _SYM_FIELDS and arr.ndim >= 2 and arr.shape[-1] == arr.shape[-2] and (
            not np.array_equal(arr, np.swapaxes(arr, -1, -2))
        ):
            out.append(f"{name} not symmetric")

    if spec.gen.rates.shape[0] != n_nodes:
        out.append(
            f"generator sampled on {spec.gen.rates.shape[0]} nodes, grid has {n_nodes}"
        )
    out.extend(spec.gen.violations())
    return out
