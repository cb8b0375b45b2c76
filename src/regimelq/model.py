"""Problem specification: time grid, chain generator, per-regime coefficients.

Coefficients are stored as samples on the uniform grid, one array per
field with shape ``(N + 1, n_regimes, ...)``, and evaluated anywhere in
``[t0, T]`` by piecewise-linear interpolation (exact at the nodes).
Terminal weights are per-regime constants.  Every array of a spec is
read-only, and a field that is constant in time is one sample broadcast
along the node axis (stride 0), so it is held once, not N + 1 times.
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


def _on_nodes(sample, n_nodes: int) -> np.ndarray:
    """One read-only copy of ``sample`` broadcast along a new leading node
    axis of length ``n_nodes``."""
    one = np.array(sample, dtype=float)
    one.flags.writeable = False
    return np.broadcast_to(one, (n_nodes, *one.shape))


def _is_node_constant(arr: np.ndarray) -> bool:
    """Whether ``arr`` is one sample broadcast along its node axis."""
    return arr.strides[0] == 0


def _frozen(arr) -> np.ndarray:
    """A read-only float view of ``arr``; the caller's array is untouched."""
    view = np.asarray(arr, dtype=float).view()
    view.flags.writeable = False
    return view


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
    time-dependent generator is just non-constant node samples.  The
    rates are read-only; constant rates are one broadcast sample.
    """

    rates: np.ndarray  # (N + 1, D, D)

    def __post_init__(self):
        object.__setattr__(self, "rates", _frozen(self.rates))
        if self.rates.ndim != 3 or self.rates.shape[1] != self.rates.shape[2]:
            raise ValueError(f"rates must be (nodes, D, D), got {self.rates.shape}")

    @property
    def n_regimes(self) -> int:
        return self.rates.shape[1]

    @classmethod
    def constant(cls, q_matrix, grid: TimeGrid) -> "Generator":
        return cls(_on_nodes(q_matrix, grid.steps + 1))

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
    (D, n, n) and g (D, n).  Immutable once built: every field array is
    read-only (a write raises ``ValueError``), so a spec is safe to share
    across simulation workers.  Every constructor here keeps a running
    field that is constant in time as one symmetrized sample broadcast
    along the node axis, a view with stride 0 there; a per-node field
    stays per node.  Code that needs to write into a field takes a copy.
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

    def __post_init__(self):
        for name in _FIELDS:
            object.__setattr__(self, name, _frozen(getattr(self, name)))

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
            if name in _SYM_FIELDS:
                arr = symmetrize(arr)
            kw[name] = _on_nodes(arr, grid.steps + 1) if name in _RUNNING_FIELDS else arr
        return cls(n=n, m=m, grid=grid, gen=gen, **kw)

    def homogeneous(self) -> "ProblemSpec":
        """Copy with all affine data (the optional fields) zeroed."""
        return replace(self, **_zero_fields(self, _field_shapes(self.n, self.m)))

    def augmented(self) -> "ProblemSpec":
        """The homogeneous problem in the n + 1 states [x, 1]: A_bar =
        [[A, b], [0, 0]], C_bar = [[C, sigma], [0, 0]], B_bar = [B; 0],
        D_bar = [D; 0], Q_bar = [[Q, q], [q^T, 0]], S_bar = [S, rho],
        R_bar = R, G_bar = [[G, g], [g^T, 0]] and zero affine data."""
        tails = _field_shapes(self.n + 1, self.m)
        return replace(
            self, n=self.n + 1, B=_bordered(self.B, 1, 0), D=_bordered(self.D, 1, 0),
            A=_bordered(self.A, 1, 1, col=self.b), C=_bordered(self.C, 1, 1, col=self.sigma),
            Q=_bordered(self.Q, 1, 1, col=self.q, row=self.q),
            S=_bordered(self.S, 0, 1, col=self.rho),
            G=_bordered(self.G, 1, 1, col=self.g, row=self.g),
            **_zero_fields(self, tails),
        )

    def with_steps(self, steps: int) -> "ProblemSpec":
        """Resample every node-indexed field onto a grid with ``steps`` steps.

        A node-constant field stays one broadcast sample.  Interpolation
        returns such a sample unchanged except that it turns a -0.0 entry
        into +0.0 between the old nodes, so a sample holding -0.0 is
        resampled node by node, as a per-node field is.
        """
        new_grid = TimeGrid(self.grid.t0, self.grid.T, steps)
        old_t = self.grid.nodes()
        new_t = new_grid.nodes()

        def resample(arr):
            if _is_node_constant(arr) and not np.signbit(arr[0][arr[0] == 0.0]).any():
                return _on_nodes(arr[0], steps + 1)
            flat = arr.reshape(arr.shape[0], -1)
            out = np.empty((steps + 1, flat.shape[1]))
            for j in range(flat.shape[1]):
                out[:, j] = np.interp(new_t, old_t, flat[:, j])
            return out.reshape(steps + 1, *arr.shape[1:])

        return replace(
            self, grid=new_grid, gen=Generator(resample(self.gen.rates)),
            **{name: resample(getattr(self, name)) for name in _RUNNING_FIELDS},
        )


def _zero_fields(spec: ProblemSpec, tails: dict) -> dict:
    """Zero arrays of the optional fields with per-regime shapes ``tails``;
    the running ones are one broadcast sample."""
    out = {}
    for name in _OPTIONAL_FIELDS:
        zero = np.zeros((spec.n_regimes, *tails[name]))
        out[name] = _on_nodes(zero, spec.grid.steps + 1) if name in _RUNNING_FIELDS else zero
    return out


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


def _bordered(core, rows: int, cols: int, col=None, row=None) -> np.ndarray:
    """``core`` grown by ``rows`` zero rows and ``cols`` zero columns; ``col``
    fills the new last column, ``row`` the new last row.  Node-constant
    running data stays one read-only sample broadcast along the node axis."""
    given = [x for x in (core, col, row) if x is not None]
    if core.ndim == 4 and all(_is_node_constant(x) for x in given):
        one = _bordered(core[0], rows, cols, *(x if x is None else x[0] for x in (col, row)))
        return _on_nodes(one, len(core))
    out = np.pad(core, [(0, 0)] * (core.ndim - 2) + [(0, rows), (0, cols)])
    if col is not None:
        out[..., :core.shape[-2], -1] = col
    if row is not None:
        out[..., -1, :core.shape[-1]] = row
    return out


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
