"""YAML problem files: the schema, parsing into a ProblemSpec, and writing.

Problem files are YAML: top-level sections ``problem``, ``grid``,
``generator`` and a ``regimes`` list.  Every coefficient may be a
constant (matrix as a list of rows, vector as a list) or a per-node
array (one extra level of nesting, length steps + 1).  Example::

    name: scalar-benchmark
    problem: {n: 1, m: 1, regimes: 1}
    grid: {t0: 0.0, T: 1.0, steps: 1000}
    generator:
      rates: [[0.0]]
    regimes:
      - A: [[0.0]]
        B: [[1.0]]
        C: [[0.0]]
        D: [[0.0]]
        Q: [[0.0]]
        S: [[0.0]]
        R: [[1.0]]
        G: [[1.0]]
        b: [0.0]
        sigma: [0.0]
        q: [0.0]
        rho: [0.0]
        g: [0.0]

Q, R and G are symmetrized on read; absent b, sigma, q, rho, g are zero.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from .matcore import symmetrize
from .model import Generator, ProblemSpec, TimeGrid, validate

__all__ = ["ProblemFileError", "build_spec", "parse_problem", "write_problem"]

_MATRIX_FIELDS = {
    "A": ("n", "n"), "B": ("n", "m"), "C": ("n", "n"), "D": ("n", "m"),
    "Q": ("n", "n"), "S": ("m", "n"), "R": ("m", "m"),
}
_VECTOR_FIELDS = {"b": "n", "sigma": "n", "q": "n", "rho": "m"}
_SYMMETRIZED = ("Q", "R")


class ProblemFileError(ValueError):
    """Problem file cannot be parsed into an admissible specification."""


def _depth(x) -> int:
    d = 0
    while isinstance(x, (list, tuple)):
        d += 1
        x = x[0] if len(x) else None
    return d


def _field_nodes(raw, base_depth: int, n_nodes: int, name: str) -> np.ndarray:
    """Constant or per-node field -> (n_nodes, ...) float array."""
    d = _depth(raw)
    arr = np.asarray(raw, dtype=float)
    if d == base_depth:
        return np.broadcast_to(arr, (n_nodes, *arr.shape)).copy()
    if d == base_depth + 1:
        if arr.shape[0] != n_nodes:
            raise ProblemFileError(
                f"{name}: per-node array has {arr.shape[0]} samples, "
                f"grid needs {n_nodes}"
            )
        return arr
    raise ProblemFileError(f"{name}: nesting depth {d} not understood")


def build_spec(doc: dict) -> ProblemSpec:
    """Assemble a ProblemSpec from a parsed problem document."""
    try:
        prob = doc["problem"]
        n, m, n_reg = int(prob["n"]), int(prob["m"]), int(prob["regimes"])
        g_sec = doc["grid"]
        grid = TimeGrid(float(g_sec["t0"]), float(g_sec["T"]), int(g_sec["steps"]))
        rates_raw = doc["generator"]["rates"]
        regime_docs = doc["regimes"]
    except (KeyError, TypeError) as exc:
        raise ProblemFileError(f"missing or malformed section: {exc}") from exc
    if len(regime_docs) != n_reg:
        raise ProblemFileError(
            f"regimes list has {len(regime_docs)} entries, problem.regimes={n_reg}"
        )
    n_nodes = grid.steps + 1
    gen = Generator(_field_nodes(rates_raw, 2, n_nodes, "generator.rates"))
    if gen.n_regimes != n_reg:
        raise ProblemFileError(
            f"generator is {gen.n_regimes}x{gen.n_regimes}, problem.regimes={n_reg}"
        )

    dims = {"n": n, "m": m}
    fields = {}
    for name, (r, c) in _MATRIX_FIELDS.items():
        shape = (dims[r], dims[c])
        per_regime = []
        for i, rd in enumerate(regime_docs):
            if name not in rd:
                raise ProblemFileError(f"regime {i + 1}: missing field {name}")
            arr = _field_nodes(rd[name], 2, n_nodes, f"regime {i + 1}.{name}")
            if arr.shape[1:] != shape:
                raise ProblemFileError(
                    f"regime {i + 1}.{name}: shape {arr.shape[1:]} != {shape}"
                )
            per_regime.append(arr)
        stacked = np.stack(per_regime, axis=1)
        fields[name] = symmetrize(stacked) if name in _SYMMETRIZED else stacked
    for name, dim in _VECTOR_FIELDS.items():
        shape = (dims[dim],)
        per_regime = []
        for i, rd in enumerate(regime_docs):
            raw = rd.get(name, [0.0] * dims[dim])
            arr = _field_nodes(raw, 1, n_nodes, f"regime {i + 1}.{name}")
            if arr.shape[1:] != shape:
                raise ProblemFileError(
                    f"regime {i + 1}.{name}: shape {arr.shape[1:]} != {shape}"
                )
            per_regime.append(arr)
        fields[name] = np.stack(per_regime, axis=1)

    g_terms, g_vecs = [], []
    for i, rd in enumerate(regime_docs):
        if "G" not in rd:
            raise ProblemFileError(f"regime {i + 1}: missing field G")
        g_mat = np.asarray(rd["G"], dtype=float)
        if g_mat.shape != (n, n):
            raise ProblemFileError(f"regime {i + 1}.G: shape {g_mat.shape} != {(n, n)}")
        g_terms.append(symmetrize(g_mat))
        g_vec = np.asarray(rd.get("g", [0.0] * n), dtype=float)
        if g_vec.shape != (n,):
            raise ProblemFileError(f"regime {i + 1}.g: shape {g_vec.shape} != {(n,)}")
        g_vecs.append(g_vec)

    spec = ProblemSpec(
        n=n, m=m, grid=grid, gen=gen,
        G=np.stack(g_terms), g=np.stack(g_vecs), **fields,
    )
    problems = validate(spec)
    if problems:
        raise ProblemFileError("; ".join(problems))
    return spec


def parse_problem(path: str | Path) -> tuple[ProblemSpec, dict]:
    """Read a YAML problem file; returns the spec and the raw document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"YAML error in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a mapping")
    try:
        return build_spec(doc), doc
    except ProblemFileError:
        raise
    except (ValueError, TypeError) as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _emit_field(arr: np.ndarray) -> list:
    """Per-node (n_nodes, ...) array -> constant if possible, else per-node."""
    if np.all(arr == arr[0]):
        return arr[0].tolist()
    return arr.tolist()


def write_problem(path: str | Path, spec: ProblemSpec, name: str = "problem") -> None:
    """Write a spec back to the YAML schema (inverse of parse_problem)."""
    doc = {
        "name": name,
        "problem": {"n": spec.n, "m": spec.m, "regimes": spec.n_regimes},
        "grid": {"t0": spec.grid.t0, "T": spec.grid.T, "steps": spec.grid.steps},
        "generator": {"rates": _emit_field(spec.gen.rates)},
        "regimes": [],
    }
    for i in range(spec.n_regimes):
        entry = {}
        for fname in (*_MATRIX_FIELDS, *_VECTOR_FIELDS):
            entry[fname] = _emit_field(getattr(spec, fname)[:, i])
        entry["G"] = spec.G[i].tolist()
        entry["g"] = spec.g[i].tolist()
        doc["regimes"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False, default_flow_style=None)
