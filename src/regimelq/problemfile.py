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

The fields and their shapes come from the one field schema,
``regimelq.model._FIELDS``.  The optional fields b, sigma, q, rho and g
are zero when absent; the symmetric fields Q, R and G are symmetrized
on read.  The terminal G and g are constants, never per-node arrays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from .matcore import symmetrize
from .model import (
    _FIELDS, _OPTIONAL_FIELDS, _RUNNING_FIELDS, _SYM_FIELDS, Generator, ProblemSpec,
    TimeGrid, _field_shapes, validate,
)

__all__ = ["ProblemFileError", "build_spec", "parse_problem", "write_problem"]

# libyaml's parser with PyYAML's safe resolver and constructor, when built
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


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

    fields = {}
    for name, shape in _field_shapes(n, m).items():
        lead = 1 if name in _RUNNING_FIELDS else 0  # the node axis, if any
        per_regime = []
        for i, rd in enumerate(regime_docs):
            if name not in rd and name not in _OPTIONAL_FIELDS:
                raise ProblemFileError(f"regime {i + 1}: missing field {name}")
            raw = rd[name] if name in rd else np.zeros(shape).tolist()
            label = f"regime {i + 1}.{name}"
            arr = (_field_nodes(raw, len(shape), n_nodes, label) if lead
                   else np.asarray(raw, dtype=float))
            if arr.shape[lead:] != shape:
                raise ProblemFileError(f"{label}: shape {arr.shape[lead:]} != {shape}")
            per_regime.append(arr)
        stacked = np.stack(per_regime, axis=lead)
        fields[name] = symmetrize(stacked) if name in _SYM_FIELDS else stacked

    spec = ProblemSpec(n=n, m=m, grid=grid, gen=gen, **fields)
    problems = validate(spec)
    if problems:
        raise ProblemFileError("; ".join(problems))
    return spec


def parse_problem(path: str | Path) -> tuple[ProblemSpec, dict]:
    """Read a YAML problem file; returns the spec and the raw document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"YAML error in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a mapping")
    try:
        return build_spec(doc), doc
    except ProblemFileError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
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
        "regimes": [
            {
                field: _emit_field(getattr(spec, field)[:, i]) if field in _RUNNING_FIELDS
                else getattr(spec, field)[i].tolist()
                for field in _FIELDS
            }
            for i in range(spec.n_regimes)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False, default_flow_style=None)
