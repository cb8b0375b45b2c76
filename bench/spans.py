"""In-memory spans around the public entry points of each regimelq module.

The tracer wraps each layer function by object identity in every loaded
``regimelq.*`` module, so a function imported by name elsewhere (verify
imports ``_cost_batch``, ``mc_value``, ``solve_lyapunov`` and others
from sim and riccati) is wrapped there too.  A span holds its name,
start, end, parent span and thread id, plus counts taken at the same
boundary.  Nothing is written until the benchmark ends.

A layer function missing from the program (renamed or merged by a later
refactor) is skipped and noted; the metrics that need it come out null.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_steps(bound) -> dict:
    return {"steps": bound.arguments["spec"].grid.steps}


def _iterations(bound, result) -> dict:
    return {"iterations": len(result.iteration_trace)}


def _path_steps(bound) -> dict:
    # alpha is (paths, N + 1); the integrators step from node k0 to N
    alpha = bound.arguments["alpha"]
    k0 = bound.arguments.get("k0", 0)
    return {"path_steps": alpha.shape[0] * (alpha.shape[1] - 1 - k0)}


def _std_error(bound, result) -> dict:
    return {"std_error": result.std_error}


# span name -> (module, function, counts before the call, counts after it)
LAYERS = {
    "cli.main": ("regimelq.cli", "main", None, None),
    "cli.parse_problem": ("regimelq.cli", "parse_problem", None, None),
    "riccati.direct": ("regimelq.riccati", "solve_riccati_direct", _grid_steps, None),
    "riccati.iterate": ("regimelq.riccati", "iterate_strongly_regular", None, _iterations),
    "riccati.lyapunov": ("regimelq.riccati", "solve_lyapunov", None, None),
    "matcore.pinv": ("regimelq.matcore", "pinv", None, None),
    "affine.eta": ("regimelq.affine", "solve_eta", None, None),
    "sim.mc_value": ("regimelq.sim", "mc_value", None, _std_error),
    "sim.feynman_kac_M0": ("regimelq.sim", "feynman_kac_M0", None, None),
    "sim.closed_loop": ("regimelq.sim", "simulate_closed_loop", None, None),
    "sim.chain": ("regimelq.sim", "_sample_regime_paths", None, None),
    "sim.integrate_policy": ("regimelq.sim", "_integrate_policy", _path_steps, None),
    "sim.integrate_open_loop": ("regimelq.sim", "_integrate_open_loop", _path_steps, None),
    "sim.cost": ("regimelq.sim", "_cost_batch", None, None),
    "verify.stationarity": ("regimelq.verify", "stationarity_residual", None, None),
    "verify.value_consistency": ("regimelq.verify", "value_consistency", None, None),
    "verify.m0_crosscheck": ("regimelq.verify", "m0_crosscheck", None, None),
    "verify.convexity_probe": ("regimelq.verify", "convexity_probe", None, None),
    "verify.frechet": ("regimelq.verify", "frechet_gradient_check", None, None),
}


def _bind(sig, args, kwargs):
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound


def _counts(hook, bound, *result) -> dict:
    """A count hook's result; none if the signature or result changed."""
    try:
        return hook(bound, *result)
    except (AttributeError, KeyError, TypeError):
        return {}


class Tracer:
    """Wraps the LAYERS functions; ``install``/``uninstall`` patch and restore."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._wrappers = {}
        for name, (module, attr, before, after) in LAYERS.items():
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
            else:
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn, before, after))

    def _wrap(self, name, fn, before, after):
        sig = inspect.signature(fn)
        local = self._local
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, threading.get_ident(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            bound = _bind(sig, args, kwargs) if before or after else None
            if before:
                span.counts.update(_counts(before, bound))
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after:
                span.counts.update(_counts(after, bound, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> int:
        """Patch every binding of every layer function; returns the count."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "regimelq" and not mod_name.startswith("regimelq."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_time(span: Span, children: dict) -> float:
    """Duration minus the part covered by children on the same thread."""
    covered = sum(c.duration for c in children.get(id(span), ()) if c.thread == span.thread)
    return span.duration - covered


def _has_ancestor(span: Span, prefixes: tuple[str, ...]) -> bool:
    p = span.parent
    while p is not None:
        if p.name.startswith(prefixes):
            return True
        p = p.parent
    return False


def layer_metrics(spans: list[Span], missing: list[str]) -> dict:
    """Per-layer metrics of one traced pass.

    Times are summed busy time over all threads.  A metric is null only
    when every function it needs is absent from the program (or, for a
    ratio, when its denominator is zero on this workload).
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)
    absent = {name for name, (mod, attr, _, _) in LAYERS.items()
              if f"{mod}.{attr}" in missing}

    def present(names):
        return [n for n in names if n not in absent]

    def total(*names):
        names = present(names)
        return sum(s.duration for n in names for s in by_name[n]) if names else None

    def own(name):
        return None if name in absent else sum(self_time(s, children) for s in by_name[name])

    def calls(name):
        return None if name in absent else len(by_name[name])

    def count(key, *names):
        vals = [s.counts.get(key) for n in present(names) for s in by_name[n]]
        if not present(names) or None in vals:
            return None
        return sum(vals)

    def ratio(num, den, scale=1.0):
        if num is None or den is None or den == 0:
            return None
        return scale * num / den

    m = {}
    m["cli.parse_s"] = total("cli.parse_problem")
    m["cli.self_s"] = own("cli.main")
    m["riccati.direct_s"] = total("riccati.direct")
    m["riccati.rk4_steps_per_s"] = ratio(count("steps", "riccati.direct"),
                                         m["riccati.direct_s"])
    m["riccati.iterate_s"] = total("riccati.iterate")
    m["riccati.iterations"] = count("iterations", "riccati.iterate")
    m["riccati.lyapunov_calls"] = calls("riccati.lyapunov")
    m["riccati.lyapunov_s"] = total("riccati.lyapunov")

    solver = ("riccati.", "affine.")
    if "matcore.pinv" in absent:
        pinv_solver_s = None
    else:
        pinv_solver_s = sum(s.duration for s in by_name["matcore.pinv"]
                            if _has_ancestor(s, solver))
    solver_outer = [s for s in spans
                    if s.name.startswith(solver) and not _has_ancestor(s, solver)]
    m["matcore.pinv_calls"] = calls("matcore.pinv")
    m["matcore.pinv_us"] = ratio(total("matcore.pinv"), m["matcore.pinv_calls"], 1e6)
    m["matcore.pinv_share"] = ratio(pinv_solver_s,
                                    sum(s.duration for s in solver_outer))
    m["affine.eta_s"] = total("affine.eta")

    m["sim.mc_value_s"] = total("sim.mc_value")
    m["sim.chain_s"] = total("sim.chain")
    m["sim.euler_s"] = total("sim.integrate_policy", "sim.integrate_open_loop")
    m["sim.cost_s"] = total("sim.cost")
    m["sim.fk_self_s"] = own("sim.feynman_kac_M0")
    m["sim.path_steps"] = count("path_steps", "sim.integrate_policy", "sim.integrate_open_loop")
    m["sim.ns_per_path_step"] = ratio(m["sim.euler_s"], m["sim.path_steps"], 1e9)
    m["sim.batches"] = calls("sim.chain")
    ses = [s.counts.get("std_error") for s in by_name["sim.mc_value"]]
    m["sim.value_se"] = ses[-1] if ses else None

    m["verify.value_consistency_s"] = total("verify.value_consistency")
    m["verify.convexity_probe_s"] = total("verify.convexity_probe")
    m["verify.m0_crosscheck_s"] = total("verify.m0_crosscheck")
    m["verify.frechet_s"] = total("verify.frechet")
    m["verify.stationarity_s"] = total("verify.stationarity")

    return m


def median_metrics(passes: list[dict]) -> dict:
    """Per metric, the median over traced passes (null if any pass is null)."""
    out = {}
    for key in passes[0]:
        vals = [p[key] for p in passes]
        out[key] = None if any(v is None for v in vals) else statistics.median(vals)
    return out
