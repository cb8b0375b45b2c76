"""Numerical certification of the optimality and value identities.

Each check compares a Monte-Carlo or path-wise quantity against its
solver-side counterpart and records statistic, tolerance, and verdict.
Statistical checks accept at three standard errors plus an explicit
discretization-bias allowance ``BIAS_BUDGET_COEFF * h * scale`` (the
coefficient was calibrated once against the closed-form scalar benchmark
and is recorded in every report that uses it).  Every check is
deterministic given its seed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineSolution, value_function
from .model import ProblemSpec
from .riccati import RiccatiSolution, solve_lyapunov
from .sim import (
    ChainPath,
    StatePath,
    _closed_loop_tables,
    _integrate_policy,
    _open_loop_table,
    _run_batched,
    _sample_regime_paths,
    brownian_increments,
    feynman_kac_M0,
    mc_value,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "euler_bias_budget",
    "stationarity_residual",
    "frechet_gradient_check",
    "convexity_probe",
    "value_consistency",
    "m0_crosscheck",
]

# Calibrated on the scalar closed-form benchmark (T=1, N=1000): the
# observed closed-loop Euler/quadrature bias there is below h, so a
# factor of 5 leaves ample headroom while still scaling out with h.
BIAS_BUDGET_COEFF = 5.0

# Most paths the convexity probe puts in one fused Euler call.  Each
# stacked control is a law of the call and meets only its own blocks, so
# the cap bounds only the memory of the alpha and dw rows held at once.
STACK_PATHS = 1024


def euler_bias_budget(h: float, scale: float = 1.0) -> float:
    """Discretization-bias allowance b(h) = K h max(1, |scale|)."""
    return BIAS_BUDGET_COEFF * h * max(1.0, abs(scale))


@dataclass(frozen=True)
class CheckResult:
    """One certified comparison; passes iff statistic <= tolerance."""

    name: str
    statistic: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, statistic, tolerance, **details) -> CheckResult:
        res = CheckResult(
            name=name, statistic=float(statistic), tolerance=float(tolerance),
            passed=bool(statistic <= tolerance), details=details,
        )
        self.checks.append(res)
        return res

    def extend(self, other: "VerificationReport") -> "VerificationReport":
        self.checks.extend(other.checks)
        return self

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "statistic", "tolerance", "pass"])
        for c in self.checks:
            writer.writerow(
                [c.name, format(c.statistic, ".17g"),
                 format(c.tolerance, ".17g"), str(c.passed).lower()]
            )
        return buf.getvalue()

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{verdict:4s} {c.name}: statistic {c.statistic:.6g} "
                f"vs tolerance {c.tolerance:.6g}"
            )
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(
            f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed"
        )
        return "\n".join(lines) + "\n"


def stationarity_residual(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    aff: AffineSolution,
    chain: ChainPath,
    path: StatePath,
) -> np.ndarray:
    """First-order optimality residual along a realized closed-loop path.

    Evaluated node-wise with the adjoint pair reconstructed from the
    quadratic-value matrices and offsets; vanishes (to rounding plus
    discretization) for regular solutions.  Shape (N + 1, m).
    """
    idx = np.arange(spec.grid.steps + 1)
    reg = chain.alpha
    b_k = spec.B[idx, reg]
    d_k = spec.D[idx, reg]
    p_k = ric.P[idx, reg]
    theta_k = ric.Theta[idx, reg]
    y = np.einsum("kij,kj->ki", p_k, path.X) + aff.eta[idx, reg]
    c_eff = spec.C[idx, reg] + d_k @ theta_k
    z_arg = np.einsum("kij,kj->ki", c_eff, path.X)
    z_arg += np.einsum("kij,kj->ki", d_k, aff.v_star[idx, reg])
    z_arg += spec.sigma[idx, reg]
    z = np.einsum("kij,kj->ki", p_k, z_arg)
    res = np.einsum("kji,kj->ki", b_k, y) + np.einsum("kji,kj->ki", d_k, z)
    res += np.einsum("kij,kj->ki", spec.S[idx, reg], path.X)
    res += np.einsum("kij,kj->ki", spec.R[idx, reg], path.u)
    res += spec.rho[idx, reg]
    return res


def frechet_gradient_check(
    spec: ProblemSpec,
    t0: float,
    i0: int,
    x0,
    u: np.ndarray,
    v: np.ndarray,
    epsilons,
    n_paths: int,
    rng_seed: int,
    threads: int = 1,
) -> VerificationReport:
    """Quadratic-expansion check of the cost along a control direction.

    With common random numbers the per-path cost is an exact quadratic in
    the step parameter, so the fitted curvature must meet the independent
    homogeneous cost of the direction, and the fitted slope must meet its
    centered-difference estimate.  Details carry the path-wise slope and
    curvature statistics for downstream assertions.
    """
    k0 = spec.grid.node_index(t0)
    u = np.asarray(u, dtype=float).reshape(spec.grid.steps + 1, spec.m)
    v = np.asarray(v, dtype=float).reshape(spec.grid.steps + 1, spec.m)
    e_pos = sorted({abs(float(e)) for e in epsilons if e != 0})
    if not e_pos:
        raise ValueError("need at least one nonzero epsilon")
    eps_grid = np.array(
        sorted({0.0} | {e for e in e_pos} | {-e for e in e_pos})
    )
    hspec = spec.homogeneous()
    u_eps = u + eps_grid[:, None, None] * v
    eps_tables = _closed_loop_tables(spec, None, _open_loop_table(spec, u_eps))
    v_tables = _closed_loop_tables(hspec, None, _open_loop_table(hspec, v))
    zero = np.zeros(spec.n)

    def worker(batch_start, size):
        rng = np.random.default_rng([rng_seed, batch_start])
        alpha = _sample_regime_paths(spec.gen, spec.grid, i0, size, rng, k0)
        dw = brownian_increments(spec.grid, rng, size, k0)
        return (_integrate_policy(eps_tables, alpha, x0, dw, k0),
                _integrate_policy(v_tables, alpha, zero, dw, k0)[0])

    blocks = _run_batched(worker, n_paths, threads)
    costs, j0 = (np.concatenate(part, axis=-1) for part in zip(*blocks))

    means = costs.mean(axis=1)
    coef = np.polyfit(eps_grid, means, 2)
    fit_resid = float(np.abs(np.polyval(coef, eps_grid) - means).max())
    c2, c1, c0 = (float(c) for c in coef)

    e_ref = e_pos[-1]
    jp = costs[np.searchsorted(eps_grid, e_ref)]
    jm = costs[np.searchsorted(eps_grid, -e_ref)]
    jz = costs[np.searchsorted(eps_grid, 0.0)]
    c1_path = (jp - jm) / (2.0 * e_ref)
    c2_path = (jp + jm - 2.0 * jz) / (2.0 * e_ref**2)

    def mean_se(x):
        se = float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
        return float(x.mean()), se

    j0_mean, j0_se = mean_se(j0)
    c1_mean, c1_se = mean_se(c1_path)
    c2_mean, c2_se = mean_se(c2_path)

    scale = max(1.0, abs(c0))
    report = VerificationReport()
    shared = dict(paths=n_paths, seed=rng_seed, epsilons=eps_grid.tolist())
    report.add(
        "frechet_fit_residual", fit_resid, 1e-9 * scale,
        c0=c0, c1=c1, c2=c2, **shared,
    )
    report.add(
        "frechet_quadratic_coefficient", abs(c2 - j0_mean),
        3.0 * j0_se + 3.0 * c2_se + 1e-8 * scale,
        j0_mean=j0_mean, j0_se=j0_se, c2=c2, c2_mean=c2_mean, c2_se=c2_se,
        **shared,
    )
    report.add(
        "frechet_linear_vs_centered_difference", abs(c1 - c1_mean),
        1e-8 * scale,
        c1=c1, c1_mean=c1_mean, c1_se=c1_se, **shared,
    )
    return report


def convexity_probe(
    spec: ProblemSpec,
    t0: float,
    i0: int,
    n_controls: int,
    n_paths: int,
    rng_seed: int,
    threads: int = 1,
) -> VerificationReport:
    """Uniform-convexity probe of the homogeneous cost at zero state.

    Draws unit-energy control samples, estimates the homogeneous cost of
    each, and reports the smallest cost-to-energy ratio; a ratio negative
    beyond three standard errors flags the problem as non-convex.
    """
    k0 = spec.grid.node_index(t0)
    if k0 == spec.grid.steps:
        raise ValueError("t0 = T leaves no horizon for a control of unit energy")
    if n_controls < 1 or n_paths < 1:
        raise ValueError(f"need at least 1 control and 1 path, got {n_controls}, {n_paths}")
    hspec = spec.homogeneous()
    n_nodes = spec.grid.steps + 1
    h = spec.grid.h
    u = np.empty((n_controls, n_nodes, spec.m))
    for c in range(n_controls):
        crng = np.random.default_rng([rng_seed, 31337, c])
        u[c] = crng.normal(size=(n_nodes, spec.m))
        u[c, :k0] = 0.0
        sq = np.einsum("ki,ki->k", u[c], u[c])
        u[c] /= np.sqrt(h * (sq[k0:].sum() - 0.5 * (sq[k0] + sq[-1])))

    # Controls share fused Euler calls, each control a law of the call
    # with its own seeded chain and Brownian stream.
    zero = np.zeros(spec.n)
    per_call = max(1, STACK_PATHS // n_paths)
    vals = np.empty((n_controls, n_paths))
    for first in range(0, n_controls, per_call):
        group = range(first, min(first + per_call, n_controls))
        tables = _closed_loop_tables(hspec, None, _open_loop_table(hspec, u[group]))

        def worker(batch_start, size):
            alpha = np.empty((len(group) * size, n_nodes), dtype=np.int64)
            dw = np.empty((len(group) * size, n_nodes - 1))
            for j, c in enumerate(group):
                rng = np.random.default_rng([rng_seed, c, batch_start])
                rows = slice(j * size, (j + 1) * size)
                alpha[rows] = _sample_regime_paths(
                    hspec.gen, hspec.grid, i0, size, rng, k0)
                dw[rows] = brownian_increments(hspec.grid, rng, size, k0)
            return _integrate_policy(tables, alpha, zero, dw, k0, per_law=True)

        vals[group] = np.concatenate(_run_batched(worker, n_paths, threads), axis=1)
    ratios = vals.mean(axis=1)
    if n_paths > 1:
        ses = vals.std(axis=1, ddof=1) / np.sqrt(n_paths)
    else:
        ses = np.zeros(n_controls)

    eps_hat = float(ratios.min())
    worst = float((-ratios - 3.0 * ses).max())
    report = VerificationReport()
    report.add(
        "convexity_nonnegative_ratios", worst, 0.0,
        eps_hat=eps_hat, n_controls=n_controls, paths=n_paths, seed=rng_seed,
        ratios=ratios.tolist(), std_errors=ses.tolist(),
        flagged_nonconvex=bool(worst > 0.0),
    )
    return report


def value_consistency(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    aff: AffineSolution,
    t0: float,
    i0: int,
    x0,
    n_paths: int,
    rng_seed: int,
    n_perturbations: int = 5,
    perturbation_scale: float = 0.5,
    perturbation_paths: int | None = None,
    threads: int = 1,
) -> VerificationReport:
    """Closed-loop value agreement plus no-improvement under perturbations.

    (a) the Monte-Carlo closed-loop cost must meet the evaluated value
    function within three standard errors plus the bias allowance;
    (b) paired-path cost differences against randomly perturbed feedback
    laws must not be negative beyond three standard errors.
    """
    k0 = spec.grid.node_index(t0)
    report = VerificationReport()

    est = mc_value(spec, ric, aff, t0, i0, x0, n_paths, rng_seed, threads)
    v_fn = value_function(ric, aff, t0, i0, x0)
    budget = euler_bias_budget(spec.grid.h, scale=v_fn)
    report.add(
        "value_mc_vs_function", abs(est.mean - v_fn),
        3.0 * est.std_error + budget,
        mc_mean=est.mean, mc_se=est.std_error, value_function=v_fn,
        bias_budget=budget, bias_coeff=BIAS_BUDGET_COEFF,
        paths=n_paths, seed=rng_seed,
    )

    pert_paths = n_paths if perturbation_paths is None else perturbation_paths
    scale_theta = float(np.linalg.norm(ric.Theta, axis=(-2, -1)).max())
    scale_v = float(np.linalg.norm(aff.v_star, axis=-1).max())
    prng = np.random.default_rng([rng_seed, 777])
    for p_id in range(n_perturbations):
        d_theta = perturbation_scale * scale_theta * prng.uniform(
            -1.0, 1.0, (spec.m, spec.n))
        d_v = perturbation_scale * scale_v * prng.uniform(-1.0, 1.0, spec.m)
        # the optimal and the perturbed law run on the same paths
        laws = _closed_loop_tables(
            spec, np.stack([ric.Theta, ric.Theta + d_theta]),
            np.stack([aff.v_star, aff.v_star + d_v]),
        )

        def worker(batch_start, size):
            rng = np.random.default_rng([rng_seed, 888, p_id, batch_start])
            alpha = _sample_regime_paths(spec.gen, spec.grid, i0, size, rng, k0)
            dw = brownian_increments(spec.grid, rng, size, k0)
            base, perturbed = _integrate_policy(laws, alpha, x0, dw, k0)
            return perturbed - base

        diff = np.concatenate(_run_batched(worker, pert_paths, threads))
        gap = float(diff.mean())
        if pert_paths > 1 and not np.all(diff == diff[0]):
            se = float(diff.std(ddof=1) / np.sqrt(pert_paths))
        else:
            se = 0.0
        report.add(
            f"value_no_improvement_perturbation_{p_id + 1}", -gap, 3.0 * se,
            paired_cost_gap=gap, gap_se=se, paths=pert_paths, seed=rng_seed,
        )
    return report


def m0_crosscheck(
    spec: ProblemSpec,
    t0: float,
    i0: int,
    n_paths: int,
    rng_seed: int,
    threads: int = 1,
) -> VerificationReport:
    """Path-functional vs backward-ODE form of the zero-control value matrix."""
    k0 = spec.grid.node_index(t0)
    fk = feynman_kac_M0(spec, t0, i0, n_paths, rng_seed, threads)
    ode = solve_lyapunov(spec).P[k0, i0]
    budget = euler_bias_budget(
        spec.grid.h, scale=float(np.abs(ode).max())
    )
    excess = np.abs(fk.mean - ode) - 3.0 * fk.std_error
    report = VerificationReport()
    report.add(
        "m0_feynman_kac_vs_ode", float(excess.max()), budget,
        max_abs_diff=float(np.abs(fk.mean - ode).max()),
        max_se=float(fk.std_error.max()), bias_budget=budget,
        bias_coeff=BIAS_BUDGET_COEFF, paths=n_paths, seed=rng_seed,
    )
    return report
