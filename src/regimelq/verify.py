"""Numerical certification of the optimality and value identities.

Each check compares a Monte-Carlo, path-wise, exact discrete or
continuous-time quantity against its solver-side counterpart and records
statistic, tolerance, and verdict.  Monte-Carlo checks accept at three
standard errors; those that meet a continuous-time quantity add an
explicit discretization-bias allowance ``BIAS_BUDGET_COEFF * h * scale``
(the coefficient was calibrated once against the closed-form scalar
benchmark and is recorded in every report that uses it).  The Euler-bias,
zero-control value matrix and convexity checks take the exact
expectation of the Euler scheme (:func:`regimelq.sim._expected_values`)
instead of a sample mean, and the value check's perturbation rows take
the continuous-time cost of each frozen law from its Lyapunov solution
(:func:`regimelq.riccati.solve_lyapunov`), so none of these carries a
standard error or uses paths.  The Monte-Carlo checks draw their paths
and sample statistics through the one seeded runner of
:mod:`regimelq.sim` (:func:`regimelq.sim._path_costs` and
:func:`regimelq.sim._mean_se`), so every check is deterministic given
its seed and does not depend on the thread count.
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
    _cell_transitions,
    _closed_loop_tables,
    _expected_values,
    _mean_se,
    _open_loop_table,
    _path_costs,
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
    "euler_bias",
    "m0_crosscheck",
]

# Calibrated on the scalar closed-form benchmark (T=1, N=1000): the
# observed closed-loop Euler/quadrature bias there is below h, so a
# factor of 5 leaves ample headroom while still scaling out with h.
BIAS_BUDGET_COEFF = 5.0

# Perturbed laws of the value check move the gain and the offset by up to
# this fraction of the largest optimal gain and offset norms.
PERTURBATION_SCALE = 0.5


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
    curvature statistics for downstream assertions.  The paths come from
    the stream ``(rng_seed,)``, as those of :func:`regimelq.sim.mc_value`.
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
    costs, (j0,) = _path_costs(
        spec, [(eps_tables, x0), (v_tables, np.zeros(spec.n))], i0, k0, n_paths,
        (rng_seed,), threads,
    )

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
    j0_mean, j0_se = _mean_se(j0)
    c1_mean, c1_se = _mean_se(c1_path)
    c2_mean, c2_se = _mean_se(c2_path)

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
    rng_seed: int,
) -> VerificationReport:
    """Uniform-convexity probe of the homogeneous cost at zero state.

    Draws unit-energy control samples and takes the exact expected
    homogeneous cost of each under the Euler scheme, all of them laws of
    one recursion; the smallest cost-to-energy ratio is reported, and a
    negative one flags the problem as non-convex.
    """
    k0 = spec.grid.node_index(t0)
    if k0 == spec.grid.steps:
        raise ValueError("t0 = T leaves no horizon for a control of unit energy")
    if n_controls < 1:
        raise ValueError(f"need at least 1 control, got {n_controls}")
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

    tables = _closed_loop_tables(hspec, None, _open_loop_table(hspec, u))
    vals = _expected_values(tables, _cell_transitions(hspec.gen, hspec.grid), k0)
    ratios = vals[:, i0, -1, -1]  # zero state: x̄ = [0, 1]
    eps_hat = float(ratios.min())
    report = VerificationReport()
    report.add(
        "convexity_nonnegative_ratios", -eps_hat, 0.0,
        eps_hat=eps_hat, n_controls=n_controls, seed=rng_seed,
        ratios=ratios.tolist(), flagged_nonconvex=bool(eps_hat < 0.0),
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
    threads: int = 1,
) -> VerificationReport:
    """Closed-loop value agreement plus no-improvement under perturbations.

    (a) the Monte-Carlo closed-loop cost must meet the evaluated value
    function within three standard errors plus the bias allowance;
    (b) no randomly perturbed feedback law may cost less than the optimal
    one (tolerance 0).  Each law is perturbed by ``PERTURBATION_SCALE``
    times the largest gain and offset norms, drawn from the stream
    ``(rng_seed, 777)``.  The costs of (b) are continuous-time and exact
    up to the RK4 error: a frozen law Theta_bar = [Theta, v] costs
    x_bar^T P_bar x_bar, P_bar its Lyapunov solution on
    ``spec.augmented()``, and the optimal and every perturbed law run as
    the slices of one :func:`regimelq.riccati.solve_lyapunov` call, so
    (b) uses no paths.
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

    scale_theta = float(np.linalg.norm(ric.Theta, axis=(-2, -1)).max())
    scale_v = float(np.linalg.norm(aff.v_star, axis=-1).max())
    prng = np.random.default_rng([rng_seed, 777])
    laws = [ric.Theta_bar]
    for _ in range(n_perturbations):
        d_theta = PERTURBATION_SCALE * scale_theta * prng.uniform(
            -1.0, 1.0, (spec.m, spec.n))
        d_v = PERTURBATION_SCALE * scale_v * prng.uniform(-1.0, 1.0, spec.m)
        laws.append(ric.Theta_bar + np.column_stack([d_theta, d_v]))
    p_bar = solve_lyapunov(spec.augmented(), np.stack(laws)).P[:, k0, i0]
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    costs = p_bar @ x_bar @ x_bar
    for p_id, cost in enumerate(costs[1:]):
        gap = float(cost - costs[0])
        report.add(
            f"value_no_improvement_perturbation_{p_id + 1}", -gap, 0.0,
            cost_gap=gap, optimal_cost_minus_value=float(costs[0] - v_fn),
            seed=rng_seed,
        )
    return report


def euler_bias(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    aff: AffineSolution,
    t0: float,
    i0: int,
    x0,
) -> VerificationReport:
    """Exact expected closed-loop cost of the Euler scheme against the
    value function: the discretization bias that the Monte-Carlo value
    check allows for, measured without sampling error."""
    k0 = spec.grid.node_index(t0)
    tables = _closed_loop_tables(spec, ric.Theta, aff.v_star)
    vals = _expected_values(tables, _cell_transitions(spec.gen, spec.grid), k0)
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    e_h = float(x_bar @ vals[0, i0] @ x_bar)
    v_fn = value_function(ric, aff, t0, i0, x0)
    budget = euler_bias_budget(spec.grid.h, scale=v_fn)
    report = VerificationReport()
    report.add(
        "euler_bias", abs(e_h - v_fn), budget,
        discrete_mean=e_h, value_function=v_fn, bias=e_h - v_fn,
        bias_budget=budget, bias_coeff=BIAS_BUDGET_COEFF,
    )
    return report


def m0_crosscheck(spec: ProblemSpec, t0: float, i0: int) -> VerificationReport:
    """Euler-scheme vs backward-ODE form of the zero-control value matrix.

    M0_h is the quadratic block of the exact expected zero-control cost of
    the homogeneous problem under the Euler scheme, for every initial state
    at once; only the discretization bias separates it from the zero-gain
    backward solve evaluated at (t0, i0).
    """
    k0 = spec.grid.node_index(t0)
    hspec = spec.homogeneous()
    zero = np.zeros((spec.grid.steps + 1, spec.n_regimes, spec.m))
    vals = _expected_values(_closed_loop_tables(hspec, None, zero),
                            _cell_transitions(spec.gen, spec.grid), k0)
    m0_h = vals[0, i0, :spec.n, :spec.n]
    ode = solve_lyapunov(spec).P[k0, i0]
    budget = euler_bias_budget(
        spec.grid.h, scale=float(np.abs(ode).max())
    )
    diff = float(np.abs(m0_h - ode).max())
    report = VerificationReport()
    report.add(
        "m0_feynman_kac_vs_ode", diff, budget,
        max_abs_diff=diff, bias_budget=budget, bias_coeff=BIAS_BUDGET_COEFF,
    )
    return report
