"""Numerical certification of the optimality and value identities.

Each row of :func:`certify` compares a Monte-Carlo, exact discrete or
continuous-time quantity against its solver-side counterpart, or reads
the feedback law itself.  The one Monte-Carlo row, the closed-loop
value, accepts at three standard errors plus a discretization-bias
allowance ``BIAS_BUDGET_COEFF * h * scale`` (calibrated once on the
closed-form scalar benchmark, recorded in every report that uses it);
its paths come from the one seeded runner of :mod:`regimelq.sim`, so it
does not depend on the thread count.  No other row draws a path.  The
stationarity row is the law's own range residual S_bar + R_hat
Theta_bar at every node and regime.  The rows that compare laws carry
no standard error: one :func:`regimelq.riccati.solve_lyapunov` stack on
``spec.augmented()`` prices the continuous-time cost of the optimal, the
perturbed and the zero law, and two exact expectations of the Euler
scheme (:func:`regimelq.sim._expected_values`), on the problem and on
``spec.homogeneous()``, price every other law.  A law is one Θ̄ = [Θ | v]
on x̄ = [x, 1]: ``ric.Theta_bar`` for the optimal one, [0 | u] for an
open-loop control u.  The rows are pure functions of the law and the
priced slices.  Without a closed-loop optimal law,
:func:`not_regular_report` gives the failed range test and the probe.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .model import ProblemSpec
from .riccati import DEFAULT_RANGE_TOL, RiccatiSolution, solve_lyapunov
from .sim import (
    MCEstimate,
    _cell_transitions,
    _check_regime,
    _closed_loop_tables,
    _expected_values,
    _open_loop_table,
    mc_value,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "euler_bias_budget",
    "certify",
    "convexity_probe",
    "not_regular_report",
]

# Calibrated on the scalar closed-form benchmark (T=1, N=1000): the
# observed closed-loop Euler/quadrature bias there is below h, so a
# factor of 5 leaves ample headroom while still scaling out with h.
BIAS_BUDGET_COEFF = 5.0

# Perturbed laws of the value check move the gain and the offset by up to
# this fraction of the largest optimal gain and offset norms.
PERTURBATION_SCALE = 0.5
N_PERTURBATIONS = 5

# The Fréchet laws eps v about the zero control: eps = 0 and two sizes of
# each sign.
FRECHET_EPSILONS = (-0.1, -0.05, 0.0, 0.05, 0.1)


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

    def add(self, name, statistic, tolerance, **details) -> "VerificationReport":
        self.checks.append(CheckResult(
            name=name, statistic=float(statistic), tolerance=float(tolerance),
            passed=bool(statistic <= tolerance), details=details,
        ))
        return self

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


def _stationarity_row(ric: RiccatiSolution, k0: int) -> VerificationReport:
    """First-order optimality of the feedback law at every state.

    Along any state x̄ = [x, 1] in regime i at node k, the FBSDE constraint
    Bᵀ Y + Dᵀ Z + S X + R u + ρ of the adjoint pair Y = P x + η,
    Z = P(C x + D u + σ) under u = Θ̄ x̄ is Ŝ x + R̂ u + ρ̂ = (S̄ + R̂Θ̄) x̄.
    So it holds at every state iff S̄ + R̂Θ̄ = 0, which is the law's own
    range test: Θ̄ = −(R̂⁺S̄), so S̄ + R̂Θ̄ is bit for bit S̄ − R̂(R̂⁺S̄), the
    residual of :func:`regimelq.matcore.outside_range`.  The statistic is
    its largest ‖·‖_F / max(1, ‖S̄‖_F) over nodes k0..N and every regime,
    at the classification's range tolerance ``DEFAULT_RANGE_TOL``.
    """
    s_bar = ric.S_bar[k0:]
    resid = np.linalg.norm(s_bar + ric.R_hat[k0:] @ ric.Theta_bar[k0:], axis=(-2, -1))
    scaled = resid / np.maximum(1.0, np.linalg.norm(s_bar, axis=(-2, -1)))
    return VerificationReport().add("stationarity_max_residual", scaled.max(), DEFAULT_RANGE_TOL)


def _perturbed_laws(spec: ProblemSpec, ric: RiccatiSolution, seed: int) -> np.ndarray:
    """The optimal law Theta_bar = [Theta, v*] and ``N_PERTURBATIONS``
    perturbed ones, (1 + N_PERTURBATIONS, N + 1, D, m, n + 1).  Each law
    moves the gain and the offset by ``PERTURBATION_SCALE`` times the
    largest gain and offset norms, drawn from the stream ``(seed, 777)``."""
    scale_theta = float(np.linalg.norm(ric.Theta, axis=(-2, -1)).max())
    scale_v = float(np.linalg.norm(ric.Theta_bar[..., -1], axis=-1).max())
    prng = np.random.default_rng([seed, 777])
    laws = [ric.Theta_bar]
    for _ in range(N_PERTURBATIONS):
        d_theta = PERTURBATION_SCALE * scale_theta * prng.uniform(
            -1.0, 1.0, (spec.m, spec.n))
        d_v = PERTURBATION_SCALE * scale_v * prng.uniform(-1.0, 1.0, spec.m)
        laws.append(ric.Theta_bar + np.column_stack([d_theta, d_v]))
    return np.stack(laws)


def _probe_controls(spec: ProblemSpec, k0: int, n_controls: int, seed: int) -> np.ndarray:
    """The convexity probe's controls, (n_controls, N + 1, m): control c is
    drawn from the stream ``(seed, 31337, c)``, zero before node k0 and of
    unit trapezoidal energy from k0 on."""
    if k0 == spec.grid.steps:
        raise ValueError("t0 = T leaves no horizon for a control of unit energy")
    if n_controls < 1:
        raise ValueError(f"need at least 1 control, got {n_controls}")
    n_nodes = spec.grid.steps + 1
    u = np.empty((n_controls, n_nodes, spec.m))
    for c in range(n_controls):
        crng = np.random.default_rng([seed, 31337, c])
        u[c] = crng.normal(size=(n_nodes, spec.m))
        u[c, :k0] = 0.0
        sq = np.einsum("ki,ki->k", u[c], u[c])
        u[c] /= np.sqrt(spec.grid.h * (sq[k0:].sum() - 0.5 * (sq[k0] + sq[-1])))
    return u


def _value_rows(est: MCEstimate, v_fn: float, costs: np.ndarray, h: float) -> VerificationReport:
    """Closed-loop value agreement plus no-improvement under perturbations.

    (a) the Monte-Carlo closed-loop cost must meet the evaluated value
    function within three standard errors plus the bias allowance;
    (b) no perturbed law (:func:`_perturbed_laws`) may cost less than the
    optimal one (tolerance 0).  ``costs`` holds the optimal law's cost,
    then each perturbed law's: continuous-time and exact up to the RK4
    error, since a frozen law Theta_bar costs x_bar^T P_bar x_bar, P_bar
    its Lyapunov solution on ``spec.augmented()``.
    """
    budget = euler_bias_budget(h, scale=v_fn)
    report = VerificationReport().add(
        "value_mc_vs_function", abs(est.mean - v_fn),
        3.0 * est.std_error + budget,
        mc_mean=est.mean, mc_se=est.std_error, value_function=v_fn,
        bias_budget=budget, bias_coeff=BIAS_BUDGET_COEFF,
        paths=est.paths, seed=est.seed,
    )
    for p_id, cost in enumerate(costs[1:]):
        gap = float(cost - costs[0])
        report.add(
            f"value_no_improvement_perturbation_{p_id + 1}", -gap, 0.0,
            cost_gap=gap, optimal_cost_minus_value=float(costs[0] - v_fn),
            seed=est.seed,
        )
    return report


def _euler_bias_row(e_h: float, v_fn: float, h: float) -> VerificationReport:
    """Exact expected closed-loop cost E_h of the Euler scheme against the
    value function: the discretization bias that the Monte-Carlo value
    row allows for, measured without sampling error."""
    budget = euler_bias_budget(h, scale=v_fn)
    return VerificationReport().add(
        "euler_bias", abs(e_h - v_fn), budget,
        discrete_mean=e_h, value_function=v_fn, bias=e_h - v_fn,
        bias_budget=budget, bias_coeff=BIAS_BUDGET_COEFF,
    )


def _m0_row(m0_h: np.ndarray, ode: np.ndarray, h: float) -> VerificationReport:
    """Euler-scheme vs backward-ODE form of the zero-control value matrix.

    M0_h is the quadratic block of the exact expected zero-control cost of
    the homogeneous problem under the Euler scheme, for every initial state
    at once; only the discretization bias separates it from the zero-gain
    backward solve ``ode``.
    """
    budget = euler_bias_budget(h, scale=float(np.abs(ode).max()))
    diff = float(np.abs(m0_h - ode).max())
    return VerificationReport().add(
        "m0_feynman_kac_vs_ode", diff, budget,
        max_abs_diff=diff, bias_budget=budget, bias_coeff=BIAS_BUDGET_COEFF,
    )


def _probe_row(ratios: np.ndarray, seed: int) -> VerificationReport:
    """Uniform-convexity probe: ``ratios`` are the exact expected
    homogeneous costs at zero state of the unit-energy controls of
    :func:`_probe_controls`.  The smallest one is reported, and a negative
    one flags the problem as non-convex."""
    eps_hat = float(ratios.min())
    return VerificationReport().add(
        "convexity_nonnegative_ratios", -eps_hat, 0.0,
        eps_hat=eps_hat, n_controls=len(ratios), seed=seed,
        ratios=ratios.tolist(), flagged_nonconvex=bool(eps_hat < 0.0),
    )


def _frechet_rows(eps: np.ndarray, costs: np.ndarray, j0: float) -> VerificationReport:
    """Quadratic-expansion rows of the cost along a control direction.

    The state is affine in the control, so the exact expected cost of the
    Euler scheme under u + eps v is J(u) + 2 eps <grad J(u), v> + eps^2
    J0(v), with J0(v) the homogeneous cost of v from zero state.  ``eps``
    is sorted and symmetric about 0, and ``costs`` holds the cost of each
    eps-law.  The quadratic fitted through them must be exact, its
    curvature must meet ``j0``, and its slope the centered difference at
    the largest eps.
    """
    coef = np.polyfit(eps, costs, 2)
    fit_resid = float(np.abs(np.polyval(coef, eps) - costs).max())
    c2, c1, c0 = (float(c) for c in coef)
    c1_centered = float((costs[-1] - costs[0]) / (2.0 * eps[-1]))

    scale = max(1.0, abs(c0))
    report = VerificationReport().add(
        "frechet_fit_residual", fit_resid, 1e-9 * scale,
        c0=c0, c1=c1, c2=c2, epsilons=eps.tolist(),
    )
    report.add("frechet_quadratic_coefficient", abs(c2 - j0), 1e-8 * scale, j0=j0, c2=c2)
    return report.add(
        "frechet_linear_vs_centered_difference", abs(c1 - c1_centered),
        1e-8 * scale, c1=c1, c1_centered=c1_centered,
    )


def certify(
    spec: ProblemSpec,
    ric: RiccatiSolution,
    t0: float,
    i0: int,
    x0,
    paths: int,
    seed: int,
    controls: int,
    threads: int = 1,
) -> VerificationReport:
    """Every row of the report on a regular solution from (t0, x0, i0),
    with the value function x̄ᵀ P̄ x̄ read at node k0 of t0.

    Sampled: the Monte-Carlo value, and the Fréchet direction v, noise
    from the stream ``(seed, 3)``.  The stationarity row reads the law
    itself.  Every other row reads the three stacked calls of the module
    docstring, which share one table of cell transitions.  The Fréchet
    rows expand the cost about the zero control, so their eps-laws are
    the open-loop controls eps v; the expansion holds at any control.
    """
    k0 = spec.grid.node_index(t0)
    n, h, n_nodes = spec.n, spec.grid.h, spec.grid.steps + 1
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    est = mc_value(spec, ric, t0, i0, x0, paths, seed, threads)  # checks i0
    v_fn = float(x_bar @ ric.P_bar[k0, i0] @ x_bar)
    v_dir = np.random.default_rng([seed, 3]).normal(size=(n_nodes, spec.m))
    probes = _probe_controls(spec, k0, controls, seed)

    # continuous time: the optimal and perturbed laws, then the zero law
    laws = _perturbed_laws(spec, ric, seed)
    p_bar = solve_lyapunov(spec.augmented(), np.concatenate([laws, np.zeros_like(laws[:1])]))
    p_bar = p_bar[:, k0, i0]

    # Euler scheme: the optimal law, then the eps-laws eps v (no gain)
    trans = _cell_transitions(spec.gen, spec.grid)
    eps = np.array(FRECHET_EPSILONS)
    euler_laws = np.concatenate([laws[:1], _open_loop_table(spec, eps[:, None, None] * v_dir)])
    vals = _expected_values(_closed_loop_tables(spec, euler_laws), trans, k0)[:, i0]

    # homogeneous Euler scheme from zero state: the zero law, the probe
    # controls, then v
    hspec = spec.homogeneous()
    h_controls = np.concatenate([np.zeros((1, n_nodes, spec.m)), probes, v_dir[None]])
    h_vals = _expected_values(
        _closed_loop_tables(hspec, _open_loop_table(hspec, h_controls)), trans, k0)
    h_vals = h_vals[:, i0]

    report = _stationarity_row(ric, k0)
    report.extend(_value_rows(est, v_fn, p_bar[:-1] @ x_bar @ x_bar, h))
    report.extend(_euler_bias_row(float(x_bar @ vals[0] @ x_bar), v_fn, h))
    report.extend(_m0_row(h_vals[0, :n, :n], p_bar[-1, :n, :n], h))
    report.extend(_probe_row(h_vals[1:-1, -1, -1], seed))
    return report.extend(_frechet_rows(eps, vals[1:] @ x_bar @ x_bar, float(h_vals[-1, -1, -1])))


def convexity_probe(
    spec: ProblemSpec,
    t0: float,
    i0: int,
    n_controls: int,
    rng_seed: int,
) -> VerificationReport:
    """Uniform-convexity probe of the homogeneous cost at zero state, on
    its own: the controls of :func:`_probe_controls` as the laws of one
    exact expectation of the Euler scheme."""
    _check_regime(i0, spec.n_regimes)
    k0 = spec.grid.node_index(t0)
    u = _probe_controls(spec, k0, n_controls, rng_seed)
    hspec = spec.homogeneous()
    tables = _closed_loop_tables(hspec, _open_loop_table(hspec, u))
    vals = _expected_values(tables, _cell_transitions(hspec.gen, hspec.grid), k0)
    return _probe_row(vals[:, i0, -1, -1], rng_seed)  # zero state: x̄ = [0, 1]


def not_regular_report(
    spec: ProblemSpec,
    ric: RiccatiSolution | None,
    t0: float,
    i0: int,
    n_controls: int,
    seed: int,
) -> VerificationReport:
    """The report of a problem with no closed-loop optimal law to certify:
    the failed range test, when one decided the verdict, and the convexity
    probe (a flagged probe explains a failed iteration)."""
    report = VerificationReport()
    if ric is not None and ric.classification.residual is not None:
        cls = ric.classification
        report.add("offset_range_residual", cls.residual, cls.range_tol, reason=cls.reason)
    return report.extend(convexity_probe(spec, t0, i0, n_controls, seed))
