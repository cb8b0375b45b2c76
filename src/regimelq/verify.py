"""Numerical certification of the optimality and value identities.

Each row of :func:`certify` compares a Monte-Carlo, exact discrete or
continuous-time quantity against its solver-side counterpart, or reads
the feedback law itself.  The one Monte-Carlo row, the closed-loop
value from (t0, x0, i0), accepts at three standard errors plus a
discretization-bias allowance ``BIAS_BUDGET_COEFF * h * scale``
(calibrated once on the closed-form scalar benchmark, recorded in every
report that uses it); its paths come from the one seeded runner of
:mod:`regimelq.sim`, so it does not depend on the thread count.  No
other row draws a path or reads (x0, i0): the paper's optimality and
convexity hold from every initial state and regime, and the rows read
matrices of every regime.  One :func:`regimelq.riccati.solve_lyapunov`
stack on ``spec.augmented()`` prices P̄ of the optimal, the perturbed
and the zero law at every node, and two exact expectations of the Euler
scheme (:func:`regimelq.sim._expected_values`), of the optimal law and,
on ``spec.homogeneous()``, of the zero law and the probe controls, give
the scheme's cost matrices.  A law is one Θ̄ = [Θ | v] on x̄ = [x, 1]:
``ric.Theta_bar`` for the optimal one, [0 | u] for an open-loop control
u.  :func:`not_regular_report` gives the failed range test and the probe.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .model import ProblemSpec, TimeGrid
from .riccati import DEFAULT_RANGE_TOL, RiccatiSolution, solve_lyapunov
from .sim import (
    MCEstimate,
    _cell_transitions,
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


def _value_mc_row(est: MCEstimate, v_fn: float, h: float) -> VerificationReport:
    """The Monte-Carlo closed-loop cost from (t0, x0, i0) must meet the
    value function there within three standard errors plus the bias
    allowance."""
    budget = euler_bias_budget(h, scale=v_fn)
    return VerificationReport().add(
        "value_mc_vs_function", abs(est.mean - v_fn),
        3.0 * est.std_error + budget,
        mc_mean=est.mean, mc_se=est.std_error, value_function=v_fn,
        bias_budget=budget, bias_coeff=BIAS_BUDGET_COEFF,
        paths=est.paths, seed=est.seed,
    )


def _no_improvement_rows(p_bar: np.ndarray, k0: int, grid: TimeGrid,
                         seed: int) -> VerificationReport:
    """No perturbed law (:func:`_perturbed_laws`) costs less than the
    optimal one from any state, node and regime.

    ``p_bar`` holds the Lyapunov slices of the optimal law, then of each
    perturbed law.  A frozen law costs x̄ᵀP̄(k, i)x̄ from (t_k, x, i), so law
    p loses nowhere iff every gap P̄_p(k, i) − P̄_0(k, i) is ⪰ 0, as the
    R̂-weighted cost of Θ̄_p − Θ̄* is at an optimal law.  Row p's statistic
    is −λ_min of the gap over k0 ≤ k < N and every regime (at N both are
    Ḡ), and its tolerance a rounding bound: each of the N − k0 RK4 steps
    ends in P̄ + (h/6)(k₁ + 2k₂ + 2k₃ + k₄), O(h) stage terms rounding each
    entry by about ε|P̄|, the difference rounds once, and the symmetric
    eigensolver is backward stable to (n + 1)ε‖gap‖.  So row p allows
    (N − k0 + n + 2) ε max_{k, i} (‖P̄_p(k, i)‖_F + ‖P̄_0(k, i)‖_F).
    """
    n_steps, width = grid.steps, p_bar.shape[-1]
    sweep = p_bar[:, k0:n_steps]
    min_eig = np.linalg.eigvalsh(sweep[1:] - sweep[0])[..., 0]  # (N_PERTURBATIONS, N − k0, D)
    norms = np.linalg.norm(sweep, axis=(-2, -1))
    rounding = (n_steps - k0 + width + 1) * np.finfo(float).eps
    report = VerificationReport()
    for p_id, (eig, norm) in enumerate(zip(min_eig, norms[1:] + norms[0])):
        k, i = np.unravel_index(eig.argmin(), eig.shape)
        report.add(  # 0.0 - λ keeps a zero gap's statistic +0
            f"value_no_improvement_perturbation_{p_id + 1}", 0.0 - eig[k, i],
            rounding * norm.max(), min_eig=float(eig[k, i]), node=int(k0 + k),
            t=float(grid.nodes()[k0 + k]), regime=int(i), seed=seed,
        )
    return report


def _regime_bias_row(name: str, diff: np.ndarray, scale: np.ndarray, h: float,
                     **details) -> VerificationReport:
    """Regime i passes iff diff[i] <= ``euler_bias_budget(h, scale[i])``;
    the row reports the regime nearest its budget, or furthest past it."""
    budgets = np.array([euler_bias_budget(h, s) for s in scale])
    i = int((diff / budgets).argmax())
    return VerificationReport().add(
        name, diff[i], budgets[i], regime=i, bias_budget=float(budgets[i]),
        bias_coeff=BIAS_BUDGET_COEFF, **{k: float(v[i]) for k, v in details.items()},
    )


def _euler_bias_row(v_h: np.ndarray, p_bar: np.ndarray, h: float) -> VerificationReport:
    """The exact expected cost matrices V_h(i) of the Euler scheme under
    the optimal law against the value function's P̄(k0, i): the bias that
    the Monte-Carlo value row allows for, without sampling error.  Regime
    i's ‖V_h(i) − P̄(k0, i)‖₂ bounds |E_h − V| over unit x̄."""
    bias = np.linalg.norm(v_h - p_bar, ord=2, axis=(-2, -1))
    value = np.linalg.norm(p_bar, ord=2, axis=(-2, -1))
    return _regime_bias_row("euler_bias", bias, value, h, bias=bias, value_norm=value)


def _m0_row(m0_h: np.ndarray, ode: np.ndarray, h: float) -> VerificationReport:
    """Euler-scheme vs backward-ODE form of the zero-control value matrix.

    M0_h is the quadratic block of the exact expected zero-control cost of
    the homogeneous problem under the Euler scheme, (D, n, n) for every
    initial state and regime at once; only the discretization bias
    separates it from the zero-gain backward solve ``ode``.  Regime i's
    largest entry gap meets the bias allowance of ode(i)'s largest entry.
    """
    diff = np.abs(m0_h - ode).max(axis=(-2, -1))
    return _regime_bias_row("m0_feynman_kac_vs_ode", diff, np.abs(ode).max(axis=(-2, -1)), h,
                            max_abs_diff=diff)


def _probe_row(ratios: np.ndarray, seed: int) -> VerificationReport:
    """Uniform-convexity probe: ``ratios``, (n_controls, D), are the exact
    expected homogeneous costs at zero state of the unit-energy controls of
    :func:`_probe_controls`, from every regime.  The smallest one is
    reported, and a negative one flags the problem as non-convex."""
    c, i = np.unravel_index(ratios.argmin(), ratios.shape)
    eps_hat = float(ratios[c, i])
    return VerificationReport().add(
        "convexity_nonnegative_ratios", -eps_hat, 0.0,
        eps_hat=eps_hat, control=int(c), regime=int(i), n_controls=len(ratios), seed=seed,
        ratios=ratios.tolist(), flagged_nonconvex=bool(eps_hat < 0.0),
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
    """Every row of the report on a regular solution from node k0 of t0.

    ``x0`` and ``i0`` reach only the Monte-Carlo value, which meets x̄ᵀP̄x̄
    at (k0, x0, i0).  Every other row reads the law, or the three stacked
    calls of the module docstring, which share one table of transitions.
    """
    k0 = spec.grid.node_index(t0)
    n, h, n_nodes = spec.n, spec.grid.h, spec.grid.steps + 1
    est = mc_value(spec, ric.Theta_bar, t0, i0, x0, paths, seed, threads)  # checks i0 and x0
    x_bar = np.append(np.asarray(x0, dtype=float), 1.0)
    v_fn = float(x_bar @ ric.P_bar[k0, i0] @ x_bar)
    probes = _probe_controls(spec, k0, controls, seed)

    # continuous time: the optimal and perturbed laws, then the zero law
    laws = _perturbed_laws(spec, ric, seed)
    p_bar = solve_lyapunov(spec.augmented(), np.concatenate([laws, np.zeros_like(laws[:1])]))

    # Euler scheme: the optimal law; on the homogeneous problem, the zero
    # law, then the probe controls
    trans = _cell_transitions(spec.gen, spec.grid)
    (v_h,) = _expected_values(_closed_loop_tables(spec, ric.Theta_bar), trans, k0)
    hspec = spec.homogeneous()
    h_controls = np.concatenate([np.zeros((1, n_nodes, spec.m)), probes])
    h_vals = _expected_values(
        _closed_loop_tables(hspec, _open_loop_table(hspec, h_controls)), trans, k0)

    report = _stationarity_row(ric, k0)
    report.extend(_value_mc_row(est, v_fn, h))
    report.extend(_no_improvement_rows(p_bar[:-1], k0, spec.grid, seed))
    report.extend(_euler_bias_row(v_h, ric.P_bar[k0], h))
    report.extend(_m0_row(h_vals[0, :, :n, :n], p_bar[-1, k0, :, :n, :n], h))
    return report.extend(_probe_row(h_vals[1:, :, -1, -1], seed))  # zero state: x̄ = [0, 1]


def convexity_probe(
    spec: ProblemSpec,
    t0: float,
    n_controls: int,
    rng_seed: int,
) -> VerificationReport:
    """Uniform-convexity probe of the homogeneous cost at zero state from
    every regime, on its own: the controls of :func:`_probe_controls` as
    the laws of one exact expectation of the Euler scheme."""
    k0 = spec.grid.node_index(t0)
    u = _probe_controls(spec, k0, n_controls, rng_seed)
    hspec = spec.homogeneous()
    tables = _closed_loop_tables(hspec, _open_loop_table(hspec, u))
    vals = _expected_values(tables, _cell_transitions(hspec.gen, hspec.grid), k0)
    return _probe_row(vals[..., -1, -1], rng_seed)  # zero state: x̄ = [0, 1]


def not_regular_report(
    spec: ProblemSpec,
    ric: RiccatiSolution | None,
    t0: float,
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
    return report.extend(convexity_probe(spec, t0, n_controls, seed))
