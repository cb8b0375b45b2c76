"""Bundled benchmark problems: closed-form oracles and stress instances.

These are the instances the test suite and the CLI examples are built
around.  Each builder returns a validated ProblemSpec; ``write_example``
emits the YAML problem-file form.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .model import _FIELDS, _RUNNING_FIELDS, Generator, ProblemSpec, TimeGrid
from .problemfile import write_problem

__all__ = [
    "scalar_benchmark",
    "scalar_blowup",
    "state_blowup",
    "negative_r",
    "two_regime_standard",
    "two_regime_inhomogeneous",
    "three_regime_decoupled",
    "state_decoupled",
    "scalar_benchmark_solution",
    "write_example",
]


def scalar_benchmark(steps: int = 1000, horizon: float = 1.0) -> ProblemSpec:
    """Scalar instance with a separable closed form.

    With unit control weight, unit input gain, unit terminal weight and
    everything else zero, the backward quadratic-value solution is
    P(t) = 1 / (1 + (T - t)); the feedback gain is -P and the optimal
    cost from (t, x) is P(t) x^2.
    """
    grid = TimeGrid(0.0, horizon, steps)
    gen = Generator.constant([[0.0]], grid)
    return ProblemSpec.from_regimes(
        grid, gen, A=0.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=1.0, G=1.0,
    )


def scalar_benchmark_solution(t: np.ndarray, horizon: float = 1.0) -> np.ndarray:
    """Closed form P(t) = 1 / (1 + (T - t)) of :func:`scalar_benchmark`."""
    return 1.0 / (1.0 + (horizon - np.asarray(t)))


def scalar_blowup(steps: int = 1000, g_term: float = 4.0) -> ProblemSpec:
    """Indefinite scalar instance whose backward solve escapes in finite time.

    With unit input gain and control weight -1 the quadratic term flips
    sign, so integrating backward from a terminal weight g > 1/T the
    solution reaches infinity after time 1/g; the solver must abort with
    a divergence error naming the first bad node.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[0.0]], grid)
    return ProblemSpec.from_regimes(
        grid, gen, A=0.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=-1.0, G=g_term,
    )


def state_blowup(steps: int = 100) -> ProblemSpec:
    """Scalar instance whose state escapes in forward simulation.

    No weight on the state, so the backward solve is exactly zero and
    the optimal control is u = 0; the uncontrolled drift 40 x then
    grows past the blow-up limit before T, and Monte-Carlo simulation
    must abort with a divergence error naming the first bad node.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[0.0]], grid)
    return ProblemSpec.from_regimes(
        grid, gen, A=40.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=1.0, G=0.0,
    )


def negative_r(steps: int = 200) -> ProblemSpec:
    """Scalar instance with control weight -1 and everything else zero.

    The homogeneous cost of any control u is exactly -||u||^2, so the
    convexity probe must flag it with ratio -1.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[0.0]], grid)
    return ProblemSpec.from_regimes(
        grid, gen, A=0.0, B=1.0, C=0.0, D=0.0, Q=0.0, S=0.0, R=-1.0, G=0.0,
    )


def two_regime_standard(steps: int = 500) -> ProblemSpec:
    """Two coupled regimes under the classic definiteness conditions.

    Terminal weights PSD, control weights uniformly positive, state
    weights PSD with zero cross weight: uniformly convex, so both solver
    routes apply and must agree.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[-1.0, 1.0], [2.0, -2.0]], grid)
    a1 = np.array([[0.2, 0.5], [-0.3, 0.1]])
    a2 = np.array([[-0.4, 0.2], [0.1, 0.3]])
    c1 = np.array([[0.3, 0.0], [0.1, 0.2]])
    c2 = np.array([[0.1, -0.2], [0.0, 0.4]])
    return ProblemSpec.from_regimes(
        grid, gen,
        A=[a1, a2],
        B=[np.array([[1.0], [0.5]]), np.array([[0.7], [1.2]])],
        C=[c1, c2],
        D=[np.array([[0.4], [0.0]]), np.array([[0.1], [0.3]])],
        Q=[np.diag([1.0, 0.5]), np.diag([0.8, 1.2])],
        S=[np.zeros((1, 2)), np.zeros((1, 2))],
        R=[1.0, 1.5],
        G=[np.diag([1.0, 0.5]), np.diag([2.0, 1.0])],
    )


def two_regime_inhomogeneous(steps: int = 500) -> ProblemSpec:
    """Scalar two-regime instance with every affine term switched on."""
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[-1.0, 1.0], [2.0, -2.0]], grid)
    return ProblemSpec.from_regimes(
        grid, gen,
        A=[0.3, -0.4], B=[1.0, 0.8], C=[0.4, 0.2], D=[0.3, 0.1],
        Q=[1.0, 0.5], S=[0.2, -0.1], R=[1.0, 1.5], G=[1.0, 2.0],
        b=[0.2, -0.1], sigma=[0.3, 0.5], q=[0.1, -0.2],
        rho=[0.05, -0.05], g=[0.3, -0.2],
    )


def three_regime_decoupled(steps: int = 400) -> ProblemSpec:
    """Three regimes with distinct data and a zero generator.

    With no coupling the joint solve must reproduce three independent
    single-regime solves exactly.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant(np.zeros((3, 3)), grid)
    return ProblemSpec.from_regimes(
        grid, gen,
        A=[0.5, -0.2, 0.0], B=[1.0, 0.8, 1.3], C=[0.2, 0.4, 0.0],
        D=[0.1, 0.0, 0.2], Q=[1.0, 0.3, 0.7], S=[0.1, 0.0, -0.2],
        R=[1.0, 2.0, 0.5], G=[1.0, 0.5, 2.0],
    )


def single_regime_of(spec: ProblemSpec, i: int) -> ProblemSpec:
    """Extract regime i of a spec as an uncoupled single-regime problem."""
    return replace(
        spec,
        gen=Generator.constant([[0.0]], spec.grid),
        **{
            name: getattr(spec, name)[:, i:i + 1] if name in _RUNNING_FIELDS
            else getattr(spec, name)[i:i + 1]
            for name in _FIELDS
        },
    )


def state_decoupled(steps: int = 400) -> ProblemSpec:
    """Noise-free scalar instance whose control never feeds the state.

    With zero input gains the running cost is minimized node-wise by the
    feedback law, so the grid-sampled optimal control is stationary for
    the discretized cost as well, to rounding; exact-identity checks
    (quadratic expansion at the optimum, completion of squares) use it.
    """
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[0.0]], grid)
    return ProblemSpec.from_regimes(
        grid, gen,
        A=0.4, B=0.0, C=0.0, D=0.0, Q=1.0, S=0.3, R=2.0, G=1.5,
        b=0.2, q=0.1, rho=-0.3, g=0.5,
    )


def write_example(path, which: str = "scalar") -> ProblemSpec:
    """Generate a bundled example problem file; returns the spec written."""
    builders = {
        "scalar": scalar_benchmark,
        "two_regime": two_regime_inhomogeneous,
        "standard": two_regime_standard,
        "blowup": scalar_blowup,
        "negative_r": negative_r,
    }
    spec = builders[which]()
    write_problem(path, spec, name=which)
    return spec
