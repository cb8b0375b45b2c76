"""Seeded generator for the benchmark's wide problem (n=8, m=3, D=4).

The problem is uniformly convex by construction: R is positive definite,
Q and G are positive semidefinite and S is zero, so the Riccati solution
is strongly regular and the direct and fixed-point routes must agree.
All other coefficients and the generator rates are random draws from
the seed.  Coefficients are constant in time, so the YAML stays small.
"""

from __future__ import annotations

import numpy as np

from regimelq import Generator, ProblemSpec, TimeGrid, solve_riccati_direct, validate
from regimelq.cli import parse_problem, write_problem

N_STATE, N_CONTROL, N_REGIMES, STEPS = 8, 3, 4, 500


def wide_spec(seed: int) -> ProblemSpec:
    """The seed's wide ProblemSpec."""
    rng = np.random.default_rng([seed, 0x57DE])
    n, m, d = N_STATE, N_CONTROL, N_REGIMES
    grid = TimeGrid(0.0, 1.0, STEPS)

    rates = rng.uniform(0.5, 2.0, (d, d))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    gen = Generator.constant(rates, grid)

    # from_regimes takes a per-regime sequence, hence list(...)
    def normal(scale, *shape):
        return list(scale * rng.normal(size=(d, *shape)))

    def gram(scale, dim):
        f = rng.normal(size=(d, dim, dim))
        return list(scale * f @ np.swapaxes(f, -1, -2) / dim)

    return ProblemSpec.from_regimes(
        grid, gen,
        A=normal(0.4 / np.sqrt(n), n, n),
        B=normal(0.8 / np.sqrt(n), n, m),
        C=normal(0.2 / np.sqrt(n), n, n),
        D=normal(0.2 / np.sqrt(m), n, m),
        Q=gram(1.0, n),
        S=[np.zeros((m, n))] * d,
        R=[np.eye(m) + r for r in gram(0.5, m)],
        G=gram(1.0, n),
        b=normal(0.3, n),
        sigma=normal(0.3, n),
        q=normal(0.3, n),
        rho=normal(0.3, m),
        g=normal(0.3, n),
    )


def write_wide(path, seed: int) -> None:
    """Write the seed's wide problem through the problem-file schema.

    Raises RuntimeError unless the written file parses back to an
    admissible, strongly regular problem.
    """
    spec = wide_spec(seed)
    write_problem(path, spec, name=f"wide-seed-{seed}")
    parsed, _ = parse_problem(path)
    problems = validate(parsed)
    if problems:
        raise RuntimeError(f"wide problem (seed {seed}) invalid: {problems}")
    cls = solve_riccati_direct(parsed).classification
    if cls.kind != "strongly_regular":
        raise RuntimeError(f"wide problem (seed {seed}) is {cls}, not strongly regular")
