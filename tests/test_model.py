"""Spec construction, validation, interpolation, and the hat composites."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regimelq import benchmarks
from regimelq.model import (
    _FIELDS,
    _RUNNING_FIELDS,
    Generator,
    GridRangeError,
    ProblemSpec,
    TimeGrid,
    _hats,
    interp_nodes,
    validate,
)


@pytest.mark.filterwarnings("error")
def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    # infinite bounds, and finite bounds whose span overflows
    for t0, T in [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308),
                  (np.float64(-1e308), np.float64(1e308))]:
        with pytest.raises(ValueError, match="need finite t0, T and T - t0"):
            TimeGrid(t0, T, 10)


def test_field_table_covers_every_coefficient():
    coefficients = [f.name for f in dataclasses.fields(ProblemSpec)][4:]
    assert sorted(_FIELDS) == sorted(coefficients)
    assert set(_RUNNING_FIELDS) == set(_FIELDS) - {"G", "g"}


def test_grid_nodes_strictly_increasing():
    grid = TimeGrid(0.0, 2.0, 7)
    nodes = grid.nodes()
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    assert np.all(np.diff(nodes) > 0)


def test_validate_well_formed_two_regime():
    assert validate(benchmarks.two_regime_standard(steps=10)) == []


def test_validate_flags_generator_row_sum():
    grid = TimeGrid(0.0, 1.0, 4)
    gen = Generator.constant([[-1.0, 1.1], [0.5, -0.5]], grid)
    spec = benchmarks.two_regime_standard(steps=4)
    bad = dataclasses.replace(spec, gen=gen)
    problems = validate(bad)
    assert any("row sum" in p for p in problems)


def test_validate_flags_asymmetric_weight():
    spec = benchmarks.two_regime_standard(steps=4)
    q_bad = spec.Q.copy()
    q_bad[1, 0, 0, 1] += 1e-3
    bad = dataclasses.replace(spec, Q=q_bad)
    assert any("Q not symmetric" in p for p in validate(bad))
    g_bad = spec.G.copy()
    g_bad[1, 1, 0] += 1e-3
    assert validate(dataclasses.replace(spec, G=g_bad)) == ["G not symmetric"]


def test_from_regimes_symmetrizes_weights():
    grid = TimeGrid(0.0, 1.0, 4)
    asym, zero = np.array([[1.0, 0.4], [0.0, 0.5]]), np.zeros((2, 2))
    spec = ProblemSpec.from_regimes(
        grid, Generator.constant([[0.0]], grid),
        A=zero, B=np.eye(2), C=zero, D=zero, Q=asym, S=zero, R=asym, G=asym,
    )
    sym = np.array([[1.0, 0.2], [0.2, 0.5]])
    assert np.array_equal(spec.Q[3, 0], sym) and np.array_equal(spec.R[3, 0], sym)
    assert np.array_equal(spec.G[0], sym)
    assert validate(spec) == []


def test_validate_flags_nonfinite():
    spec = benchmarks.scalar_benchmark(steps=4)
    a_bad = spec.A.copy()
    a_bad[0, 0, 0, 0] = np.inf
    assert any("non-finite" in p for p in validate(dataclasses.replace(spec, A=a_bad)))


def test_interp_nodes_exact_at_nodes_and_linear_between():
    spec = benchmarks.two_regime_standard(steps=4)
    a_var = spec.A.copy()
    a_var[:, :, 0, 0] = np.arange(5, dtype=float)[:, None] * [1.0, -2.0]  # A(t_k) = k, -2k
    grid = spec.grid
    for k in range(5):
        assert np.array_equal(interp_nodes(a_var, grid, grid.nodes()[k]), a_var[k])
    mid = interp_nodes(a_var, grid, 0.125)  # midpoint of cell 0
    assert mid[:, 0, 0] == pytest.approx([0.5, -1.0], abs=1e-14)
    assert np.array_equal(mid[:, 1], a_var[0, :, 1])


def test_interp_nodes_constant_spec_everywhere():
    spec = benchmarks.two_regime_standard(steps=8)
    for name in _RUNNING_FIELDS:
        arr = getattr(spec, name)
        assert np.array_equal(interp_nodes(arr, spec.grid, 0.3777), arr[0]), name


def test_interp_nodes_node_exact_for_every_field():
    spec = benchmarks.two_regime_inhomogeneous(steps=6)
    k = 4
    t_k = spec.grid.nodes()[k]
    for name in _RUNNING_FIELDS:
        arr = getattr(spec, name)
        assert np.array_equal(interp_nodes(arr, spec.grid, t_k), arr[k]), name


def test_interp_nodes_out_of_range():
    spec = benchmarks.scalar_benchmark(steps=4)
    for t in (1.5, -0.1):
        with pytest.raises(GridRangeError):
            interp_nodes(spec.A, spec.grid, t)


def _hats_of(spec, p):
    return _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p)


def test_hats_at_zero_p():
    spec = benchmarks.two_regime_inhomogeneous(steps=4)
    s_hat, r_hat = _hats_of(spec, np.zeros(spec.A.shape))
    assert np.array_equal(s_hat, spec.S)
    assert np.array_equal(r_hat, spec.R)


def test_hats_scalar_substitution():
    spec = benchmarks.scalar_benchmark(steps=4)  # B=1, D=0, S=0, R=1
    s_hat, r_hat = _hats_of(spec, np.full(spec.A.shape, 0.7))
    assert s_hat == pytest.approx(np.full(s_hat.shape, 0.7))
    assert r_hat == pytest.approx(np.ones(r_hat.shape))


def test_hats_no_diffusion_gain():
    spec = benchmarks.two_regime_standard(steps=4)
    d_zero = dataclasses.replace(spec, D=np.zeros_like(spec.D))
    rng = np.random.default_rng(1)
    p = rng.normal(size=spec.A.shape)
    _, r_hat = _hats_of(d_zero, p + np.swapaxes(p, -1, -2))
    assert np.array_equal(r_hat, spec.R)


def test_hats_symmetric_output():
    # two regimes, n = 3, m = 2, and a non-symmetric R: the composite is
    # still exactly symmetric
    rng = np.random.default_rng(5)
    b, d, s = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 2, 3))
    c, r, p = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 3, 3))
    _, r_hat = _hats(b, d, c, s, r, p + np.swapaxes(p, -1, -2))
    assert np.array_equal(r_hat, np.swapaxes(r_hat, -1, -2))


def test_validate_accepts_own_constructors():
    for build in (
        benchmarks.scalar_benchmark,
        benchmarks.two_regime_standard,
        benchmarks.two_regime_inhomogeneous,
        benchmarks.three_regime_decoupled,
        benchmarks.state_decoupled,
    ):
        assert validate(build(steps=6)) == []


def test_with_steps_resamples_exactly_for_constant_fields():
    spec = benchmarks.two_regime_inhomogeneous(steps=10)
    fine = spec.with_steps(20)
    assert fine.grid.steps == 20
    assert np.allclose(fine.A[0], spec.A[0])
    assert np.allclose(fine.gen.rates[7], spec.gen.rates[0])


def test_homogeneous_zeroes_affine_data():
    spec = benchmarks.two_regime_inhomogeneous(steps=6).homogeneous()
    for name in ("b", "sigma", "q", "rho", "g"):
        assert not np.any(getattr(spec, name))
    assert np.any(spec.A)


def test_validate_reports_overflowing_generator_row():
    spec = benchmarks.two_regime_standard(steps=2)
    rates = np.broadcast_to([[-1e308, 1e308], [1e308, 1e308]], (3, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning is not regimelq's
        problems = validate(dataclasses.replace(spec, gen=Generator(rates)))
    assert problems == ["generator row sum nonzero (max |sum| = inf)"]


@st.composite
def _any_specs(draw):
    """Specs whose fields have any shape, entries of any size, NaN or
    infinity, and generators with any number of nodes."""
    n, m, d, steps = (draw(st.integers(lo, 3)) for lo in (0, 0, 0, 2))

    def field(*tail, nodes=True):
        shape = ((steps + 1,) if nodes else ()) + (d, *tail)
        if draw(st.booleans()):
            shape = draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3))
        return draw(hnp.arrays(np.float64, shape, elements=st.floats()))

    n_rates = draw(st.integers(0, steps + 2))
    rates = draw(hnp.arrays(np.float64, (n_rates, d, d), elements=st.floats()))
    return ProblemSpec(
        n=n, m=m, grid=TimeGrid(0.0, 1.0, steps), gen=Generator(rates),
        A=field(n, n), B=field(n, m), C=field(n, n), D=field(n, m), b=field(n),
        sigma=field(n), Q=field(n, n), S=field(m, n), R=field(m, m), q=field(n),
        rho=field(m), G=field(n, n, nodes=False), g=field(n, nodes=False),
    )


@given(_any_specs())
def test_validate_property_never_raises(spec):
    problems = validate(spec)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
