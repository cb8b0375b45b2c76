"""Spec construction, validation, interpolation, and the hat composites."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regimelq.model import (
    _FIELDS,
    _RUNNING_FIELDS,
    Generator,
    GridRangeError,
    ProblemSpec,
    TimeGrid,
    _hats,
    _is_node_constant,
    interp_nodes,
    validate,
)

from reference import bundled, state_decoupled, three_regime_decoupled


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
    assert validate(bundled("standard", 10)) == []


def test_validate_flags_generator_row_sum():
    grid = TimeGrid(0.0, 1.0, 4)
    gen = Generator.constant([[-1.0, 1.1], [0.5, -0.5]], grid)
    spec = bundled("standard", 4)
    bad = dataclasses.replace(spec, gen=gen)
    problems = validate(bad)
    assert any("row sum" in p for p in problems)


def test_validate_flags_asymmetric_weight():
    spec = bundled("standard", 4)
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
    spec = bundled("scalar", 4)
    a_bad = spec.A.copy()
    a_bad[0, 0, 0, 0] = np.inf
    assert any("non-finite" in p for p in validate(dataclasses.replace(spec, A=a_bad)))


def test_interp_nodes_exact_at_nodes_and_linear_between():
    spec = bundled("standard", 4)
    a_var = spec.A.copy()
    a_var[:, :, 0, 0] = np.arange(5, dtype=float)[:, None] * [1.0, -2.0]  # A(t_k) = k, -2k
    grid = spec.grid
    for k in range(5):
        assert np.array_equal(interp_nodes(a_var, grid, grid.nodes()[k]), a_var[k])
    mid = interp_nodes(a_var, grid, 0.125)  # midpoint of cell 0
    assert mid[:, 0, 0] == pytest.approx([0.5, -1.0], abs=1e-14)
    assert np.array_equal(mid[:, 1], a_var[0, :, 1])


def test_interp_nodes_constant_spec_everywhere():
    spec = bundled("standard", 8)
    for name in _RUNNING_FIELDS:
        arr = getattr(spec, name)
        assert np.array_equal(interp_nodes(arr, spec.grid, 0.3777), arr[0]), name


def test_interp_nodes_node_exact_for_every_field():
    spec = bundled("two_regime", 6)
    k = 4
    t_k = spec.grid.nodes()[k]
    for name in _RUNNING_FIELDS:
        arr = getattr(spec, name)
        assert np.array_equal(interp_nodes(arr, spec.grid, t_k), arr[k]), name


def test_interp_nodes_out_of_range():
    spec = bundled("scalar", 4)
    for t in (1.5, -0.1):
        with pytest.raises(GridRangeError):
            interp_nodes(spec.A, spec.grid, t)


def _hats_of(spec, p):
    return _hats(spec.B, spec.D, spec.C, spec.S, spec.R, p)


def test_hats_at_zero_p():
    spec = bundled("two_regime", 4)
    s_hat, r_hat = _hats_of(spec, np.zeros(spec.A.shape))
    assert np.array_equal(s_hat, spec.S)
    assert np.array_equal(r_hat, spec.R)


def test_hats_scalar_substitution():
    spec = bundled("scalar", 4)  # B=1, D=0, S=0, R=1
    s_hat, r_hat = _hats_of(spec, np.full(spec.A.shape, 0.7))
    assert s_hat == pytest.approx(np.full(s_hat.shape, 0.7))
    assert r_hat == pytest.approx(np.ones(r_hat.shape))


def test_hats_no_diffusion_gain():
    spec = bundled("standard", 4)
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
    for name in ("scalar", "standard", "two_regime"):
        assert validate(bundled(name, 6)) == []
    for build in (three_regime_decoupled, state_decoupled):
        assert validate(build(steps=6)) == []


def test_with_steps_resamples_exactly_for_constant_fields():
    spec = bundled("two_regime", 10)
    fine = spec.with_steps(20)
    assert fine.grid.steps == 20
    assert np.allclose(fine.A[0], spec.A[0])
    assert np.allclose(fine.gen.rates[7], spec.gen.rates[0])


def test_homogeneous_zeroes_affine_data():
    spec = bundled("two_regime", 6).homogeneous()
    for name in ("b", "sigma", "q", "rho", "g"):
        assert not np.any(getattr(spec, name))
    assert np.any(spec.A)


def test_augmented_is_the_affine_problem_in_x_bar():
    # in x_bar = [x, 1] the affine drift, diffusion and weights become
    # linear and quadratic forms, and the last state stays constant
    spec = _time_varying_two_regime(steps=6)
    aug = spec.augmented()
    assert validate(aug) == []
    assert (aug.n, aug.m, aug.n_regimes) == (spec.n + 1, spec.m, spec.n_regimes)
    for name in ("b", "sigma", "q", "rho", "g"):
        assert not np.any(getattr(aug, name))
    assert np.array_equal(aug.R, spec.R)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(spec.grid.steps + 1, spec.n_regimes, spec.n))
    u = rng.normal(size=(spec.grid.steps + 1, spec.n_regimes, spec.m))
    x_bar = np.concatenate((x, np.ones(x.shape[:-1] + (1,))), axis=-1)

    def mv(mat, vec):
        return np.einsum("...ij,...j->...i", mat, vec)

    def quad(mat, vec):
        return np.einsum("...i,...i->...", vec, mv(mat, vec))

    drift = mv(aug.A, x_bar) + mv(aug.B, u)
    assert np.allclose(drift[..., :-1], mv(spec.A, x) + mv(spec.B, u) + spec.b, atol=1e-14)
    assert not drift[..., -1].any()
    diffusion = mv(aug.C, x_bar) + mv(aug.D, u)
    assert np.allclose(diffusion[..., :-1], mv(spec.C, x) + mv(spec.D, u) + spec.sigma,
                       atol=1e-14)
    assert not diffusion[..., -1].any()
    running = quad(aug.Q, x_bar) + 2.0 * np.einsum("...i,...i->...", u, mv(aug.S, x_bar))
    want = quad(spec.Q, x) + 2.0 * np.einsum("...i,...i->...", spec.q, x)
    want += 2.0 * np.einsum("...i,...i->...", u, mv(spec.S, x) + spec.rho)
    assert np.allclose(running, want, atol=1e-13)
    terminal = quad(aug.G, x_bar[-1])
    want = quad(spec.G, x[-1]) + 2.0 * np.einsum("...i,...i->...", spec.g, x[-1])
    assert np.allclose(terminal, want, atol=1e-13)


def _time_varying_two_regime(steps):
    spec = bundled("two_regime", steps)
    ramp = np.linspace(1.0, 2.0, steps + 1)[:, None, None]
    return dataclasses.replace(spec, b=spec.b * ramp, rho=spec.rho - ramp * spec.rho)


def test_validate_reports_overflowing_generator_row():
    spec = bundled("standard", 2)
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


@given(_any_specs())
def test_validate_reports_a_broadcast_field_as_its_per_node_copy(spec):
    # validate checks a field of stride 0 along its first axis on one
    # sample; the same data held per node must give the same messages
    def first_sample_everywhere(arr, copy):
        if arr.ndim == 0 or len(arr) == 0:
            return arr
        one = np.broadcast_to(arr[:1], arr.shape)
        return np.array(one) if copy else one

    def variant(copy):
        return dataclasses.replace(
            spec, gen=Generator(first_sample_everywhere(spec.gen.rates, copy)),
            **{name: first_sample_everywhere(getattr(spec, name), copy) for name in _FIELDS})

    assert validate(variant(copy=False)) == validate(variant(copy=True))


def test_validate_of_a_constant_problem_does_not_grow_with_the_grid():
    spec = bundled("two_regime", 10 ** 6)
    tracemalloc.start()
    try:
        assert validate(spec) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak  # a scan of every broadcast node takes 76 MiB


def _spec_arrays(spec):
    return {**{name: getattr(spec, name) for name in _FIELDS}, "rates": spec.gen.rates}


@pytest.mark.parametrize("name", ["scalar", "standard", "two_regime", "dead_channel"])
def test_every_field_of_a_parsed_spec_is_read_only(name):
    for label, arr in _spec_arrays(bundled(name)).items():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
        assert not arr.flags.writeable, label


def test_per_node_fields_are_read_only_and_the_callers_arrays_are_not():
    base = bundled("standard", 4)
    a_var = np.array(base.A)
    rates = np.array(base.gen.rates)
    spec = dataclasses.replace(base, A=a_var, gen=Generator(rates))
    for arr in (spec.A, spec.gen.rates):
        assert not _is_node_constant(arr)
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0, ...] = 1.0
    a_var[0, 0, 0, 0] = 7.0  # the caller keeps its own array writable
    rates[0, 0, 0] = 7.0


def test_node_constant_fields_keep_stride_zero_through_every_constructor():
    parsed = bundled("dead_channel")
    grid = parsed.grid
    built = ProblemSpec.from_regimes(  # the file's data, regime by regime
        grid, Generator.constant(parsed.gen.rates[0], grid),
        **{name: list(getattr(parsed, name)[0] if name in _RUNNING_FIELDS else getattr(parsed, name))
           for name in _FIELDS},
    )
    made = {
        "parse_problem": parsed,
        "from_regimes": built,
        "with_steps": parsed.with_steps(37),
        "homogeneous": parsed.homogeneous(),
        "augmented": parsed.augmented(),
        "augmented, homogeneous": parsed.homogeneous().augmented(),
    }
    for how, spec in made.items():
        assert validate(spec) == [], how
        for label, arr in _spec_arrays(spec).items():
            if label in _RUNNING_FIELDS or label == "rates":
                assert _is_node_constant(arr), (how, label)
            assert not arr.flags.writeable, (how, label)
    assert _is_node_constant(Generator.constant([[-1.0, 1.0], [2.0, -2.0]], grid).rates)
    for name in _FIELDS:  # the same data as the per-node route
        assert np.array_equal(getattr(parsed, name), getattr(built, name)), name
    assert np.array_equal(parsed.gen.rates, built.gen.rates)


def test_per_node_fields_stay_per_node_through_every_constructor():
    # b and rho vary in time, the rates are a per-node copy of constants
    spec = _time_varying_two_regime(steps=6)
    spec = dataclasses.replace(spec, gen=Generator(np.array(spec.gen.rates)))
    for how, made in (("with_steps", spec.with_steps(9)), ("homogeneous", spec.homogeneous()),
                      ("augmented", spec.augmented())):
        assert not _is_node_constant(made.gen.rates), how
        assert _is_node_constant(made.B) and _is_node_constant(made.R), how
    assert not _is_node_constant(spec.with_steps(9).b)
    assert not _is_node_constant(spec.with_steps(9).rho)
    assert not _is_node_constant(spec.augmented().A)  # bordered by the varying b
    assert not _is_node_constant(spec.augmented().S)  # bordered by the varying rho
    assert _is_node_constant(spec.augmented().C)
    assert _is_node_constant(spec.homogeneous().augmented().A)


@pytest.mark.parametrize("steps", [3, 11, 40])
def test_with_steps_of_a_constant_field_equals_the_per_node_resample(steps):
    # np.interp turns a -0.0 sample into +0.0 between the old nodes, so a
    # sample holding -0.0 is resampled node by node
    base = bundled("standard", 8)
    a_neg = np.array(base.A[0])
    a_neg[0, 0, 1] = -0.0
    spec = dataclasses.replace(base, A=np.broadcast_to(a_neg, base.A.shape))
    per_node = dataclasses.replace(
        spec, gen=Generator(np.array(spec.gen.rates)),
        **{name: np.array(getattr(spec, name)) for name in _RUNNING_FIELDS})
    fine, want = spec.with_steps(steps), per_node.with_steps(steps)
    for name in _RUNNING_FIELDS:
        assert getattr(fine, name).tobytes() == getattr(want, name).tobytes(), name
    assert fine.gen.rates.tobytes() == want.gen.rates.tobytes()
    assert _is_node_constant(fine.B) and not _is_node_constant(fine.A)
