"""Offset system, feedback law, and value-function behavior."""

import dataclasses

import numpy as np
import pytest

from regimelq import matcore
from regimelq.affine import feedback_at, solve_eta, value_function
from regimelq.model import Generator, GridRangeError, TimeGrid
from regimelq.riccati import solve_riccati_direct

from reference import bundled


def _solved(spec):
    ric = solve_riccati_direct(spec)
    return ric, solve_eta(spec, ric)


def test_homogeneous_problem_has_zero_offsets():
    ric, aff = _solved(bundled("standard", 40))
    assert not np.any(aff.eta)
    assert not np.any(aff.v_star)
    assert not np.any(aff.value_integral)


def test_pure_state_cost_offset_closed_form():
    # only q = 1 drives the offset: eta(t) = T - t
    steps = 200
    grid = TimeGrid(0.0, 1.0, steps)
    gen = Generator.constant([[0.0]], grid)
    spec = bundled("scalar", steps)
    spec = dataclasses.replace(
        spec,
        G=np.zeros_like(spec.G),
        q=np.ones_like(spec.q),
        B=np.zeros_like(spec.B),
        gen=gen,
    )
    ric, aff = _solved(spec)
    assert np.abs(ric.P).max() == 0.0
    want = 1.0 - grid.nodes()
    assert np.abs(aff.eta[:, 0, 0] - want).max() < 1e-12


def test_identical_regimes_share_offsets():
    base = bundled("two_regime", 60)
    kw = {}
    for name in ("A", "B", "C", "D", "b", "sigma", "Q", "S", "R", "q", "rho"):
        arr = getattr(base, name).copy()
        arr[:, 1] = arr[:, 0]
        kw[name] = arr
    g_arr = base.G.copy()
    g_arr[1] = g_arr[0]
    gv = base.g.copy()
    gv[1] = gv[0]
    spec = dataclasses.replace(base, G=g_arr, g=gv, **kw)
    _, aff = _solved(spec)
    assert np.array_equal(aff.eta[:, 0], aff.eta[:, 1])


def test_eta_terminal_condition_exact():
    spec = bundled("two_regime", 30)
    _, aff = _solved(spec)
    assert np.array_equal(aff.eta[-1], spec.g)


def test_superposition_in_affine_data():
    spec = bundled("two_regime", 80)
    ric = solve_riccati_direct(spec)
    doubled = dataclasses.replace(
        spec,
        b=2.0 * spec.b, sigma=2.0 * spec.sigma, q=2.0 * spec.q,
        rho=2.0 * spec.rho, g=2.0 * spec.g,
    )
    aff1 = solve_eta(spec, ric)
    aff2 = solve_eta(doubled, solve_riccati_direct(doubled))
    for name in ("eta", "rho_hat", "v_star"):
        a1, a2 = getattr(aff1, name), getattr(aff2, name)
        assert np.abs(2.0 * a1 - a2).max() <= 1e-12 * max(1.0, np.abs(a2).max())


def test_range_condition_holds_when_strongly_regular():
    spec = bundled("two_regime", 50)
    ric, aff = _solved(spec)
    assert ric.classification.kind == "strongly_regular"
    _, r_hat_pinv = matcore.pinv(ric.R_hat, ric.pinv_tol)
    _, outside = matcore.outside_range(
        ric.R_hat, r_hat_pinv, aff.rho_hat[..., None], ric.classification.range_tol,
    )
    assert np.any(aff.rho_hat) and not outside.any()


def test_offsets_are_the_last_columns_of_the_augmented_law():
    spec = bundled("two_regime", 50)
    ric, aff = _solved(spec)
    assert np.array_equal(aff.rho_hat, ric.S_bar[..., -1])
    assert np.array_equal(aff.v_star, ric.Theta_bar[..., -1])
    assert np.array_equal(aff.eta, ric.P_bar[..., :-1, -1])
    assert np.array_equal(aff.value_integral, ric.P_bar[..., -1, -1])
    # rho_hat = B^T eta + D^T P sigma + rho and v* = -R_hat^+ rho_hat
    rho_hat = (
        np.einsum("kdji,kdj->kdi", spec.B, aff.eta)
        + np.einsum("kdji,kdj->kdi", spec.D, np.einsum("kdij,kdj->kdi", ric.P, spec.sigma))
        + spec.rho
    )
    assert np.abs(aff.rho_hat - rho_hat).max() <= 1e-14
    _, r_hat_pinv = matcore.pinv(ric.R_hat, ric.pinv_tol)
    v_star = -np.einsum("kdij,kdj->kdi", r_hat_pinv, aff.rho_hat)
    assert np.abs(aff.v_star - v_star).max() <= 1e-14


def test_offsets_need_a_regular_solution():
    spec = bundled("dead_offset", 40)
    ric = solve_riccati_direct(spec)
    with pytest.raises(ValueError, match="regular solution"):
        solve_eta(spec, ric)


def test_feedback_zero_state_homogeneous():
    ric, aff = _solved(bundled("standard", 40))
    u = feedback_at(ric, aff, 0.3, 1, np.zeros(2))
    assert np.array_equal(u, np.zeros(1))


def test_feedback_affine_in_state():
    spec = bundled("two_regime", 50)
    ric, aff = _solved(spec)
    x = np.array([0.8])
    u1 = feedback_at(ric, aff, 0.37, 0, x)
    u2 = feedback_at(ric, aff, 0.37, 0, 2.0 * x)
    theta_x = ric.gain_at(0.37, 0) @ x
    assert np.abs((u2 - u1) - theta_x).max() < 1e-12


def test_feedback_scalar_oracle_value():
    spec = bundled("scalar", 400)
    ric, aff = _solved(spec)
    got = feedback_at(ric, aff, 0.0, 0, np.array([1.0]))
    assert got[0] == pytest.approx(-0.5, abs=1e-9)


def test_value_function_homogeneous_is_pure_quadratic():
    spec = bundled("standard", 60)
    ric, aff = _solved(spec)
    x = np.array([0.4, -1.1])
    want = float(x @ ric.P[0, 1] @ x)
    assert value_function(ric, aff, 0.0, 1, x) == pytest.approx(want, rel=1e-14)
    assert value_function(ric, aff, 0.0, 1, np.zeros(2)) == 0.0


def test_value_scalar_oracle():
    spec = bundled("scalar", 500)
    ric, aff = _solved(spec)
    assert value_function(ric, aff, 0.0, 0, np.array([2.0])) == pytest.approx(
        4.0 / 2.0, rel=1e-9
    )


def test_value_is_quadratic_polynomial_in_state():
    spec = bundled("two_regime", 60)
    ric, aff = _solved(spec)
    rng = np.random.default_rng(4)
    x = rng.normal(size=1)
    y = rng.normal(size=1)

    def phi(s):
        return value_function(ric, aff, 0.2, 0, x + s * y)

    # third finite difference of a quadratic vanishes
    extrapolated = phi(0.0) - 3.0 * phi(1.0) + 3.0 * phi(2.0)
    assert extrapolated == pytest.approx(phi(3.0), rel=1e-9, abs=1e-9)


def test_value_out_of_range():
    spec = bundled("scalar", 20)
    ric, aff = _solved(spec)
    with pytest.raises(GridRangeError):
        value_function(ric, aff, 2.0, 0, np.array([1.0]))


def test_scaling_covariance_of_homogeneous_value():
    spec = bundled("standard", 40)
    ric, aff = _solved(spec)
    x = np.array([0.3, 0.9])
    v1 = value_function(ric, aff, 0.1, 0, x)
    v3 = value_function(ric, aff, 0.1, 0, 3.0 * x)
    assert v3 == pytest.approx(9.0 * v1, rel=1e-12)
