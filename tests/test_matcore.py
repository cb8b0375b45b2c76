"""Kernel contracts: the symmetric pseudo-inverse with its eigenvalues,
and the stacked range test."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from regimelq import matcore

from reference import eigh_pinv


def _pinv(m, rel_tol=matcore.DEFAULT_PINV_RTOL):
    return matcore.pinv(m, rel_tol)[1]


def test_pinv_identity():
    assert np.allclose(_pinv(np.eye(3), 1e-12), np.eye(3), atol=1e-14)


def test_pinv_zero_matrix():
    assert np.array_equal(_pinv(np.zeros((2, 2))), np.zeros((2, 2)))


def test_pinv_truncated_diagonal():
    got = _pinv(np.diag([2.0, 0.0]), 1e-12)
    assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-15)


def test_pinv_rejects_nonfinite():
    with pytest.raises(matcore.InvalidInputError):
        matcore.pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pinv_rejects_bad_tolerance():
    with pytest.raises(matcore.InvalidInputError):
        matcore.pinv(np.eye(2), rel_tol=2.0)


def _random_symmetric(rng):
    """A random symmetric matrix with eigenvalue magnitudes in [0.5, 2]
    and random signs, rank-deficient with probability 0.4."""
    dim = int(rng.integers(1, 9))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = rng.uniform(0.5, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    if rng.uniform() < 0.4 and dim > 1:
        lam[: int(rng.integers(1, dim))] = 0.0
    return q @ (lam[:, None] * q.T)


def test_penrose_axioms_random_suite():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        m = _random_symmetric(rng)
        mp = _pinv(m)
        tol = 1e-8 * (1.0 + np.linalg.norm(m))
        assert np.linalg.norm(m @ mp @ m - m) <= tol
        assert np.linalg.norm(mp @ m @ mp - mp) <= tol
        assert np.linalg.norm((m @ mp).T - m @ mp) <= tol
        assert np.linalg.norm((mp @ m).T - mp @ m) <= tol


def test_pinv_spd_equals_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        w = rng.normal(size=(dim, dim))
        spd = w @ w.T + dim * np.eye(dim)
        err = np.linalg.norm(_pinv(spd) - np.linalg.inv(spd))
        assert err <= 1e-8 * np.linalg.norm(np.linalg.inv(spd))


def _symmetric_stack(rng, kind, count=30, dim=4):
    """Random symmetric stacks with eigenvalue magnitudes in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.normal(size=(count, dim, dim)))
    lam = rng.uniform(0.5, 2.0, size=(count, dim))
    if kind == "deficient":
        lam[:, : dim // 2] = 0.0
    elif kind == "indefinite":
        lam[:, ::2] *= -1.0
    elif kind == "zero":
        lam[:] = 0.0
    return q @ (lam[..., None] * np.swapaxes(q, -1, -2))


@pytest.mark.parametrize("kind", ["spd", "deficient", "indefinite", "zero"])
def test_pinv_hermitian_matches_svd(kind):
    # numpy's SVD pseudo-inverse cuts singular values at rcond times the
    # largest, the cutoff of the eigenvalue magnitudes here
    m = _symmetric_stack(np.random.default_rng(5), kind)
    got = _pinv(m, 1e-12)
    want = np.linalg.pinv(m, rcond=1e-12)
    if kind == "zero":
        assert np.array_equal(got, np.zeros_like(m))
    else:
        scale = np.linalg.norm(want, axis=(-2, -1))
        assert np.all(np.linalg.norm(got - want, axis=(-2, -1)) <= 1e-12 * scale)


@pytest.mark.parametrize("kind", ["spd", "deficient", "indefinite"])
def test_pinv_hermitian_penrose_axioms(kind):
    for m in _symmetric_stack(np.random.default_rng(9), kind, count=10):
        mp = _pinv(m)
        tol = 1e-12 * (1.0 + np.linalg.norm(m)) * (1.0 + np.linalg.norm(mp)) ** 2
        assert np.linalg.norm(m @ mp @ m - m) <= tol
        assert np.linalg.norm(mp @ m @ mp - mp) <= tol
        assert np.linalg.norm((m @ mp).T - m @ mp) <= tol
        assert np.linalg.norm((mp @ m).T - mp @ m) <= tol


def test_pinv_returns_the_eigenvalues_of_eigh():
    # the minimum eigenvalues written to riccati.csv are eigh's, bit for bit
    m = _symmetric_stack(np.random.default_rng(13), "indefinite")
    assert np.array_equal(matcore.pinv(m)[0], np.linalg.eigh(m)[0])


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1e308, -1e308, -3.5]


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3).map(lambda s: (*s, 1, 1)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(np.array(_EDGES).reshape(-1, 1, 1), 0.75)
@example(np.array(_EDGES).reshape(-1, 1, 1), 0.5)
@example(np.array(_EDGES).reshape(-1, 1, 1), 1e-12)
def test_scalar_pinv_is_the_eigensolver_path_bit_for_bit(m, rel_tol):
    # a 1 x 1 stack skips eigh; its eigenvalues and pseudo-inverse are
    # still eigh's, bit for bit, signed zeros, subnormals (whose cutoff
    # product can round up to them) and the infinite 1 / 5e-324 included
    with np.errstate(over="ignore"):
        want = eigh_pinv(m, rel_tol)
        for got in (matcore.pinv(m, rel_tol), matcore._eigh_pinv_finite(m, rel_tol)):
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pinv_hermitian_rejects_nonfinite(bad):
    with pytest.raises(matcore.InvalidInputError):
        matcore.pinv(np.array([[1.0, bad], [bad, 1.0]]))


def test_pinv_hermitian_rejects_non_square():
    with pytest.raises(matcore.InvalidInputError):
        matcore.pinv(np.ones((2, 3)))


def test_min_eig_diagonal():
    assert matcore.pinv(np.diag([1.0, 3.0]))[0][0] == pytest.approx(1.0)


def test_min_eig_offdiagonal():
    assert matcore.pinv(np.array([[0.0, 1.0], [1.0, 0.0]]))[0][0] == pytest.approx(-1.0)


def test_min_eig_zero():
    assert matcore.pinv(np.zeros((3, 3)))[0][0] == 0.0


def _outside(s, r, tol=1e-8):
    """The stacked range test on one matrix: whether R(s) leaves R(r)."""
    return bool(matcore.outside_range(r, _pinv(r), s, tol)[1])


def test_range_included_full_range():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(4, 2))
    assert not _outside(s, np.eye(4))


def test_range_included_excluded_column():
    s = np.array([[1.0], [0.0]])
    r = np.diag([0.0, 1.0])
    assert _outside(s, r)


def test_range_included_zero_s():
    assert not _outside(np.zeros((3, 2)), np.diag([1.0, 0.0, 0.0]))


def _range_instance(rng, dim=None):
    """A PSD r of random rank (and of random size unless ``dim`` is
    given) and an s inside its range or not, with the rank oracle's
    verdict."""
    dim = int(rng.integers(1, 6)) if dim is None else dim
    rank = int(rng.integers(0, dim + 1))
    w = rng.normal(size=(dim, rank))
    r = w @ w.T  # PSD with the prescribed rank
    if rng.uniform() < 0.5:
        s = r @ rng.normal(size=(dim, 2))  # inside the range
    else:
        s = rng.normal(size=(dim, 2))
    inside = np.linalg.matrix_rank(np.hstack([r, s]), tol=1e-8) == (
        np.linalg.matrix_rank(r, tol=1e-8)
    )
    return r, s, inside


def test_range_included_matches_rank_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r, s, inside = _range_instance(rng)
        assert _outside(s, r) == (not inside)


def test_range_test_is_per_matrix_of_a_stack():
    rng = np.random.default_rng(17)
    cases = [_range_instance(rng, dim=3) for _ in range(40)]
    r = np.stack([c[0] for c in cases])
    s = np.stack([c[1] for c in cases])
    resid, bad = matcore.outside_range(r, _pinv(r), s, 1e-8)
    assert resid.shape == bad.shape == (len(cases),)
    assert [bool(b) for b in bad] == [not c[2] for c in cases]


def test_symmetrize_averages_with_transpose():
    m = matcore.symmetrize([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(m, m.T)
    assert m[0, 1] == pytest.approx(1.0)
