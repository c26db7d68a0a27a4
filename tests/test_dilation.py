"""Dilation construction, group algebra, and growth bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homquant import (
    FundamentalDomain,
    NotMonotoneError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    dilate,
    dilation_norm_bounds,
    make_dilation,
)

from conftest import GENERATORS

params = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


# ---------------------------------------------------------------- construction

def test_rejects_non_square():
    with pytest.raises(ValueError):
        make_dilation(np.ones((2, 3)))


def test_rejects_non_finite_generator():
    g = np.eye(2)
    g[0, 1] = np.nan
    with pytest.raises(ValueError):
        make_dilation(g)


@pytest.mark.parametrize("bad", [
    np.array([[0.0, 1.0], [-1.0, 0.0]]),   # pure rotation, LMI is zero
    -np.eye(2),                            # contraction generator
    np.zeros((2, 2)),
])
def test_rejects_non_monotone_generator(bad):
    with pytest.raises(NotMonotoneError):
        make_dilation(bad)


def test_rejects_asymmetric_weight():
    with pytest.raises(NotSymmetricError):
        make_dilation(np.eye(2), weight=[[1.0, 0.5], [0.0, 1.0]])


def test_rejects_indefinite_weight():
    with pytest.raises(NotPositiveDefiniteError):
        make_dilation(np.eye(2), weight=np.diag([1.0, -1.0]))


def test_rejects_weight_shape_mismatch():
    with pytest.raises(ValueError):
        make_dilation(np.eye(2), weight=np.eye(3))


def test_monotonicity_depends_on_weight():
    """A generator can be monotone for one weight and not for another."""
    g = np.array([[0.1, 2.0], [0.0, 3.0]])
    with pytest.raises(NotMonotoneError):
        make_dilation(g)
    d = make_dilation(g, weight=np.diag([1.0, 10.0]))
    assert d.eta_min > 0


def test_fields_are_read_only(diag321):
    with pytest.raises(ValueError):
        diag321.generator[0, 0] = 9.0


# --------------------------------------------------------------- growth rates

def test_eta_diag321(diag321):
    assert diag321.eta_min == pytest.approx(1.0, rel=1e-12)
    assert diag321.eta_max == pytest.approx(3.0, rel=1e-12)


def test_eta_identity():
    d = make_dilation(np.eye(2))
    assert d.eta_min == pytest.approx(1.0, rel=1e-12)
    assert d.eta_max == pytest.approx(1.0, rel=1e-12)


def test_eta_shear2():
    # eigenvalues of G + G' = [[3, .6], [.6, 2]] are (5 +- sqrt(2.44)) / 2
    d = make_dilation(GENERATORS["shear2"])
    root = math.sqrt(2.44)
    assert d.eta_min == pytest.approx((5.0 - root) / 4.0, rel=1e-12)
    assert d.eta_max == pytest.approx((5.0 + root) / 4.0, rel=1e-12)


def test_eta_rotate2():
    # eigenvalues of G + G' = [[4, -.5], [-.5, 2]] are 3 +- sqrt(1.25)
    d = make_dilation(GENERATORS["rotate2"])
    root = math.sqrt(1.25)
    assert d.eta_min == pytest.approx((3.0 - root) / 2.0, rel=1e-12)
    assert d.eta_max == pytest.approx((3.0 + root) / 2.0, rel=1e-12)


def test_eta_with_weight():
    """The growth exponents are measured in the weighted norm."""
    d = make_dilation(np.diag([3.0, 1.0]), weight=np.diag([4.0, 0.25]))
    # P^(1/2) G P^(-1/2) is still diag(3, 1) for commuting diagonals.
    assert d.eta_min == pytest.approx(1.0, rel=1e-12)
    assert d.eta_max == pytest.approx(3.0, rel=1e-12)


# ------------------------------------------------------------------ group law

@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_group_law(label, rng):
    d = make_dilation(GENERATORS[label])
    for _ in range(100):
        s, t = rng.uniform(-3.0, 3.0, 2)
        lhs = dilate(d, s) @ dilate(d, t)
        rhs = dilate(d, s + t)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_identity_and_inverse(label):
    d = make_dilation(GENERATORS[label])
    n = d.dim
    assert np.allclose(d.matrix(0.0), np.eye(n), atol=1e-13)
    for s in (0.3, -1.7, 2.5):
        assert np.allclose(d.matrix(-s) @ d.matrix(s), np.eye(n), atol=1e-10)


@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_generator_commutes_with_group(label, rng):
    d = make_dilation(GENERATORS[label])
    g = d.generator
    for s in rng.uniform(-3.0, 3.0, 20):
        ds = d.matrix(s)
        assert np.max(np.abs(g @ ds - ds @ g)) <= 1e-10


def test_defective_generator_uses_dense_fallback():
    """A Jordan block cannot be eigendecomposed but must still work."""
    d = make_dilation(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert d.eta_min == pytest.approx(0.5, rel=1e-12)
    assert d.eta_max == pytest.approx(1.5, rel=1e-12)
    s, t = 0.7, -1.1
    assert np.allclose(d.matrix(s) @ d.matrix(t), d.matrix(s + t), atol=1e-12)
    # exp(s*J) for the Jordan block is [[e^s, s e^s], [0, e^s]]
    expected = np.array([[math.e, math.e], [0.0, math.e]])
    assert np.allclose(d.matrix(1.0), expected, rtol=1e-12)


# ------------------------------------------------------------------- backends

@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_apply_matches_matrix(label, rng):
    d = make_dilation(GENERATORS[label])
    for _ in range(50):
        s = rng.uniform(-3.0, 3.0)
        x = rng.standard_normal(d.dim)
        assert np.allclose(d.apply(s, x), d.matrix(s) @ x, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_apply_each_matches_apply(label, rng):
    d = make_dilation(GENERATORS[label])
    cols = rng.standard_normal((d.dim, 40))
    svals = rng.uniform(-3.0, 3.0, 40)
    out = d.apply_each(svals, cols)
    for j in range(40):
        assert np.allclose(out[:, j], d.apply(svals[j], cols[:, j]), rtol=1e-11, atol=1e-13)


def _upper_triangular_exp(a, b, c):
    """exp(s*[[a, c], [0, b]]) for a != b, off-diagonal without cancellation."""
    def f(s):
        off = c * math.exp(b * s) * math.expm1((a - b) * s) / (a - b)
        return np.array([[math.exp(a * s), off], [0.0, math.exp(b * s)]])
    return f


def _rotate2_exp(s):
    # G = 1.5 I + K with K @ K = -1.25 I
    w = math.sqrt(1.25)
    k = GENERATORS["rotate2"] - 1.5 * np.eye(2)
    return math.exp(1.5 * s) * (math.cos(w * s) * np.eye(2) + math.sin(w * s) / w * k)


def _jordan_exp(n):
    def f(s):
        return math.exp(s) * sum(np.linalg.matrix_power(np.eye(n, k=1) * s, i) / math.factorial(i)
                                 for i in range(n))
    return f


# Generator, the backend make_dilation must pick, and the closed form of
# exp(s*G).  The near-defective pairs have cond(V) of 2e10 and 2e12: their
# eigendecomposition reconstructs G but loses up to 1e-4 of exp(s*G).
CLOSED_FORMS = {
    "diag321": (GENERATORS["diag321"], "diag", lambda s: np.diag(np.exp(s * np.array([3.0, 2.0, 1.0])))),
    "rotate2": (GENERATORS["rotate2"], "eig", _rotate2_exp),
    "shear2": (GENERATORS["shear2"], "eig", _upper_triangular_exp(1.5, 1.0, 0.6)),
    "jordan2": (np.array([[1.0, 1.0], [0.0, 1.0]]), "expm", _jordan_exp(2)),
    "jordan3": (np.eye(3) + np.eye(3, k=1), "expm", _jordan_exp(3)),
    "near-defective-1e-10": (np.array([[1.0, 1.0], [0.0, 1.0 + 1e-10]]), "expm",
                             _upper_triangular_exp(1.0, 1.0 + 1e-10, 1.0)),
    "near-defective-1e-12": (np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]]), "expm",
                             _upper_triangular_exp(1.0, 1.0 + 1e-12, 1.0)),
}
S_VALUES = np.array([0.0, 1e-300, -1e-300, 1e-12, -1e-9, 0.3, -1.7, 5.0, -12.5, 20.0, -30.0, 30.0])
# Normwise relative error allowed against the closed forms over |s| <= 30.
BACKEND_TOL = 1e-13


@pytest.mark.parametrize("label", sorted(CLOSED_FORMS))
def test_backends_match_closed_forms(label, rng):
    generator, mode, exact = CLOSED_FORMS[label]
    d = make_dilation(generator)
    assert d._mode == mode
    cols = rng.standard_normal((d.dim, S_VALUES.size))
    each = d.apply_each(S_VALUES, cols)
    for j, s in enumerate(S_VALUES):
        m = exact(s)
        scale = np.linalg.norm(m, 1)
        assert np.linalg.norm(d.matrix(s) - m, 1) <= BACKEND_TOL * scale
        for got in (d.apply(s, cols[:, j]), each[:, j]):
            assert np.linalg.norm(got - m @ cols[:, j], 1) <= BACKEND_TOL * scale * np.linalg.norm(cols[:, j], 1)


@pytest.mark.parametrize("label", [k for k, v in sorted(CLOSED_FORMS.items()) if v[1] != "eig"])
def test_apply_is_a_column_of_apply_each(label, rng):
    """On the diag and expm backends apply and apply_each do the same arithmetic."""
    d = make_dilation(CLOSED_FORMS[label][0])
    svals = np.concatenate([S_VALUES, rng.uniform(-30.0, 30.0, 200)])
    cols = rng.standard_normal((d.dim, svals.size))
    each = d.apply_each(svals, cols)
    for j, s in enumerate(svals):
        one = d.apply(s, cols[:, j])
        assert np.linalg.norm(one - each[:, j]) <= 1e-15 * np.linalg.norm(each[:, j])


def test_weighted_norm(rng):
    p = np.array([[2.0, 0.3], [0.3, 1.0]])
    d = make_dilation(np.eye(2), weight=p)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert d.weighted_norm(x) == pytest.approx(math.sqrt(x @ p @ x), rel=1e-14)
    cols = rng.standard_normal((2, 10))
    expect = [d.weighted_norm(cols[:, j]) for j in range(10)]
    assert np.allclose(d.weighted_norms(cols), expect, rtol=1e-14)


# ----------------------------------------------------------------- gain bounds

@pytest.mark.parametrize("label", sorted(GENERATORS))
@settings(max_examples=200, deadline=None)
@given(s=params, data=st.data())
def test_gain_sandwich(label, s, data):
    """exp(eta_min*s) and exp(eta_max*s) sandwich the weighted gain (s >= 0;
    the bounds swap for s <= 0, which dilation_norm_bounds handles)."""
    d = make_dilation(GENERATORS[label])
    x = np.array(data.draw(st.lists(
        st.floats(min_value=-10.0, max_value=10.0), min_size=d.dim, max_size=d.dim)))
    nx = d.weighted_norm(x)
    if nx < 1e-6:
        return
    lo, hi = dilation_norm_bounds(d, s)
    nd = d.weighted_norm(d.apply(s, x))
    assert lo * nx <= nd * (1.0 + 1e-9)
    assert nd <= hi * nx * (1.0 + 1e-9)


def test_norm_bounds_orientation(diag321):
    lo, hi = dilation_norm_bounds(diag321, 1.0)
    assert (lo, hi) == (pytest.approx(math.e), pytest.approx(math.exp(3.0)))
    lo, hi = dilation_norm_bounds(diag321, -1.0)
    assert (lo, hi) == (pytest.approx(math.exp(-3.0)), pytest.approx(math.exp(-1.0)))
    assert lo <= hi


def test_norm_bounds_rejects_non_finite(diag321):
    with pytest.raises(ValueError):
        dilation_norm_bounds(diag321, math.inf)
    with pytest.raises(ValueError):
        dilate(diag321, math.nan)


# ----------------------------------------------------------- discrete subgroup

def test_discrete_dilation_rejects_bad_step(diag321):
    with pytest.raises(ValueError):
        FundamentalDomain(diag321, step=0.0)
    with pytest.raises(ValueError):
        FundamentalDomain(diag321, step=-1.0)
