"""Dilation construction, group algebra, and growth bounds."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homquant
from homquant import (
    Dilation,
    FundamentalDomain,
    NormOverflowError,
    NotMonotoneError,
    NotPositiveDefiniteError,
    NotSymmetricError,
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
        lhs = d.matrix(s) @ d.matrix(t)
        rhs = d.matrix(s + t)
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


def _blockdiag(mats):
    out = np.zeros((sum(map(len, mats)),) * 2)
    i = 0
    for m in mats:
        out[i:i + len(m), i:i + len(m)] = m
        i += len(m)
    return out


def _block_similar(t, units):
    """``T B T^{-1}`` and the closed form of its exp(s*G), where ``B`` is block
    diagonal: a unit ``(a, b)`` is the block [[a, b], [-b, a]], a unit ``(a,)`` the 1x1 [a]."""
    t = np.array(t)
    t_inv = np.linalg.inv(t)

    def block(s, a, b=None):
        if b is None:
            return [[math.exp(a * s)]]
        c, sn = math.cos(b * s), math.sin(b * s)
        return math.exp(a * s) * np.array([[c, sn], [-sn, c]])

    generator = t @ _blockdiag([[[u[0]]] if len(u) == 1 else [[u[0], u[1]], [-u[1], u[0]]]
                                for u in units]) @ t_inv
    return generator, lambda s: t @ _blockdiag([block(s, *u) for u in units]) @ t_inv


# A complex pair and a real eigenvalue, and two complex pairs, each under a
# well-conditioned change of basis.
PAIR_AND_REAL3 = _block_similar([[1.0, 0.25, 0.0], [0.0, 1.0, 0.5], [0.125, 0.0, 1.0]],
                                [(1.5, 1.25), (2.0,)])
TWO_PAIRS4 = _block_similar([[1.0, 0.25, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0],
                             [0.0, 0.0, 1.0, 0.25], [0.125, 0.0, 0.0, 1.0]],
                            [(1.5, 1.25), (2.0, 0.5)])

# Generator, the backend make_dilation must pick, and the closed form of
# exp(s*G).  The near-defective pairs have cond(V) of 2e10 and 2e12: their
# eigendecomposition reconstructs G but loses up to 1e-4 of exp(s*G).
CLOSED_FORMS = {
    "diag321": (GENERATORS["diag321"], "diag", lambda s: np.diag(np.exp(s * np.array([3.0, 2.0, 1.0])))),
    "rotate2": (GENERATORS["rotate2"], "eig", _rotate2_exp),
    "shear2": (GENERATORS["shear2"], "eig", _upper_triangular_exp(1.5, 1.0, 0.6)),
    "pair-and-real3": (PAIR_AND_REAL3[0], "eig", PAIR_AND_REAL3[1]),
    "two-pairs4": (TWO_PAIRS4[0], "eig", TWO_PAIRS4[1]),
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


@pytest.mark.parametrize("label", [k for k, v in sorted(CLOSED_FORMS.items()) if v[1] == "eig"])
def test_eig_backend_holds_no_complex_array(label):
    """The eigen backend keeps G in real block form: no field holds a complex array."""
    d = make_dilation(CLOSED_FORMS[label][0])
    assert d._mode == "eig"
    assert [f.name for f in dataclasses.fields(d) if np.iscomplexobj(getattr(d, f.name))] == []


@pytest.mark.parametrize("label", [k for k, v in sorted(CLOSED_FORMS.items()) if v[1] != "eig"])
def test_apply_is_a_column_of_apply_each(label, rng):
    """On the diag and expm backends apply and apply_each do the same arithmetic,
    so apply gives the bits of the matching column."""
    d = make_dilation(CLOSED_FORMS[label][0])
    svals = np.concatenate([S_VALUES, rng.uniform(-30.0, 30.0, 200)])
    cols = rng.standard_normal((d.dim, svals.size))
    each = d.apply_each(svals, cols)
    for j, s in enumerate(svals):
        assert np.array_equal(d.apply(s, cols[:, j]), each[:, j])


def test_weighted_norm(rng):
    p = np.array([[2.0, 0.3], [0.3, 1.0]])
    d = make_dilation(np.eye(2), weight=p)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert d.weighted_norm(x) == pytest.approx(math.sqrt(x @ p @ x), rel=1e-14)
    cols = rng.standard_normal((2, 10))
    expect = [d.weighted_norm(cols[:, j]) for j in range(10)]
    assert np.allclose(d.weighted_norms(cols), expect, rtol=1e-14)


# -------------------------------------------------------- unit-sphere residual

# One dilation per evaluation path of unit_residual and the backend it takes:
# Python floats (diag, identity weight), and numpy on a weighted diag, eig and expm.
RESIDUAL_CASES = {
    "diag321": (GENERATORS["diag321"], None, "diag"),
    "diag321-weighted": (GENERATORS["diag321"], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]],
                         "diag"),
    "rotate2": (GENERATORS["rotate2"], None, "eig"),
    "jordan3": (np.eye(3) + np.eye(3, k=1), None, "expm"),
}
RESIDUAL_S = np.array([-4.0, -0.7, -1e-9, 0.0, 1e-12, 0.4, 2.5, 6.0])


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


@pytest.mark.parametrize("label", sorted(RESIDUAL_CASES))
def test_unit_residual_terms(label, rng):
    """y = exp(-s*G) x, q = |y|_P**2 and qg = y'PGy, each to 1e-14 relative, and
    each column of the batch twin equal to the scalar map to the same tolerance."""
    generator, weight, mode = RESIDUAL_CASES[label]
    d = make_dilation(generator, weight)
    assert d._mode == mode
    pg = d.weight @ d.generator
    cols = rng.standard_normal((d.dim, RESIDUAL_S.size))
    y_each, q_each, qg_each = d.unit_residual_each(RESIDUAL_S, cols)
    for j, s in enumerate(RESIDUAL_S):
        y, q, qg = d.unit_residual(cols[:, j])(s)
        assert isinstance(y, list) == (label == "diag321")  # the float path
        assert _rel(y, d.apply(-s, cols[:, j])) <= 1e-14
        assert q == pytest.approx(d.weighted_norm(np.asarray(y)) ** 2, rel=1e-14, abs=0)
        assert qg == pytest.approx(np.asarray(y) @ pg @ np.asarray(y), rel=1e-14, abs=0)
        assert _rel(y_each[:, j], np.asarray(y)) <= 1e-14
        assert q_each[j] == pytest.approx(q, rel=1e-14, abs=0)
        assert qg_each[j] == pytest.approx(qg, rel=1e-14, abs=0)


def test_no_other_module_reads_private_dilation_names():
    """The backend of exp(s*G) is chosen and evaluated in homquant.dilation only:
    no other module of the package reads a private field or method of Dilation."""
    private = {name for name in (*Dilation.__dataclass_fields__, *vars(Dilation))
               if name.startswith("_") and not name.startswith("__")}
    assert {"_mode", "_diag", "_pg", "_p_is_identity", "_expm_many"} <= private
    reads = []
    for path in sorted(Path(homquant.__file__).parent.glob("*.py")):
        if path.name != "dilation.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []


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


def test_norm_bounds_overflow_raises(diag321):
    """An upper bound past the largest float raises NormOverflowError, not a bare OverflowError."""
    with pytest.raises(NormOverflowError):
        dilation_norm_bounds(diag321, 1000.0)
    assert dilation_norm_bounds(diag321, -1000.0) == (0.0, 0.0)


def test_norm_bounds_rejects_non_finite(diag321):
    with pytest.raises(ValueError):
        dilation_norm_bounds(diag321, math.inf)
    with pytest.raises(ValueError):
        diag321.matrix(math.nan)


# ----------------------------------------------------------- discrete subgroup

def test_discrete_dilation_rejects_bad_step(diag321):
    with pytest.raises(ValueError):
        FundamentalDomain(diag321, step=0.0)
    with pytest.raises(ValueError):
        FundamentalDomain(diag321, step=-1.0)
