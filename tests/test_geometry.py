"""Canonical homogeneous norm, straightening map, and the group's scalar action."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homquant import (
    Dilation,
    FundamentalDomain,
    HomFeedback,
    NegativeInputError,
    NonFiniteInputError,
    NormOverflowError,
    QuantizerParams,
    SampleSpec,
    ZeroVectorError,
    angular_error_bound,
    dilation_norm_bounds,
    distance_bound_alpha1,
    hom_feedback_eval,
    hom_norm,
    hom_norm_many,
    hom_project,
    hom_quantize,
    hom_quantize_many,
    log_quantize,
    make_dilation,
    phi,
    phi_inv,
    phi_many,
    projection_index,
    sample_states,
    tilde_scale,
    to_spherical,
)
from homquant import geometry
from homquant.errors import NoConvergenceError, NotMonotoneError
from homquant.geometry import _radial_cells, _solve

from conftest import GENERATORS

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def vectors(dim):
    return st.lists(coords, min_size=dim, max_size=dim).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 1e-3)


# ------------------------------------------------------------------- hom norm

@pytest.mark.parametrize("label", sorted(GENERATORS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_defining_equation(label, data):
    """|exp(-ln(r) G) x|_P = 1 with r the homogeneous norm."""
    d = make_dilation(GENERATORS[label])
    x = data.draw(vectors(d.dim))
    r = hom_norm(d, x)
    assert abs(d.weighted_norm(d.apply(-math.log(r), x)) - 1.0) <= 1e-12


@pytest.mark.parametrize("label", sorted(GENERATORS))
@settings(max_examples=150, deadline=None)
@given(s=st.floats(min_value=-3.0, max_value=3.0), data=st.data())
def test_norm_homogeneity(label, s, data):
    d = make_dilation(GENERATORS[label])
    x = data.draw(vectors(d.dim))
    r = hom_norm(d, x)
    assert hom_norm(d, d.apply(s, x)) == pytest.approx(math.exp(s) * r, rel=1e-7)


def test_analytic_values(diag321):
    # weight-3 axis: e^(3s) * 1 = 8  =>  r = e^s = 2
    assert hom_norm(diag321, [8.0, 0.0, 0.0]) == pytest.approx(2.0, rel=1e-12)
    # weight-2 axis: e^(2s) * 1 = 9  =>  r = 3
    assert hom_norm(diag321, [0.0, 9.0, 0.0]) == pytest.approx(3.0, rel=1e-12)
    # weight-1 axis coincides with the Euclidean norm
    assert hom_norm(diag321, [0.0, 0.0, 5.0]) == pytest.approx(5.0, rel=1e-12)


def test_identity_dilation_reduces_to_euclidean(rng):
    d = make_dilation(np.eye(2))
    for _ in range(25):
        x = rng.standard_normal(2) * 10.0
        assert hom_norm(d, x) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_unit_sphere_agreement(any_dilation, rng):
    """On the weighted unit sphere every homogeneous norm equals one."""
    for _ in range(25):
        x = rng.standard_normal(any_dilation.dim)
        x = x / any_dilation.weighted_norm(x)
        assert hom_norm(any_dilation, x) == pytest.approx(1.0, abs=1e-12)


def test_zero_maps_to_zero(diag321):
    assert hom_norm(diag321, np.zeros(3)) == 0.0
    assert np.array_equal(phi(diag321, np.zeros(3)), np.zeros(3))
    assert np.array_equal(phi_inv(diag321, np.zeros(3)), np.zeros(3))


def test_extreme_radii(diag321):
    u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    for s in (-30.0, -5.0, 5.0, 30.0):
        x = diag321.apply(s, u)
        assert hom_norm(diag321, x) == pytest.approx(math.exp(s), rel=1e-9)


def test_hom_norm_many_matches_scalar(any_dilation, rng):
    xs = rng.standard_normal((60, any_dilation.dim)) * 5.0
    xs[7] = 0.0  # exercise the zero row
    many = hom_norm_many(any_dilation, xs)
    for row, r in zip(xs, many):
        assert r == pytest.approx(hom_norm(any_dilation, row), rel=1e-11, abs=1e-13)


def test_max_iter_budget_respected(diag321, monkeypatch):
    """The scalar and the batch solve both stop at the iteration budget."""
    monkeypatch.setattr(geometry, "_MAX_ITER", 1)
    x = np.array([3.0, -2.0, 1.0])
    for norm, arg in ((hom_norm, x), (hom_norm_many, x[None])):
        with pytest.raises(NoConvergenceError):
            norm(diag321, arg)


# One generator per evaluation route of the norm solve: the float loop (diag,
# identity weight), numpy on a weighted diag, the eig backend, and the expm
# backend (a Jordan block, which the eig backend cannot reconstruct).
WARM_START_DILATIONS = {
    "diag321": (GENERATORS["diag321"], None, "diag"),
    "diag321-weighted": (GENERATORS["diag321"],
                         [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]], "diag"),
    "rotate2": (GENERATORS["rotate2"], None, "eig"),
    "jordan2": (np.array([[1.0, 1.0], [0.0, 1.0]]), None, "expm"),
}


@pytest.mark.parametrize("label", sorted(WARM_START_DILATIONS))
def test_solve_warm_start_returns_cold_root(label, rng):
    """Any warm start, good, poor or invalid, ends at the cold-start root."""
    generator, weight, mode = WARM_START_DILATIONS[label]
    d = make_dilation(generator, weight)
    assert d._mode == mode
    for _ in range(20):
        x = rng.standard_normal(d.dim) * 10.0 ** rng.uniform(-3.0, 3.0)
        t = math.log(d.weighted_norm(x))
        s_cold, y_cold = _solve(d, x, None)
        lo, hi = sorted((t / d.eta_max, t / d.eta_min))
        starts = (s_cold, s_cold + 1e-9, s_cold - 1e-3, s_cold + 0.5, lo, hi,
                  lo - 1.0, hi + 1.0, math.nan, math.inf, -math.inf)
        for s0 in starts:
            s, y = _solve(d, x, s0)
            assert math.exp(s) == pytest.approx(math.exp(s_cold), rel=geometry._REL_TOL)
            assert abs(d.weighted_norm(np.asarray(y)) - 1.0) <= geometry._REL_TOL
            assert np.allclose(y, d.apply(-s, x), rtol=1e-13, atol=0.0)
            assert np.allclose(y, y_cold, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("label", sorted(WARM_START_DILATIONS))
def test_solve_warm_start_honours_max_iter(label, monkeypatch):
    generator, weight, _ = WARM_START_DILATIONS[label]
    d = make_dilation(generator, weight)
    x = np.array([3.0, -2.0, 1.0])[:d.dim]
    s_root, _ = _solve(d, x, None)
    monkeypatch.setattr(geometry, "_MAX_ITER", 1)
    # A start at the root converges at its first evaluation; any other start
    # needs a Newton step, which a budget of one iteration does not allow.
    assert _solve(d, x, s_root)[0] == s_root
    for s0 in (s_root + 1e-3, math.nan):
        with pytest.raises(NoConvergenceError):
            _solve(d, x, s0)


# Ceiling on the Newton evaluations of one block of 8192 columns, per dilation.
_EVALUATIONS_PER_BLOCK = {"diag321-weighted": 6, "jordan2": 6, "rotate2": 8}


@pytest.mark.parametrize("label", sorted(_EVALUATIONS_PER_BLOCK))
def test_batch_solve_evaluations_per_block(label, monkeypatch):
    """A block runs until its slowest column converges.  Started at t / rho, the
    Newton step from s = 0, one block of radii log-uniform in 1e-3..1e3 stays
    within its ceiling of unit_residual_each calls."""
    generator, weight, _ = WARM_START_DILATIONS[label]
    d = make_dilation(generator, weight)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((d.dim, geometry._BLOCK))
    rho = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), geometry._BLOCK))
    xs = d.apply_each(np.log(rho), g / d.weighted_norms(g)).T
    calls = []
    evaluate = Dilation.unit_residual_each
    monkeypatch.setattr(Dilation, "unit_residual_each",
                        lambda self, s, cols: calls.append(1) or evaluate(self, s, cols))
    assert np.allclose(hom_norm_many(d, xs), rho, rtol=1e-11, atol=0.0)
    assert 0 < len(calls) <= _EVALUATIONS_PER_BLOCK[label]


# ----------------------------------------------------------- non-finite input

_P = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
_FB = HomFeedback(gain=[[-1.0, -1.0, -1.0]], norm_power=1.0)
# A NaN row between a finite row and the origin.
_ROWS = np.array([[1.0, 1.0, 1.0], [math.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
NON_FINITE_CALLS = {
    "hom_norm_many": lambda d: hom_norm_many(d, _ROWS),
    "phi_many": lambda d: phi_many(d, _ROWS),
    "hom_norm": lambda d: hom_norm(d, [math.nan, 1.0, 0.0]),
    "hom_project": lambda d: hom_project(d, [1.0, -math.inf, 0.0]),
    "phi": lambda d: phi(d, [0.0, 0.0, math.nan]),
    "projection_index": lambda d: projection_index(FundamentalDomain(d, 1.0),
                                                   [math.inf, 1.0, 1.0]),
    "hom_quantize": lambda d: hom_quantize(d, _P, [math.inf, 0.0, 0.0]),
    "hom_feedback_eval": lambda d: hom_feedback_eval(_FB, d, [math.nan, 1.0, 1.0]),
    "to_spherical-nan": lambda d: to_spherical([math.nan, 1.0, 0.0]),
    "to_spherical-inf": lambda d: to_spherical([math.inf, 1.0, 0.0]),
    "log_quantize-inf": lambda d: log_quantize(_P, math.inf),
    "log_quantize-nan": lambda d: log_quantize(_P, math.nan),
    "phi_inv": lambda d: phi_inv(d, [math.nan, 1.0, 0.0]),
    "tilde_scale-state": lambda d: tilde_scale(d, 2.0, [math.inf, 0.0, 0.0]),
    "tilde_scale-scalar": lambda d: tilde_scale(d, math.nan, [1.0, 0.0, 0.0]),
    "matrix": lambda d: d.matrix(math.nan),
    "dilation_norm_bounds": lambda d: dilation_norm_bounds(d, math.inf),
    "distance_bound_alpha1-nan": lambda d: distance_bound_alpha1(d, math.nan),
    "distance_bound_alpha1-inf": lambda d: distance_bound_alpha1(d, math.inf),
    "angular_error_bound-nan": lambda d: angular_error_bound(math.nan, 3),
    "angular_error_bound-inf": lambda d: angular_error_bound(math.inf, 3),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
@pytest.mark.parametrize("label", ["diag321", "diag321-weighted"])
def test_non_finite_input_rejected(label, call):
    """NaN or infinite input fails at once with one error type: no silent 0,
    no numpy warning, no exhausted iteration budget."""
    gen, weight, _ = WARM_START_DILATIONS[label]
    with pytest.raises(NonFiniteInputError):
        NON_FINITE_CALLS[call](make_dilation(gen, weight))


# A finite state whose |x|_P overflows (entries above ~1e154 square to inf;
# under the first weight 1e400 - 0.9e400 + 0.25e400 gives inf - inf), with
# its exact homogeneous norm, or None where the test checks the defining
# equation instead.
_HUGE_STATES = {
    "weighted-identity": (np.eye(2), [[1.0, 0.9], [0.9, 1.0]], [1e200, -0.5e200],
                          math.sqrt(0.35) * 1e200),
    "diag321-1e160": (GENERATORS["diag321"], None, [1e160, 0.0, 0.0], 1e160 ** (1.0 / 3.0)),
    "diag321-1e300": (GENERATORS["diag321"], None, [1e300, 0.0, 0.0], 1e100),
    "diag321-weighted": (GENERATORS["diag321"], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]],
                         [1e200, -1e200, 1e100], None),
    "rotate2": (GENERATORS["rotate2"], None, [1e300, 1e300], None),
    "jordan2": (np.array([[1.0, 1.0], [0.0, 1.0]]), None, [0.0, 1e300], None),
}


# The identity weight's scalar |x|_P is a numpy dot product, which warns when
# the sum of squares overflows; the gate then handles the state.
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("label", sorted(_HUGE_STATES))
def test_norm_of_state_whose_weighted_norm_overflows(label):
    gen, weight, x, exact = _HUGE_STATES[label]
    d = make_dilation(gen, weight)
    x = np.array(x)
    r = hom_norm(d, x)
    many = hom_norm_many(d, np.array([x, np.ones(d.dim), np.zeros(d.dim)]))
    assert many[0] == pytest.approx(r, rel=1e-12)
    assert many[1] == pytest.approx(hom_norm(d, np.ones(d.dim)), rel=1e-12)
    assert many[2] == 0.0
    if exact is not None:
        assert r == pytest.approx(exact, rel=1e-12)
    # Defining equation |exp(-ln r G) x|_P = 1; ln r carries ~700 eps of error.
    assert d.weighted_norm(d.apply(-math.log(r), x)) == pytest.approx(1.0, rel=1e-10)
    z = phi(d, x)
    assert np.allclose(phi_many(d, x[None, :])[0], z, rtol=1e-12, atol=0.0)
    assert np.allclose(hom_project(d, x), z / r, rtol=1e-12, atol=1e-300)
    # For diag321-1e300, z = (1e100, 0, 0) and exp(ln|z|_P G) z overflows
    # before the division by |z|_P; phi_inv still recovers x.
    assert np.allclose(phi_inv(d, z), x, rtol=1e-10, atol=0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_norm_past_the_largest_float_raises():
    """The homogeneous norm of (1.5e308, 1.5e308) is 2.1e308 for G = I.  Under
    diag(3, 2, 1), exp(ln(1e150) G) overflows on the unit vectors that
    phi_inv and hom_quantize exponentiate at (0, 0, 1e150)."""
    d = make_dilation(np.eye(2))
    x = [1.5e308, 1.5e308]
    for call in (hom_norm, phi, hom_project):
        with pytest.raises(NormOverflowError):
            call(d, x)
    for call in (hom_norm_many, phi_many):
        with pytest.raises(NormOverflowError):
            call(d, np.array([x, [1.0, 1.0]]))
    d321 = make_dilation(GENERATORS["diag321"])
    p = QuantizerParams(nu=0.7, delta_angle=0.157, dim=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormOverflowError):
            phi_inv(d321, [0.0, 0.0, 1e150])
        with pytest.raises(NormOverflowError):
            hom_quantize(d321, p, [0.0, 0.0, 1e150])


# A nonzero state far below the old origin cut-off |x|_P <= 1e-12, with its
# exact homogeneous norm, or None where the test checks the defining equation
# instead.  The last two have ln|x|_d below the floor (their norms are 1e-1000
# and 1e-1100): they are the origin, decided at one evaluation at the floor.
_TINY_STATES = {
    "diag321-1e-13": (GENERATORS["diag321"], None, [1e-13, 0.0, 0.0], 1e-13 ** (1.0 / 3.0)),
    "diag321-2e-12": (GENERATORS["diag321"], None, [0.0, 0.0, 2e-12], 2e-12),
    "diag321-1e-200": (GENERATORS["diag321"], None, [1e-200, 0.0, 0.0], 1e-200 ** (1.0 / 3.0)),
    "diag321-weighted": (GENERATORS["diag321"], WARM_START_DILATIONS["diag321-weighted"][1],
                         [1e-160, -1e-170, 1e-180], None),
    "rotate2": (GENERATORS["rotate2"], None, [1e-100, 1e-100], None),
    "jordan2": (np.array([[1.0, 1.0], [0.0, 1.0]]), None, [0.0, 1e-100], None),
    "identity-0.01-origin": (0.01 * np.eye(2), None, [1e-10, 0.0], 0.0),
    "diag-1-0.01-origin": (np.diag([1.0, 0.01]), None, [0.0, 1e-11], 0.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label", sorted(_TINY_STATES))
def test_norm_of_tiny_state(label):
    """Tiny states are solved, not thresholded, with no numpy warning and no
    exhausted iteration budget; the scalar and the batch solve agree."""
    gen, weight, x, exact = _TINY_STATES[label]
    d = make_dilation(gen, weight)
    x = np.array(x)
    r = hom_norm(d, x)
    many = hom_norm_many(d, np.array([x, np.ones(d.dim), np.zeros(d.dim)]))
    assert many[0] == pytest.approx(r, rel=1e-12, abs=0.0)
    assert many[1] == pytest.approx(hom_norm(d, np.ones(d.dim)), rel=1e-12)
    assert many[2] == 0.0
    z = phi(d, x)
    assert np.allclose(phi_many(d, x[None, :])[0], z, rtol=1e-12, atol=0.0)
    if exact == 0.0:
        assert r == 0.0 and not z.any()
        with pytest.raises(ZeroVectorError):
            hom_project(d, x)
        return
    if exact is not None:
        assert r == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert d.weighted_norm(d.apply(-math.log(r), x)) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(hom_project(d, x), z / r, rtol=1e-12, atol=0.0)
    assert np.allclose(phi_inv(d, z), x, rtol=1e-10, atol=1e-10 * np.max(np.abs(x)))


# ------------------------------------------------- blocks of the batch solve

# Numpy on a weighted diag, the eig and the expm backend, each with a finite
# row whose norm passes the largest float, or None where no finite row has
# one: the eigenvalues of rotate2 have real part 1.5, so its norm grows like
# |x|**(2/3).  The weight is four times that of WARM_START_DILATIONS, so that
# (0, 0, 1.5e308) has norm 3e308.
_BLOCK_DILATIONS = {
    "diag321-weighted": (GENERATORS["diag321"],
                         4.0 * np.array(WARM_START_DILATIONS["diag321-weighted"][1]),
                         [0.0, 0.0, 1.5e308]),
    "rotate2": (GENERATORS["rotate2"], None, None),
    "jordan2": (np.array([[1.0, 1.0], [0.0, 1.0]]), None, [0.0, 1e306]),
}


def _edge_rows(d):
    """The origin, a row below the floor, and a row above it whose |x|_P is
    below the normal range."""
    u = np.eye(d.dim)[0] / d.weighted_norm(np.eye(d.dim)[0])
    floor = geometry._log_floor(d)
    below, tiny = d.apply(floor - 5.0, u), d.apply(floor + 20.0, u)
    assert hom_norm(d, below) == 0.0
    assert hom_norm(d, tiny) > 0.0 and d.weighted_norm(tiny) < geometry._NORM_MIN
    return np.zeros(d.dim), below, tiny


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [0, 1, 2, 63, 64, 65])
@pytest.mark.parametrize("label", sorted(_BLOCK_DILATIONS))
def test_blocks_of_the_batch_solve_are_invisible(label, r, monkeypatch):
    """Blocks of 64 columns change no bit of any *_many output on 3 * 64 + r
    rows, nor which rows raise; each edge row and each error row sits in the
    second block and in the last one, which holds the one-column tail at r = 1, 65."""
    gen, weight, huge = _BLOCK_DILATIONS[label]
    d = make_dilation(gen, weight)
    p = QuantizerParams(nu=0.7, delta_angle=0.157, dim=d.dim)
    n = 3 * 64 + r
    rng = np.random.default_rng([17, r])
    xs = rng.standard_normal((n, d.dim)) * np.exp(rng.uniform(-7.0, 7.0, (n, 1)))
    calls = (lambda a: hom_norm_many(d, a), lambda a: phi_many(d, a),
             lambda a: hom_quantize_many(d, p, a))
    for row in (None, *_edge_rows(d)):
        if row is not None:
            xs[64 + 5] = xs[-1] = row
        monkeypatch.setattr(geometry, "_BLOCK", n)
        whole = [call(xs).tobytes() for call in calls]
        monkeypatch.setattr(geometry, "_BLOCK", 64)
        assert [call(xs).tobytes() for call in calls] == whole
    for row, error, match in (([math.nan] * d.dim, NonFiniteInputError, "NaN or infinite"),
                              (huge, NormOverflowError, "exceeds the largest float")):
        if row is None:
            continue
        bad = xs.copy()
        bad[-1] = row
        for call in calls:
            with pytest.raises(error, match=match):
                call(bad)


# The float loop, numpy on a weighted diag, the eig and the expm backend, and
# the generators of the two origin cases, whose eta_min of 0.01 puts |x|_d far
# below |x|_P, so that their bracket reaches the floor early.  shear2 is
# left out: with eigenvalues 1.5 and 1, the float vector exp(sG) u loses its
# fast component past |s| ~ 30, so its norm is no longer e^s (an error of 95
# near the floor).
_COVARIANCE_DILATIONS = {
    **{label: (gen, weight) for label, (gen, weight, _) in WARM_START_DILATIONS.items()},
    "diag-1-0.01": (np.diag([1.0, 0.01]), None),
    "identity-0.01": (0.01 * np.eye(2), None),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label", sorted(_COVARIANCE_DILATIONS))
def test_dilation_covariance_down_to_the_floor(label):
    """ln hom_norm(exp(sG) u) = s from s = 5 down to one above the floor, in
    the scalar and the batch solve; across the floor phi sends exp(sG) u, and
    phi_inv a z with |z|_P = e^s, to the origin exactly when s is below it."""
    d = make_dilation(*_COVARIANCE_DILATIONS[label])
    floor = geometry._log_floor(d)
    u = np.ones(d.dim) / d.weighted_norm(np.ones(d.dim))
    s = np.linspace(floor + 1.0, 5.0, 100)
    xs = np.array([d.apply(v, u) for v in s])
    r = np.array([hom_norm(d, x) for x in xs])
    assert np.max(np.abs(np.log(r) - s)) <= 1e-12
    assert np.allclose(hom_norm_many(d, xs), r, rtol=1e-12, atol=0.0)
    for v in (floor - 0.5, floor + 0.5):
        assert (not phi(d, d.apply(v, u)).any()) == (v < floor)
        assert (not phi_inv(d, math.exp(v) * u).any()) == (v < floor)


@st.composite
def monotone_pairs(draw):
    """A strictly monotone 2-D dilation: generator ``[[a, b], [c, a + e]]``,
    with ``c`` zero or a perturbation that can sit one step from a Jordan
    block, and the identity or a random weight.  Near-defective eig pairs
    are drawn up to the backend's cond(V) <= 1e4, where apply's roundoff can
    exceed the solve's stopping tolerance: the solve then stops at the float
    nearest the root."""
    a = draw(st.floats(0.5, 3.0))
    b = draw(st.floats(-1.0, 1.0))
    e = draw(st.sampled_from([0.0, 1e-12, -1e-8, 0.3, -0.3]))
    c = draw(st.sampled_from([0.0, 1e-14, -1e-10, 1e-6, -1e-3, 0.1]))
    m = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))).reshape(2, 2)
    weight = draw(st.sampled_from([None, m @ m.T + 0.2 * np.eye(2)]))
    try:
        d = make_dilation([[a, b], [c, a + e]], weight)
    except NotMonotoneError:
        assume(False)
    return d


# |s| <= 20: past it the float vector exp(sG) u of a non-normal pair no longer
# has the norm e^s to the registry's 1e-7 (3.8e-6 measured at |s| = 30, as
# for shear2).
@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(d=monotone_pairs(), s=st.floats(-20.0, 20.0), angle=st.floats(0.0, 2.0 * math.pi))
def test_norm_covariance_on_random_monotone_pairs(d, s, angle):
    """The registry's norm.defining_equation and norm.homogeneity residuals,
    with their bounds, at exp(sG) u on random pairs, states down to 1e-26."""
    u = d.from_euclidean(np.array([math.cos(angle), math.sin(angle)]))
    x = d.apply(s, u)
    r = hom_norm(d, x)
    assert abs(d.weighted_norm(d.apply(-math.log(r), x)) - 1.0) <= 1e-12
    assert abs(r / math.exp(s) - 1.0) <= 1e-7
    assert hom_norm_many(d, x[None, :])[0] == pytest.approx(r, rel=1e-11, abs=0.0)


# Pairs whose apply is noisier than the solve's stopping tolerance near the
# root: a near-defective eig pair (cond(V) 9281) and a weighted expm pair.
_NOISY_APPLY = {
    "eig": ([[2.4795284391407373, -0.00861318976139791], [-1e-10, 2.4795284291407373]],
            [[1.1198585474599114, 0.7386818604715731], [0.7386818604715731, 1.0567083925039626]],
            [5.961164568802476e-07, -5.619565728564222e-07]),
    "expm": ([[2.4671225979972196, -0.33859437098924516], [0.0, 2.4671225979982196]],
             [[0.9263321351587053, 0.29182634849151284],
              [0.29182634849151284, 0.32544684672149127]],
             [-1.7675403459529428e33, 1.5719746128318998e32]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", sorted(_NOISY_APPLY))
def test_norm_solve_stops_where_no_float_is_nearer_the_root(mode):
    """Where no float lies strictly inside the bracket, the scalar and the
    batch solve return their iterate instead of NoConvergenceError."""
    generator, weight, x = _NOISY_APPLY[mode]
    d = make_dilation(generator, weight)
    assert d._mode == mode
    x = np.array(x)
    for r in (hom_norm(d, x), hom_norm_many(d, x[None])[0]):
        assert abs(d.weighted_norm(d.apply(-math.log(r), x)) - 1.0) <= 1e-12


# ----------------------------------------------------------------- projection

def test_projection_is_unit_and_scale_invariant(any_dilation, rng):
    for _ in range(25):
        x = rng.standard_normal(any_dilation.dim) * 3.0
        y = hom_project(any_dilation, x)
        assert any_dilation.weighted_norm(y) == pytest.approx(1.0, abs=1e-12)
        scaled = any_dilation.apply(1.3, x)
        assert np.allclose(hom_project(any_dilation, scaled), y, atol=1e-9)


def test_projection_rejects_origin(diag321):
    with pytest.raises(ZeroVectorError):
        hom_project(diag321, np.zeros(3))


# ----------------------------------------------------------- straightening map

def test_phi_preserves_norm(any_dilation, rng):
    for _ in range(25):
        x = rng.standard_normal(any_dilation.dim) * 4.0
        z = phi(any_dilation, x)
        assert any_dilation.weighted_norm(z) == pytest.approx(
            hom_norm(any_dilation, x), rel=1e-11)


def test_phi_roundtrip(any_dilation, rng):
    for _ in range(25):
        x = rng.standard_normal(any_dilation.dim) * 4.0
        back = phi_inv(any_dilation, phi(any_dilation, x))
        assert np.allclose(back, x, rtol=1e-9, atol=1e-12)
        forth = phi(any_dilation, phi_inv(any_dilation, x))
        assert np.allclose(forth, x, rtol=1e-9, atol=1e-12)


def test_phi_many_matches_scalar(diag321, rng):
    xs = rng.standard_normal((40, 3)) * 2.0
    xs[3] = 0.0
    many = phi_many(diag321, xs)
    for row, z in zip(xs, many):
        assert np.allclose(z, phi(diag321, row), rtol=1e-10, atol=1e-13)


def test_phi_example(diag321):
    # (8, 0, 0) has homogeneous norm 2 and projects to the first basis vector.
    z = phi(diag321, [8.0, 0.0, 0.0])
    assert np.allclose(z, [2.0, 0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------- scalar action

@pytest.mark.filterwarnings("error")
def test_tilde_scale(diag321):
    x = np.array([8.0, 0.0, 0.0])
    # e^(3 ln 2) * 8 = 64 on the weight-3 axis
    assert np.allclose(tilde_scale(diag321, 2.0, x), [64.0, 0.0, 0.0], rtol=1e-12)
    assert np.allclose(tilde_scale(diag321, -2.0, x), [-64.0, 0.0, 0.0], rtol=1e-12)
    assert np.array_equal(tilde_scale(diag321, 0.0, x), np.zeros(3))
    # Past the largest float: (1e900, 0, 0) and (1e450, 0, 0), with no numpy
    # warning and no inf or NaN entry.
    for lam, y in ((1e300, [1.0, 0.0, 0.0]), (1e50, [1e300, 0.0, 0.0])):
        with pytest.raises(NormOverflowError):
            tilde_scale(diag321, lam, y)


def test_tilde_scale_inverse_element(any_dilation, rng):
    x = rng.standard_normal(any_dilation.dim)
    neg = tilde_scale(any_dilation, -1.0, x)
    total = phi_inv(any_dilation, phi(any_dilation, x) + phi(any_dilation, neg))
    assert np.linalg.norm(total) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_tilde_scale_matches_phi_scaling(any_dilation, rng):
    for lam in (0.3, -1.7, 4.2):
        x = rng.standard_normal(any_dilation.dim)
        lhs = phi(any_dilation, tilde_scale(any_dilation, lam, x))
        rhs = lam * phi(any_dilation, x)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-11)


# ----------------------------------------------------------- fundamental domain

@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(min_value=1e-6, max_value=1e6),
    a=st.floats(min_value=0.05, max_value=2.5),
    rho=st.floats(min_value=0.25, max_value=4.0),
)
def test_projection_index_membership(r, a, rho):
    d = make_dilation(np.diag([3.0, 2.0, 1.0]))
    fd = FundamentalDomain(d, a, rho=rho)
    x = d.apply(math.log(r), np.array([0.0, 0.0, 1.0]))
    k = projection_index(fd, x)
    folded = hom_norm(d, x) * math.exp(-k * a)
    # A draw landing exactly on a cell edge may fold onto the boundary float,
    # so the half-open bracket is only required up to a sliver of roundoff.
    assert rho * (1.0 - 1e-13) <= folded < rho * math.exp(a) * (1.0 + 1e-13)


def test_projection_index_interior_cell(diag321):
    fd = FundamentalDomain(diag321, math.log(2.0), rho=1.0)
    # homogeneous norm 4 * e^0.1 sits strictly inside cell k = 2.
    u = np.array([0.3, -0.8, 0.52])
    u /= np.linalg.norm(u)
    x = diag321.apply(math.log(4.0) + 0.1, u)
    assert projection_index(fd, x) == 2


def test_projection_index_near_cell_edge(diag321):
    """A point whose radius lands on a cell edge folds into one of the two
    adjacent cells, and the membership inequality still holds exactly."""
    a = math.log(2.0)
    fd = FundamentalDomain(diag321, a, rho=1.0)
    x = np.array([64.0, 0.0, 0.0])  # homogeneous norm 4 up to solver roundoff
    k = projection_index(fd, x)
    assert k in (1, 2)
    folded = hom_norm(diag321, x) * math.exp(-k * a)
    assert 1.0 <= folded < math.exp(a)


def test_projection_index_rejects_origin(diag321):
    fd = FundamentalDomain(diag321, 1.0)
    with pytest.raises(ZeroVectorError):
        projection_index(fd, np.zeros(3))
    # |(1e-10, 0)|_d = 1e-1000 under 0.01 I is below its floor: the origin too,
    # not the cell of the smallest subnormal (index -746; the true one is -2303).
    with pytest.raises(ZeroVectorError):
        projection_index(FundamentalDomain(make_dilation(0.01 * np.eye(2)), 1.0), [1e-10, 0.0])


@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_projection_index_is_minus_the_radial_cell(label):
    """The fold of the locality property: off the cell edges, the radial cells
    of the batch norms are minus projection_index, row by row."""
    d = make_dilation(GENERATORS[label])
    p = QuantizerParams(nu=0.7, delta_angle=1.0, dim=d.dim)
    fd = FundamentalDomain(d, p.radial_step, rho=p.rho)
    xs = sample_states(d, SampleSpec(count=500, radius_range=(1e-3, 1e3), seed=3))
    levels = _radial_cells(p.nu, p.rho, hom_norm_many(d, xs))
    assert (-levels).tolist() == [projection_index(fd, x) for x in xs]


def test_fundamental_domain_validation(diag321):
    with pytest.raises(ValueError):
        FundamentalDomain(diag321, 1.0, rho=0.0)


# ------------------------------------------------------------- distance bounds

def test_alpha1_shape(diag321):
    assert distance_bound_alpha1(diag321, 0.0) == 0.0
    grid = np.linspace(0.0, 3.0, 40)
    vals = [distance_bound_alpha1(diag321, t) for t in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals[1:])
    with pytest.raises(NegativeInputError):
        distance_bound_alpha1(diag321, -0.1)


def test_alpha1_overflow_raises(diag321):
    """A bound past the largest float raises NormOverflowError, not a bare OverflowError."""
    with pytest.raises(NormOverflowError):
        distance_bound_alpha1(diag321, 1e200)


def test_alpha1_dominates_sampled_distances(diag321, rng):
    """The bound must cover the actual homogeneous distance growth."""
    for _ in range(200):
        x = rng.standard_normal(3) * 2.0
        y = rng.standard_normal(3) * 2.0
        px, py = phi(diag321, x), phi(diag321, y)
        denom = diag321.weighted_norm(px)
        theta = diag321.weighted_norm(py - px) / denom
        gap = phi_inv(diag321, py - px)  # y minus x in the homogeneous space
        bound = distance_bound_alpha1(diag321, theta) * (1.0 + 1e-9)
        assert (hom_norm(diag321, gap) / hom_norm(diag321, x)) ** 2 <= bound
        # the bound also covers the plain coordinate difference
        assert (hom_norm(diag321, y - x) / hom_norm(diag321, x)) ** 2 <= bound
