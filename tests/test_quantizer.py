"""Radial log-quantizer, spherical coordinates, and the composed state quantizer."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homquant import (
    DimensionTooSmallError,
    FundamentalDomain,
    HomquantError,
    NegativeInputError,
    NonFiniteInputError,
    NormOverflowError,
    NotOnSphereError,
    QuantizerParams,
    SampleSpec,
    UnsupportedDimensionError,
    angular_error_bound,
    epsilon_tilde,
    hom_norm,
    hom_norm_many,
    hom_project,
    hom_quantize,
    hom_quantize_many,
    log_quantize,
    make_dilation,
    phi,
    projection_index,
    sample_states,
    spherical_quantize,
    spherical_quantize_many,
    to_spherical,
    unit_from_angles,
)
from homquant import geometry, suites
from homquant.checks import _sample_off_boundary, sample_directions
from homquant.quantizer import _log_quantize_many
from homquant.geometry import _edge, _radial_cell, _radial_cells


def from_spherical(radius, angles):
    """Inverse of :func:`to_spherical`."""
    return radius * unit_from_angles(make_dilation(np.eye(len(angles) + 1)), angles)


# ------------------------------------------------------------------ parameters

def test_params_derived_quantities():
    p = QuantizerParams(nu=0.5, delta_angle=math.pi / 2, dim=2)
    assert p.delta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert p.radial_step == pytest.approx(math.log(2.0), rel=1e-15)
    assert p.xi0 == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert p.rho == pytest.approx(1.0, rel=1e-15)


def test_params_custom_anchor():
    p = QuantizerParams(nu=0.5, delta_angle=1.0, dim=2, xi0=7.0)
    assert p.xi0 == 7.0


@pytest.mark.parametrize("kwargs", [
    dict(nu=0.0, delta_angle=1.0, dim=2),
    dict(nu=1.0, delta_angle=1.0, dim=2),
    dict(nu=1.3, delta_angle=1.0, dim=2),
    dict(nu=0.5, delta_angle=0.0, dim=2),
    dict(nu=0.5, delta_angle=4.0, dim=2),
    dict(nu=0.5, delta_angle=1.0, dim=0),
    dict(nu=0.5, delta_angle=1.0, dim=2, xi0=-1.0),
    dict(nu=0.5, delta_angle=0.3, dim=3, xi0=math.inf),  # the cell search never ends
    dict(nu=0.5, delta_angle=0.3, dim=3, xi0=5e-324),  # subnormal rho breaks the sector bound
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        QuantizerParams(**kwargs)


# -------------------------------------------------------------- radial rounding

def test_log_quantize_examples():
    p = QuantizerParams(nu=0.5, delta_angle=1.0, dim=2)
    # level-0 cell is [1, 2) by construction of the default anchor
    assert log_quantize(p, 1.0) == (pytest.approx(4.0 / 3.0), 0)
    assert log_quantize(p, 1.999) == (pytest.approx(4.0 / 3.0), 0)
    assert log_quantize(p, 2.0) == (pytest.approx(8.0 / 3.0), -1)
    value, level = log_quantize(p, 0.1)
    assert level == 4 and value == pytest.approx(4.0 / 3.0 / 16.0)


def test_log_quantize_zero_and_negative():
    p = QuantizerParams(nu=0.5, delta_angle=1.0, dim=2)
    assert log_quantize(p, 0.0) == (0.0, 0)
    with pytest.raises(NegativeInputError):
        log_quantize(p, -1.0)


@pytest.mark.parametrize("nu, overflows", [(0.1, True), (0.3, False)])
def test_log_quantize_at_the_largest_float(nu, overflows):
    """The cell of the largest float has the grid value nu**i * xi0, past the largest
    float at nu = 0.1 and finite at nu = 0.3; the scalar and batch forms raise on
    the first and keep the sector bound on the second."""
    p = QuantizerParams(nu=nu, delta_angle=1.0, dim=3)
    z = sys.float_info.max
    if overflows:
        with pytest.raises(NormOverflowError):
            log_quantize(p, z)
        with pytest.raises(NormOverflowError):
            _log_quantize_many(p, np.array([1.0, z]))
    else:
        value, _ = log_quantize(p, z)
        assert abs(value - z) <= p.delta * z
        assert _log_quantize_many(p, np.array([1.0, z]))[1] == value


def test_log_quantize_sector_bound_zero_slack(rng):
    """|q(z) - z| <= delta * z with no tolerance at all."""
    p = QuantizerParams(nu=0.7, delta_angle=1.0, dim=3)
    z = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10_000))
    for zi in z:
        value, _ = log_quantize(p, float(zi))
        assert abs(value - zi) <= p.delta * zi


@settings(max_examples=300, deadline=None)
@given(
    nu=st.floats(min_value=0.05, max_value=0.95),
    z=st.floats(min_value=1e-8, max_value=1e8),
)
def test_log_quantize_sector_bound_generic(nu, z):
    p = QuantizerParams(nu=nu, delta_angle=1.0, dim=2)
    value, level = log_quantize(p, z)
    # half-ulp slack: cell membership is exact, the products here are not
    assert abs(value - z) <= p.delta * z * (1.0 + 1e-12)
    assert value == pytest.approx(nu ** level * p.xi0, rel=1e-12)


def test_log_quantize_idempotent(rng):
    p = QuantizerParams(nu=0.7, delta_angle=1.0, dim=3)
    for zi in np.exp(rng.uniform(-5, 5, 500)):
        value, level = log_quantize(p, float(zi))
        again, level2 = log_quantize(p, value)
        assert again == value and level2 == level


def test_log_quantize_monotone(rng):
    p = QuantizerParams(nu=0.6, delta_angle=1.0, dim=2)
    zs = np.sort(np.exp(rng.uniform(-4, 4, 400)))
    values = [log_quantize(p, float(z))[0] for z in zs]
    assert all(b >= a for a, b in zip(values, values[1:]))


def _cell_inputs(p):
    """Every finite computed edge ``rho*nu**i`` with ``|i| <= 600`` and its two
    neighbouring floats, and three extremes."""
    zs = [1e-320, 5e-324, 1.7e308]
    for i in range(-600, 601):
        e = _edge(p.nu, p.rho, i)
        zs += [math.nextafter(e, 0.0), e, math.nextafter(e, math.inf)]
    return [z for z in zs if 0.0 < z < math.inf]


@pytest.mark.parametrize("nu", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_radial_cells_are_the_fundamental_annuli(nu):
    """The level of log_quantize is minus the projection_index of the same
    norm on the identity dilation of the same group, and the scalar and vector
    cell lookups agree row by row, at every edge and at the float extremes."""
    p = QuantizerParams(nu=nu, delta_angle=1.0, dim=1)
    zs = _cell_inputs(p)
    levels = [log_quantize(p, z)[1] for z in zs]
    assert _radial_cells(p.nu, p.rho, np.array(zs)).tolist() == levels
    for z, i in zip(zs, levels):
        assert _edge(p.nu, p.rho, i) <= z < _edge(p.nu, p.rho, i - 1)
    # The group of step -ln(nu) has the ratio exp(ln(nu)), which is one ulp
    # off nu = 0.05; its quantizer is the one whose cells are its annuli.
    d = make_dilation(np.eye(1))
    fd = FundamentalDomain(d, p.radial_step, rho=p.rho)
    q = QuantizerParams(nu=math.exp(-fd.step), delta_angle=1.0, dim=1)
    # Below the floor of the norm solve z is the origin.
    xs = [np.array([z]) for z in _cell_inputs(q) if z >= math.exp(geometry._log_floor(d))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # |x|^2 overflows past 1e154
        r = np.array([hom_norm(d, x) for x in xs])
        ks = [projection_index(fd, x) for x in xs]
    assert ks == [-log_quantize(q, v)[1] for v in r]
    assert _radial_cells(q.nu, q.rho, r).tolist() == [_radial_cell(q.nu, q.rho, v) for v in r]


def test_quantizer_rejects_params_of_another_dimension(diag321):
    """Parameters for dim 2 under a 3-dim dilation would understate the
    sector radius (epsilon_tilde 0.361 instead of 0.437)."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=2)
    x, u = np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.0])
    calls = [lambda: hom_quantize(diag321, p, x), lambda: hom_quantize(diag321, p, 0 * x),
             lambda: hom_quantize_many(diag321, p, x[None]),
             lambda: spherical_quantize(diag321, p, u),
             lambda: spherical_quantize_many(diag321, p, u[None])]
    for call in calls:
        with pytest.raises(UnsupportedDimensionError) as info:
            call()
        assert isinstance(info.value, HomquantError) and isinstance(info.value, ValueError)


# -------------------------------------------------------- spherical coordinates

def test_spherical_planar_examples():
    for y, angle in [((1.0, 0.0), 0.0), ((0.0, 1.0), math.pi / 2),
                     ((-1.0, 0.0), math.pi), ((0.0, -1.0), 1.5 * math.pi)]:
        radius, angles = to_spherical(np.array(y))
        assert radius == pytest.approx(1.0)
        assert angles[0] == pytest.approx(angle)


def test_spherical_3d_example():
    radius, angles = to_spherical(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(angles, [math.pi / 2, math.pi / 2])
    assert np.allclose(from_spherical(radius, angles), [0.0, 0.0, 1.0], atol=1e-15)


def test_spherical_roundtrip(rng):
    for n in (2, 3, 4, 5, 7):
        for _ in range(40):
            y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            radius, angles = to_spherical(y)
            assert radius == pytest.approx(np.linalg.norm(y), rel=1e-13)
            assert np.all(angles[:-1] >= 0.0) and np.all(angles[:-1] <= math.pi)
            assert 0.0 <= angles[-1] < 2.0 * math.pi
            assert np.allclose(from_spherical(radius, angles), y, rtol=1e-12, atol=1e-13)


def test_spherical_degenerate_tail():
    radius, angles = to_spherical(np.array([2.0, 0.0, 0.0]))
    assert angles[0] == 0.0 and angles[1] == 0.0
    assert np.allclose(from_spherical(radius, angles), [2.0, 0.0, 0.0])


def test_spherical_rejects_scalars():
    with pytest.raises(DimensionTooSmallError):
        to_spherical(np.array([1.0]))


# ----------------------------------------------------------- sphere quantizer

def test_spherical_quantize_stays_on_sphere(rng):
    d = make_dilation(np.diag([3.0, 2.0, 1.0]))
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    for u in sample_directions(d, rng, 50):
        q = spherical_quantize(d, p, u)
        assert d.weighted_norm(q) == pytest.approx(1.0, abs=1e-12)


def test_spherical_quantize_rejects_off_sphere(diag321):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    with pytest.raises(NotOnSphereError):
        spherical_quantize(diag321, p, np.array([1.0, 1.0, 1.0]))


def test_spherical_quantize_rejects_non_finite(diag321):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    for bad in (math.nan, math.inf):
        with pytest.raises(NotOnSphereError):
            spherical_quantize(diag321, p, np.array([bad, 0.0, 0.0]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spherical_quantize_error_bound(n, rng):
    d = make_dilation(np.eye(n))
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=n)
    bound = angular_error_bound(p.delta_angle, p.dim)
    for u in sample_directions(d, rng, 400):
        err = np.linalg.norm(spherical_quantize(d, p, u) - u)
        assert err <= bound + 1e-10


def test_spherical_quantize_idempotent_when_pitch_divides_pi(rng):
    d = make_dilation(np.diag([3.0, 2.0, 1.0]))
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    for u in sample_directions(d, rng, 60):
        q = spherical_quantize(d, p, u)
        qq = spherical_quantize(d, p, q)
        assert np.allclose(qq, q, atol=1e-12)


def test_spherical_quantize_weighted(rng):
    """With a non-identity weight the rounding happens in straightened
    coordinates but the output still sits on the weighted unit sphere."""
    pw = np.array([[2.0, 0.4, 0.0], [0.4, 1.5, 0.0], [0.0, 0.0, 1.0]])
    d = make_dilation(np.diag([3.0, 2.0, 1.0]), weight=pw)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    bound = angular_error_bound(p.delta_angle, p.dim)
    for u in sample_directions(d, rng, 60):
        q = spherical_quantize(d, p, u)
        assert d.weighted_norm(q) == pytest.approx(1.0, abs=1e-12)
        assert d.weighted_norm(q - u) <= bound + 1e-10


# -------------------------------------------------------------- error bounds

def test_angular_error_bound_frozen_values():
    assert angular_error_bound(math.pi / 20, 3) == pytest.approx(
        0.2215740523214487, abs=1e-15)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    assert epsilon_tilde(p) == pytest.approx(0.43714594390758676, abs=1e-15)


def test_angular_error_bound_planar_case():
    # one angle rounded by at most delta/2: chord bound 2*sin(delta/2) covers it
    assert angular_error_bound(0.3, 2) == pytest.approx(2.0 * math.sin(0.15), rel=1e-12)


def test_angular_error_bound_monotone():
    grid = np.linspace(0.01, math.pi, 50)
    vals = [angular_error_bound(t, 3) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert angular_error_bound(1.0, 4) >= angular_error_bound(1.0, 3)
    assert angular_error_bound(0.0, 3) == 0.0


def test_angular_error_bound_validation():
    with pytest.raises(NegativeInputError):
        angular_error_bound(-0.1, 3)
    with pytest.raises(DimensionTooSmallError):
        angular_error_bound(0.1, 1)


# --------------------------------------------------------- composed quantizer

def test_hom_quantize_axis_example(diag321):
    """(15.625,0,0) has radius 2.5 inside the [2,4) cell, rounds to 8/3, and
    the axis direction is its own spherical seed."""
    p = QuantizerParams(nu=0.5, delta_angle=math.pi / 2, dim=3)
    q = hom_quantize(diag321, p, np.array([15.625, 0.0, 0.0]))
    assert np.allclose(q, [(8.0 / 3.0) ** 3, 0.0, 0.0], rtol=1e-12, atol=1e-12)


def test_hom_quantize_origin_fixed(diag321):
    p = QuantizerParams(nu=0.5, delta_angle=1.0, dim=3)
    assert np.array_equal(hom_quantize(diag321, p, np.zeros(3)), np.zeros(3))


def test_hom_quantize_norm_lands_on_grid(diag321, rng):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    for _ in range(200):
        x = diag321.apply(rng.uniform(-4, 4), rng.standard_normal(3))
        rq = hom_norm(diag321, hom_quantize(diag321, p, x))
        steps = (math.log(rq) - math.log(p.xi0)) / math.log(p.nu)
        assert abs(steps - round(steps)) * p.radial_step <= 1e-9


def test_hom_quantize_sector_bound(diag321, rng):
    """Straightened relative error stays within epsilon_tilde."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    eps = epsilon_tilde(p)
    for _ in range(300):
        x = diag321.apply(rng.uniform(-4, 4), rng.standard_normal(3))
        px = phi(diag321, x)
        pq = phi(diag321, hom_quantize(diag321, p, x))
        err = diag321.weighted_norm(pq - px)
        assert err <= eps * diag321.weighted_norm(px) * (1.0 + 1e-8)


def test_hom_quantize_commutes_with_discrete_dilation(diag321, rng):
    from homquant.checks import SampleSpec, check_quantizer_discrete_homogeneity
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    spec = SampleSpec(count=150, seed=9)
    assert check_quantizer_discrete_homogeneity(diag321, p, spec) <= 1e-7


def test_hom_quantize_does_not_commute_with_mismatched_step(diag321):
    from homquant.checks import SampleSpec, check_quantizer_discrete_homogeneity
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    spec = SampleSpec(count=150, seed=9)
    bad = check_quantizer_discrete_homogeneity(diag321, p, spec, step=0.9 * p.radial_step)
    assert bad > 1e-3


# -------------------------------------------------------------- batch engine

def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _registry_sample_sets(seed):
    """``(name, dilation, params, rows)`` for every state sample that the
    quantizer.* and sector.* registry properties quantize at ``seed``."""
    sets = []
    for label in ("identity2", "diag321"):
        d = suites._dilation(label)
        p = suites._quant_params(d.dim, None)
        xs = _sample_off_boundary(d, p, SampleSpec(count=1000, seed=seed),
                                  np.random.default_rng(seed))
        for k in range(-3, 4):
            shifted = d.apply_each(np.full(len(xs), k * p.radial_step), xs.T).T
            sets.append((f"discrete_homogeneity.{label}.shift{k}", d, p, shifted))
    d, p, xs = suites._off_boundary(seed, None, 500)
    sets += [("idempotence", d, p, xs),
             ("idempotence.outputs", d, p, hom_quantize_many(d, p, xs))]
    d, p, xs = suites._off_boundary(seed, None, 2000)
    levels = _radial_cells(p.nu, p.rho, hom_norm_many(d, xs))
    folded = d.apply_each(levels * p.radial_step, xs.T).T
    sets += [("locality", d, p, xs), ("locality.folded", d, p, folded)]
    for count in (1000, 10_000):
        d, xs = suites._samples("diag321", seed, count)
        sets.append((f"sample_states.{count}", d, p, xs))
    return sets


@pytest.mark.parametrize("seed", [1, 42])
def test_hom_quantize_many_rows_are_bitwise_hom_quantize(seed):
    """Every row equals the scalar quantizer bit for bit on the registry's samples."""
    bad = [name for name, d, p, xs in _registry_sample_sets(seed)
           if not _bits_equal(hom_quantize_many(d, p, xs),
                              np.array([hom_quantize(d, p, x) for x in xs]))]
    assert not bad


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_spherical_quantize_many_rows_are_bitwise_spherical_quantize(seed, dim):
    """The directions of the quantizer.spherical_error.n<dim> property."""
    d = make_dilation(np.eye(dim))
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=dim)
    u = sample_directions(d, np.random.default_rng(seed + dim), 10_000)
    assert _bits_equal(spherical_quantize_many(d, p, u),
                       np.array([spherical_quantize(d, p, ui) for ui in u]))


_OTHER_ROUTES = {
    "rotate2-eig": (np.array([[2.0, -1.5], [1.0, 1.0]]), None),
    "diag321-weighted": (np.diag([3.0, 2.0, 1.0]),
                         [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]]),
    "jordan2-expm": (np.array([[1.0, 1.0], [0.0, 1.0]]), None),
}


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("label", sorted(_OTHER_ROUTES))
def test_batch_quantizers_on_other_routes(label, seed):
    """The eig backend and a non-identity weight take other product orders
    than the scalar calls, so rows agree to 1e-14 relative; a different cell
    would move a row by at least a grid step.  The expm backend is bitwise."""
    d = make_dilation(*_OTHER_ROUTES[label])
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=d.dim)
    xs = sample_states(d, SampleSpec(count=2000, seed=seed))
    us = np.array([hom_project(d, x) for x in xs])
    for many, one in ((hom_quantize_many(d, p, xs), [hom_quantize(d, p, x) for x in xs]),
                      (spherical_quantize_many(d, p, us),
                       [spherical_quantize(d, p, u) for u in us])):
        one = np.array(one)
        if label.endswith("expm"):
            assert _bits_equal(many, one)
        scale = np.max(np.abs(one), axis=1)
        assert np.max(np.max(np.abs(many - one), axis=1) / scale) <= 1e-14


def test_batch_quantizers_edge_rows(diag321):
    """Origin rows, empty batches and each error path, with no numpy warning."""
    p = QuantizerParams(nu=0.7, delta_angle=0.157, dim=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        q = hom_quantize_many(diag321, p, xs)
        assert np.array_equal(q[[0, 2]], np.zeros((2, 3)))
        assert _bits_equal(q[1], hom_quantize(diag321, p, xs[1]))
        assert hom_quantize_many(diag321, p, np.empty((0, 3))).shape == (0, 3)
        assert spherical_quantize_many(diag321, p, np.empty((0, 3))).shape == (0, 3)
        with pytest.raises(NonFiniteInputError):
            hom_quantize_many(diag321, p, np.array([[1.0, 1.0, 1.0], [math.nan, 0.0, 0.0]]))
        with pytest.raises(NormOverflowError):
            hom_quantize_many(diag321, p, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1e150]]))
        with pytest.raises(NotOnSphereError):
            spherical_quantize_many(diag321, p, np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))


def test_underflowed_norm_quantizes_to_the_origin():
    """A nonzero state whose homogeneous norm is below the floor (1e-1000
    under 0.01*I) is the origin for both quantizers, as for hom_norm, with no
    numpy warning; a normal row beside it keeps its bits."""
    d = make_dilation(0.01 * np.eye(2))
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=2)
    xs = np.array([[1e-10, 0.0], [1.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hom_norm(d, xs[0]) == 0.0
        assert np.array_equal(hom_quantize(d, p, xs[0]), np.zeros(2))
        q = hom_quantize_many(d, p, xs)
        assert np.array_equal(q[0], np.zeros(2))
        assert _bits_equal(q[1], hom_quantize(d, p, xs[1]))
        assert _bits_equal(q[1], hom_quantize_many(d, p, xs[1:])[0])
