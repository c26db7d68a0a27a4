"""Sampled verification helpers: samplers, homogeneity checks, sector checks."""

import math
import time

import numpy as np
import pytest

from homquant import (
    FundamentalDomain,
    NonPositiveFunctionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    QuantizerParams,
    hom_norm,
    hom_norm_many,
    make_dilation,
)
from homquant.checks import (
    SampleSpec,
    SectorSpec,
    check_field_homogeneity,
    check_hom_sector,
    check_quantizer_discrete_homogeneity,
    ratio_bounds_on_domain,
    sample_directions,
    sample_states,
)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(count=0)
    with pytest.raises(ValueError):
        SampleSpec(radius_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        SampleSpec(radius_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        SampleSpec(boundary_margin=-1e-3)
    with pytest.raises(ValueError):
        SampleSpec(boundary_margin=math.inf)


def test_sector_spec_validation():
    with pytest.raises(NotSymmetricError):
        SectorSpec(k1=[[0.0, 1.0], [0.0, 0.0]], k2=np.eye(2) * 3)
    with pytest.raises(NotPositiveDefiniteError):
        SectorSpec(k1=np.eye(2), k2=np.eye(2))  # zero spread


def test_sample_directions_on_sphere(any_dilation):
    rng = np.random.default_rng(5)
    u = sample_directions(any_dilation, rng, 200)
    norms = any_dilation.weighted_norms(u.T)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_sample_states_radius_range(any_dilation):
    spec = SampleSpec(count=400, radius_range=(0.5, 8.0), seed=3)
    xs = sample_states(any_dilation, spec)
    r = hom_norm_many(any_dilation, xs)
    assert np.all(r >= 0.5 * (1 - 1e-9)) and np.all(r <= 8.0 * (1 + 1e-9))
    # log-radius should actually spread over the range, not cluster
    assert np.std(np.log(r)) > 0.3


def test_sampling_is_deterministic(diag321):
    spec = SampleSpec(count=50, seed=123)
    assert np.array_equal(sample_states(diag321, spec), sample_states(diag321, spec))


# ---------------------------------------------------------- field homogeneity

def test_field_homogeneity_accepts_linear_identity(any_dilation):
    # f(x) = x commutes with every dilation at degree zero
    res = check_field_homogeneity(lambda x: x, any_dilation, 0.0,
                                  SampleSpec(count=100, seed=1))
    assert res <= 1e-10


def test_field_homogeneity_accepts_benchmark_drift(diag321):
    def drift(x):
        return np.array([x[1] * x[2] ** 2 + x[1] ** 2, x[0], x[1] + x[2] ** 2])

    res = check_field_homogeneity(drift, diag321, 1.0, SampleSpec(count=200, seed=2))
    assert res <= 1e-10


def test_field_homogeneity_rejects_wrong_degree(diag321):
    def drift(x):
        return np.array([x[1] * x[2] ** 2 + x[1] ** 2, x[0], x[1] + x[2] ** 2])

    res = check_field_homogeneity(drift, diag321, 2.0, SampleSpec(count=100, seed=2))
    assert res > 1e-2


def test_field_homogeneity_rejects_inhomogeneous_field(diag321):
    res = check_field_homogeneity(lambda x: x + 1.0, diag321, 0.0,
                                  SampleSpec(count=100, seed=4))
    assert res > 1e-2


# ----------------------------------------------------- quantizer commutation

def test_discrete_homogeneity_residual_small():
    d = make_dilation(np.eye(2))
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=2)
    res = check_quantizer_discrete_homogeneity(d, p, SampleSpec(count=100, seed=6))
    assert res <= 1e-7


@pytest.mark.parametrize("nu, delta_angle, margin", [
    (0.7, math.pi / 20, 0.2),  # twice the margin exceeds both cells
    (0.1, math.pi, 1.0),  # the cells fit, but the pole floor sqrt(margin) excludes every direction
])
def test_discrete_homogeneity_rejects_a_margin_no_state_passes(diag321, nu, delta_angle, margin):
    p = QuantizerParams(nu=nu, delta_angle=delta_angle, dim=3)
    with pytest.raises(ValueError, match="boundary_margin"):
        check_quantizer_discrete_homogeneity(diag321, p, SampleSpec(count=10, boundary_margin=margin))


def test_discrete_homogeneity_gives_up_on_a_margin_few_states_pass(diag321):
    """Margin 0.0785 is just inside half an angular cell (0.07854): about 2e-7 of
    the draws pass, so the sampler stops at its draw limit instead of running on."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="boundary_margin 0.0785 let 0 of 10 states pass"):
        check_quantizer_discrete_homogeneity(diag321, p, SampleSpec(count=10, boundary_margin=0.0785))
    assert time.perf_counter() - start < 2.0


def test_discrete_homogeneity_negative_control(diag321):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    res = check_quantizer_discrete_homogeneity(
        d=diag321, p=p, spec=SampleSpec(count=100, seed=6), step=1.1 * p.radial_step)
    assert res > 1e-3


# ------------------------------------------------------------- sector checks

def test_hom_sector_identity_inside(diag321):
    sector = SectorSpec(k1=0.5 * np.eye(3), k2=1.5 * np.eye(3))
    worst = check_hom_sector(lambda x: x, diag321, sector, SampleSpec(count=300, seed=8))
    assert worst <= 1e-10


def test_hom_sector_identity_outside(diag321):
    sector = SectorSpec(k1=1.5 * np.eye(3), k2=2.5 * np.eye(3))
    worst = check_hom_sector(lambda x: x, diag321, sector, SampleSpec(count=300, seed=8))
    assert worst > 1e-10


def test_hom_sector_scaled_map(diag321):
    """x -> dilation-scaled x with gain 2 in straightened coordinates."""
    from homquant import phi_inv, phi

    def double(x):
        return phi_inv(diag321, 2.0 * phi(diag321, x))

    inside = SectorSpec(k1=1.5 * np.eye(3), k2=2.5 * np.eye(3))
    worst = check_hom_sector(lambda xs: np.array([double(x) for x in xs]), diag321, inside,
                             SampleSpec(count=200, seed=8))
    assert worst <= 1e-10


# ------------------------------------------------------------- ratio bounds

def test_ratio_bounds_exact_power_relation(diag321):
    fd = FundamentalDomain(diag321, math.log(2.0), rho=1.0)
    f1 = lambda z: hom_norm(diag321, z)
    f2 = lambda z: hom_norm(diag321, z) ** 2
    lo, hi = ratio_bounds_on_domain(f1, 1.0, f2, 2.0, fd, SampleSpec(count=500, seed=10))
    assert lo == pytest.approx(1.0, rel=1e-9)
    assert hi == pytest.approx(1.0, rel=1e-9)


def test_ratio_bounds_direction_dependent(diag321):
    """A direction-dependent degree-2 numerator gives a nontrivial spread that
    does not depend on the radial placement of the annulus."""
    f1 = lambda z: hom_norm(diag321, z)

    def f2(z):
        r = hom_norm(diag321, z)
        u = diag321.apply(-math.log(r), z)
        return r ** 2 * (1.5 + u[0])

    spec = SampleSpec(count=800, seed=11)
    near = FundamentalDomain(diag321, math.log(2.0), rho=1.0)
    far = FundamentalDomain(diag321, math.log(2.0), rho=64.0)
    lo1, hi1 = ratio_bounds_on_domain(f1, 1.0, f2, 2.0, near, spec)
    lo2, hi2 = ratio_bounds_on_domain(f1, 1.0, f2, 2.0, far, spec)
    assert hi1 > lo1 + 0.1
    assert lo1 == pytest.approx(lo2, rel=1e-9)
    assert hi1 == pytest.approx(hi2, rel=1e-9)


def test_ratio_bounds_requires_positive_denominator(diag321):
    fd = FundamentalDomain(diag321, 1.0)
    with pytest.raises(NonPositiveFunctionError):
        ratio_bounds_on_domain(lambda z: -1.0, 1.0, lambda z: 1.0, 1.0, fd,
                               SampleSpec(count=50, seed=12))


def test_ratio_bounds_rejects_bad_degrees(diag321):
    fd = FundamentalDomain(diag321, 1.0)
    with pytest.raises(ValueError):
        ratio_bounds_on_domain(lambda z: 1.0, 0.0, lambda z: 1.0, 1.0, fd,
                               SampleSpec(count=50, seed=12))
