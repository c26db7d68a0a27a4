"""Sampled verification helpers: samplers, homogeneity checks, sector checks."""

import math
import time
from functools import partial

import numpy as np
import pytest

from homquant import (
    NotPositiveDefiniteError,
    NotSymmetricError,
    QuantizerParams,
    hom_norm_many,
    make_dilation,
)
from homquant import checks
from homquant.checks import (
    SampleSpec,
    SectorSpec,
    check_field_homogeneity,
    check_hom_sector,
    check_quantizer_discrete_homogeneity,
    sample_directions,
    sample_states,
)
from homquant.quantizer import to_spherical


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


def _sample_off_boundary_per_row(d, p, spec, rng, calls):
    """Reference for ``checks._sample_off_boundary``: the same draws, with the pole
    and angular-margin tests in numpy on each row; ``calls`` counts its ``to_spherical``."""
    margin = spec.boundary_margin
    pole_floor = math.sqrt(margin) if margin > 0 else 0.0
    a = p.radial_step
    lo, hi = spec.radius_range
    cell_anchor = math.log(p.rho)
    out = []
    needed = spec.count
    drawn, limit = 0, max(checks._DRAWS_PER_STATE * spec.count, checks._MIN_DRAWS)
    while needed > 0:
        if drawn >= limit:
            raise ValueError(f"boundary_margin {margin} let {spec.count - needed} of {spec.count} "
                             f"states pass in {drawn} draws")
        batch = max(needed * 2, 64)
        drawn += batch
        u = sample_directions(d, rng, batch)
        r = np.exp(rng.uniform(math.log(lo), math.log(hi), batch))
        frac = ((np.log(r) - cell_anchor) / a) % 1.0
        keep = (np.minimum(frac, 1.0 - frac) * a) >= margin
        w = d.to_euclidean(u.T).T
        for j in range(batch):
            if not keep[j]:
                continue
            calls.append(j)
            _, angles = to_spherical(w[j])
            tails = np.sqrt(np.cumsum((w[j] ** 2)[::-1])[::-1])
            if np.any(tails[1:] < pole_floor):
                continue
            af = (angles / p.delta_angle + 0.5) % 1.0
            if np.min(np.minimum(af, 1.0 - af)) * p.delta_angle < margin:
                continue
            out.append(d.apply(math.log(r[j]), u[j]))
            needed -= 1
            if needed == 0:
                break
    return np.array(out)


def _off_boundary_both(d, p, spec, monkeypatch):
    """The sampler's and the reference's rows, or ``ValueError`` messages, and their
    ``to_spherical`` calls."""
    calls, ref_calls = [], []
    monkeypatch.setattr(checks, "to_spherical", lambda y: calls.append(1) or to_spherical(y))
    results = []
    for sample in (checks._sample_off_boundary,
                   partial(_sample_off_boundary_per_row, calls=ref_calls)):
        try:
            results.append(sample(d, p, spec, np.random.default_rng(spec.seed)))
        except ValueError as exc:
            results.append(str(exc))
    return results, (len(calls), len(ref_calls))


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("count, margin", [(1, 0.0), (300, 1e-6), (200, 0.02)])
@pytest.mark.parametrize("nu", [0.5, 0.9])
def test_off_boundary_sampler_matches_the_per_row_reference(any_dilation, nu, count, margin,
                                                            seed, monkeypatch):
    """The batch pole test and the float angular test keep the reference's rows bit
    for bit, and its to_spherical calls: one per direction past the radial margin."""
    p = QuantizerParams(nu=nu, delta_angle=math.pi / 20, dim=any_dilation.dim)
    spec = SampleSpec(count=count, seed=seed, boundary_margin=margin)
    (rows, ref_rows), (calls, ref_calls) = _off_boundary_both(any_dilation, p, spec, monkeypatch)
    assert rows.shape == ref_rows.shape == (count, any_dilation.dim)
    assert rows.tobytes() == ref_rows.tobytes()
    assert calls == ref_calls >= count


def test_off_boundary_sampler_gives_up_as_the_reference_does(diag321, monkeypatch):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    spec = SampleSpec(count=10, seed=0, boundary_margin=0.0785)
    (msg, ref_msg), (calls, ref_calls) = _off_boundary_both(diag321, p, spec, monkeypatch)
    assert msg == ref_msg == "boundary_margin 0.0785 let 0 of 10 states pass in 10048 draws"
    assert calls == ref_calls > 0


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
