"""Named property suites behind the ``check`` CLI subcommand.

Each suite evaluates a family of sampled invariants against fixed reference
dilations and reports one ``(name, worst_residual, bound, passed)`` record
per property.  A property that raises is reported as failed with an infinite
residual instead of crashing the run, so a corrupted fixture still produces a
readable FAIL line and a nonzero exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks, geometry, quantizer, simulation
from .dilation import dilate, dilation_norm_bounds, make_dilation
from .errors import HomquantError
from .geometry import FundamentalDomain

SUITE_NAMES = ("dilation", "norm", "quantizer", "sector", "sim")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    residual: float
    bound: float
    passed: bool


def _reference_dilations():
    return {
        "identity2": make_dilation(np.eye(2)),
        "diag321": make_dilation(np.diag([3.0, 2.0, 1.0])),
        "shear2": make_dilation([[1.5, 0.6], [0.0, 1.0]]),
        "rotate2": make_dilation([[2.0, -1.5], [1.0, 1.0]]),
    }


def _collect(out, name, bound, fn):
    try:
        residual = float(fn())
        out.append(PropertyResult(name, residual, bound, residual <= bound))
    except (HomquantError, ValueError, ArithmeticError):
        out.append(PropertyResult(name, math.inf, bound, False))


def _quant_params(dim, nu_override):
    nu = 0.7 if nu_override is None else nu_override
    return quantizer.QuantizerParams(nu=nu, delta_angle=math.pi / 20, dim=dim)


def _suite_dilation(rng_seed, nu_override):
    out = []
    for label, d in _reference_dilations().items():
        rng = np.random.default_rng(rng_seed)

        def group_law(d=d, rng=rng):
            worst = 0.0
            for _ in range(100):
                s, t = rng.uniform(-3.0, 3.0, 2)
                lhs = dilate(d, s) @ dilate(d, t)
                rhs = dilate(d, s + t)
                worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
            return worst

        def commutation(d=d, rng=rng):
            g = d.generator
            worst = 0.0
            for s in rng.uniform(-3.0, 3.0, 20):
                ds = dilate(d, s)
                worst = max(worst, np.max(np.abs(g @ ds - ds @ g)))
            return worst

        def gain_sandwich(d=d, rng=rng):
            worst = 0.0
            for _ in range(1000):
                s = rng.uniform(-3.0, 3.0)
                x = rng.standard_normal(d.dim)
                lo, hi = dilation_norm_bounds(d, s)
                nx = d.weighted_norm(x)
                nd = d.weighted_norm(d.apply(s, x))
                worst = max(worst, (lo * nx - nd) / nd, (nd - hi * nx) / nd)
            return worst

        _collect(out, f"dilation.group_law.{label}", 1e-9, group_law)
        _collect(out, f"dilation.generator_commutes.{label}", 1e-10, commutation)
        _collect(out, f"dilation.gain_sandwich.{label}", 1e-9, gain_sandwich)
    return out


def _suite_norm(rng_seed, nu_override):
    out = []
    spec = checks.SampleSpec(count=1000, seed=rng_seed)
    for label, d in _reference_dilations().items():
        xs = checks.sample_states(d, spec)
        rng = np.random.default_rng(rng_seed + 1)

        def defining_equation(d=d, xs=xs):
            r = geometry.hom_norm_many(d, xs)
            units = d.apply_each(-np.log(r), xs.T)
            return float(np.max(np.abs(d.weighted_norms(units) - 1.0)))

        def norm_homogeneity(d=d, xs=xs, rng=rng):
            r = geometry.hom_norm_many(d, xs)
            s = rng.uniform(-3.0, 3.0, len(xs))
            shifted = geometry.hom_norm_many(d, d.apply_each(s, xs.T).T)
            return float(np.max(np.abs(shifted - np.exp(s) * r) / (np.exp(s) * r)))

        def euclidean_sandwich(d=d, xs=xs):
            r = geometry.hom_norm_many(d, xs)
            nx = d.weighted_norms(xs.T)
            lo = np.where(nx >= 1.0, r ** d.eta_min, r ** d.eta_max)
            hi = np.where(nx >= 1.0, r ** d.eta_max, r ** d.eta_min)
            return float(np.max(np.maximum(lo - nx, nx - hi) / nx))

        def straighten_roundtrip(d=d, xs=xs):
            px = geometry.phi_many(d, xs)
            back = np.array([geometry.phi_inv(d, z) for z in px])
            scale = np.linalg.norm(xs, axis=1)
            return float(np.max(np.linalg.norm(back - xs, axis=1) / scale))

        _collect(out, f"norm.defining_equation.{label}", 1e-12, defining_equation)
        _collect(out, f"norm.homogeneity.{label}", 1e-7, norm_homogeneity)
        _collect(out, f"norm.euclidean_sandwich.{label}", 1e-8, euclidean_sandwich)
        _collect(out, f"norm.straighten_roundtrip.{label}", 1e-8, straighten_roundtrip)

    def analytic_value():
        d = make_dilation(np.diag([3.0, 2.0, 1.0]))
        return abs(geometry.hom_norm(d, np.array([8.0, 0.0, 0.0])) - 2.0)

    _collect(out, "norm.analytic_value.diag321", 1e-12, analytic_value)
    return out


def _suite_quantizer(rng_seed, nu_override):
    out = []
    rng = np.random.default_rng(rng_seed)

    def radial_sector():
        p = _quant_params(2, nu_override)
        z = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10_000))
        worst = -math.inf
        for zi in z:
            v, _ = quantizer.log_quantize(p, float(zi))
            worst = max(worst, abs(v - zi) - p.delta * zi)
        return worst

    _collect(out, "quantizer.radial_sector", 0.0, radial_sector)

    for dim in (2, 3, 4):
        def spherical_error(dim=dim):
            d = make_dilation(np.eye(dim))
            p = _quant_params(dim, nu_override)
            bound = quantizer.beta(p)
            u = checks.sample_directions(d, np.random.default_rng(rng_seed + dim), 10_000)
            worst = -math.inf
            for ui in u:
                err = d.weighted_norm(quantizer.spherical_quantize(d, p, ui) - ui)
                worst = max(worst, err - bound)
            return worst

        _collect(out, f"quantizer.spherical_error.n{dim}", 1e-10, spherical_error)

    for label, gen in (("identity2", np.eye(2)), ("diag321", np.diag([3.0, 2.0, 1.0]))):
        def discrete_homogeneity(gen=gen):
            d = make_dilation(gen)
            p = _quant_params(d.dim, nu_override)
            spec = checks.SampleSpec(count=1000, seed=rng_seed)
            return checks.check_quantizer_discrete_homogeneity(d, p, spec)

        _collect(out, f"quantizer.discrete_homogeneity.{label}", 1e-7, discrete_homogeneity)

    def idempotence():
        d = make_dilation(np.diag([3.0, 2.0, 1.0]))
        p = _quant_params(3, nu_override)
        spec = checks.SampleSpec(count=500, seed=rng_seed)
        xs = checks._sample_off_boundary(d, p, spec, np.random.default_rng(rng_seed))
        worst = 0.0
        for x in xs:
            qx = quantizer.hom_quantize(d, p, x)
            qqx = quantizer.hom_quantize(d, p, qx)
            worst = max(worst, d.weighted_norm(qqx - qx) / max(d.weighted_norm(qx), 1e-12))
        return worst

    _collect(out, "quantizer.idempotence.diag321", 1e-12, idempotence)

    def norm_grid():
        d = make_dilation(np.diag([3.0, 2.0, 1.0]))
        p = _quant_params(3, nu_override)
        spec = checks.SampleSpec(count=1000, seed=rng_seed)
        xs = checks.sample_states(d, spec)
        worst = 0.0
        for x in xs:
            rq = geometry.hom_norm(d, quantizer.hom_quantize(d, p, x))
            t = (math.log(rq) - math.log(p.xi0)) / math.log(p.nu)
            worst = max(worst, abs(t - round(t)) * abs(math.log(p.nu)))
        return worst

    _collect(out, "quantizer.output_norm_grid.diag321", 1e-9, norm_grid)
    return out


def _suite_sector(rng_seed, nu_override):
    out = []

    def identity_sector():
        d = make_dilation(np.diag([3.0, 2.0, 1.0]))
        sector = checks.SectorSpec(k1=0.5 * np.eye(3), k2=1.5 * np.eye(3))
        spec = checks.SampleSpec(count=2000, seed=rng_seed)
        ok, worst = checks.check_hom_sector(lambda x: x, d, sector, spec)
        return worst

    _collect(out, "sector.identity_map.diag321", 1e-10, identity_sector)

    def quantizer_sector():
        d = make_dilation(np.diag([3.0, 2.0, 1.0]))
        p = _quant_params(3, nu_override)
        eps = quantizer.epsilon_tilde(p)
        sector = checks.SectorSpec(k1=(1.0 - eps) * np.eye(3), k2=(1.0 + eps) * np.eye(3))
        spec = checks.SampleSpec(count=10_000, seed=rng_seed)
        ok, worst = checks.check_hom_sector(
            lambda x: quantizer.hom_quantize(d, p, x), d, sector, spec)
        return worst

    _collect(out, "sector.quantizer_bound.diag321", 1e-10, quantizer_sector)

    def sector_margin():
        # Worst straightened relative error vs the proven sector radius.
        d = make_dilation(np.diag([3.0, 2.0, 1.0]))
        p = _quant_params(3, nu_override)
        spec = checks.SampleSpec(count=10_000, seed=rng_seed)
        xs = checks.sample_states(d, spec)
        qs = np.array([quantizer.hom_quantize(d, p, x) for x in xs])
        px = geometry.phi_many(d, xs)
        pq = geometry.phi_many(d, qs)
        ratios = d.weighted_norms((pq - px).T) / d.weighted_norms(px.T)
        return float(np.max(ratios)) - quantizer.epsilon_tilde(p)

    _collect(out, "sector.empirical_margin.diag321", 1e-8, sector_margin)

    def locality():
        # Folding every sample into the fundamental annulus must preserve the
        # straightened relative error of the quantizer.
        d = make_dilation(np.diag([3.0, 2.0, 1.0]))
        p = _quant_params(3, nu_override)
        spec = checks.SampleSpec(count=2000, seed=rng_seed)
        rng = np.random.default_rng(rng_seed)
        xs = checks._sample_off_boundary(d, p, spec, rng)
        fd = FundamentalDomain(d, p.radial_step, rho=p.xi0 / (1.0 + p.delta))

        def ratio(x):
            q = quantizer.hom_quantize(d, p, x)
            px = geometry.phi(d, x)
            pq = geometry.phi(d, q)
            return d.weighted_norm(pq - px) / d.weighted_norm(px)

        global_max = 0.0
        folded_max = 0.0
        for x in xs:
            global_max = max(global_max, ratio(x))
            k = geometry.projection_index(fd, x)
            folded_max = max(folded_max, ratio(d.apply(-k * fd.step, x)))
        return abs(global_max - folded_max)

    _collect(out, "sector.fundamental_domain_locality.diag321", 1e-7, locality)
    return out


def _suite_sim(rng_seed, nu_override):
    out = []
    plant = simulation.example_plant()
    fb = simulation.HomFeedback(gain=[[-5.5055, -15.8387, -16.3807]], norm_power=4.0)
    x0 = np.array([1.0, 1.0, 1.0])

    def equilibrium():
        traj = simulation.simulate(plant, fb, None, np.zeros(3), 1e-2, 0.5)
        return float(np.max(np.abs(traj.states)))

    _collect(out, "sim.equilibrium_fixed", 0.0, equilibrium)

    def step_halving():
        a = simulation.simulate(plant, fb, None, x0, 1e-3, 2.0)
        b = simulation.simulate(plant, fb, None, x0, 5e-4, 2.0)
        return float(np.linalg.norm(a.states[-1] - b.states[-1]) / np.linalg.norm(b.states[-1]))

    _collect(out, "sim.step_halving", 1e-6, step_halving)

    def scaling_symmetry():
        s = math.log(2.0)
        base = simulation.simulate(plant, fb, None, x0, 1e-3, 1.0)
        scaled_x0 = plant.dilation.apply(s, x0)
        scaled = simulation.simulate(plant, fb, None, scaled_x0,
                                     1e-3 * math.exp(-s), math.exp(-s) * 1.0)
        mapped = (plant.dilation.matrix(s) @ base.states.T).T
        denom = np.maximum(np.linalg.norm(mapped, axis=1), 1e-12)
        return float(np.max(np.linalg.norm(scaled.states - mapped, axis=1) / denom))

    _collect(out, "sim.scaling_symmetry", 1e-4, scaling_symmetry)

    def quantized_norm_grid():
        p = _quant_params(3, nu_override)
        traj = simulation.simulate(plant, fb, p, x0, 1e-3, 2.0)
        worst = 0.0
        for row in traj.quantized_states[:: max(1, len(traj) // 200)]:
            rq = geometry.hom_norm(plant.dilation, row)
            if rq == 0.0:
                continue
            t = (math.log(rq) - math.log(p.xi0)) / math.log(p.nu)
            worst = max(worst, abs(t - round(t)) * abs(math.log(p.nu)))
        return worst

    _collect(out, "sim.quantized_norm_grid", 1e-9, quantized_norm_grid)
    return out


_SUITE_FNS = {
    "dilation": _suite_dilation,
    "norm": _suite_norm,
    "quantizer": _suite_quantizer,
    "sector": _suite_sector,
    "sim": _suite_sim,
}


def run_suite(name: str, rng_seed: int = 42, nu_override: float | None = None) -> list[PropertyResult]:
    """Run one named suite and return its property records."""
    return _SUITE_FNS[name](rng_seed, nu_override)
