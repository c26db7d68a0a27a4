"""Registry of the sampled properties behind the ``check`` CLI subcommand and
the test suite.

``PROPERTIES`` lists every guarantee once as ``Property(name, bound, fn)``:
``fn(rng_seed, nu_override)`` draws its samples from generators seeded by
``rng_seed`` alone and returns the worst residual, which passes when it is at
most ``bound``.  The suite is the first dotted part of the name.  A property
that raises is reported as failed with an infinite residual instead of
crashing the run, so a corrupted fixture still produces a readable FAIL line
and a nonzero exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from . import checks, geometry, quantizer, simulation
from .dilation import dilation_norm_bounds, make_dilation
from .errors import HomquantError, UnknownSuiteError

_GENERATORS = {
    "identity2": np.eye(2),
    "diag321": np.diag([3.0, 2.0, 1.0]),
    "shear2": np.array([[1.5, 0.6], [0.0, 1.0]]),
    "rotate2": np.array([[2.0, -1.5], [1.0, 1.0]]),
}
_BENCH_FEEDBACK = simulation.HomFeedback(gain=[[-5.5055, -15.8387, -16.3807]], norm_power=4.0)
_BENCH_X0 = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class Property:
    name: str
    bound: float
    fn: Callable[[int, float | None], float]

    @property
    def suite(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    residual: float
    bound: float
    passed: bool


@cache
def _dilation(label: str):
    return make_dilation(_GENERATORS[label])


@cache
def _plant():
    return simulation.example_plant()


def _quant_params(dim, nu_override):
    nu = 0.7 if nu_override is None else nu_override
    return quantizer.QuantizerParams(nu=nu, delta_angle=math.pi / 20, dim=dim)


def _samples(label, rng_seed, count=1000):
    d = _dilation(label)
    return d, checks.sample_states(d, checks.SampleSpec(count=count, seed=rng_seed))


def _grid_offset(p, rq):
    """Log-distance of the homogeneous norm ``rq`` from the nearest radial level."""
    t = (math.log(rq) - math.log(p.xi0)) / math.log(p.nu)
    return abs(t - round(t)) * abs(math.log(p.nu))


def _group_law(label, rng_seed, nu_override):
    """exp(sG) exp(tG) = exp((s+t)G), and exp(sG) exp(-sG) = I per unit of sqrt(dim)."""
    d = _dilation(label)
    eye = np.eye(d.dim)
    worst = 0.0
    for s, t in np.random.default_rng(rng_seed).uniform(-3.0, 3.0, (250, 2)):
        rhs, ds = d.matrix(s + t), d.matrix(s)
        worst = max(worst, np.linalg.norm(ds @ d.matrix(t) - rhs) / np.linalg.norm(rhs),
                    np.linalg.norm(ds @ d.matrix(-s) - eye) / math.sqrt(d.dim))
    return worst


def _generator_commutes(label, rng_seed, nu_override):
    d = _dilation(label)
    g = d.generator
    ds = [d.matrix(s) for s in np.random.default_rng(rng_seed).uniform(-3.0, 3.0, 20)]
    return max(np.max(np.abs(g @ m - m @ g)) for m in ds)


def _gain_sandwich(label, rng_seed, nu_override):
    d = _dilation(label)
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(-3.0, 3.0)
        x = rng.standard_normal(d.dim)
        lo, hi = dilation_norm_bounds(d, s)
        nx = d.weighted_norm(x)
        nd = d.weighted_norm(d.apply(s, x))
        worst = max(worst, (lo * nx - nd) / nd, (nd - hi * nx) / nd)
    return worst


def _defining_equation(label, rng_seed, nu_override):
    d, xs = _samples(label, rng_seed)
    units = d.apply_each(-np.log(geometry.hom_norm_many(d, xs)), xs.T)
    return float(np.max(np.abs(d.weighted_norms(units) - 1.0)))


def _norm_homogeneity(label, rng_seed, nu_override):
    d, xs = _samples(label, rng_seed)
    r = geometry.hom_norm_many(d, xs)
    s = np.random.default_rng(rng_seed + 1).uniform(-3.0, 3.0, len(xs))
    shifted = geometry.hom_norm_many(d, d.apply_each(s, xs.T).T)
    return float(np.max(np.abs(shifted - np.exp(s) * r) / (np.exp(s) * r)))


def _euclidean_sandwich(label, rng_seed, nu_override):
    d, xs = _samples(label, rng_seed)
    r = geometry.hom_norm_many(d, xs)
    nx = d.weighted_norms(xs.T)
    lo = np.where(nx >= 1.0, r ** d.eta_min, r ** d.eta_max)
    hi = np.where(nx >= 1.0, r ** d.eta_max, r ** d.eta_min)
    return float(np.max(np.maximum(lo - nx, nx - hi) / nx))


def _straighten_roundtrip(label, rng_seed, nu_override):
    d, xs = _samples(label, rng_seed)
    back = np.array([geometry.phi_inv(d, z) for z in geometry.phi_many(d, xs)])
    return float(np.max(np.linalg.norm(back - xs, axis=1) / np.linalg.norm(xs, axis=1)))


def _analytic_value(rng_seed, nu_override):
    return abs(geometry.hom_norm(_dilation("diag321"), np.array([8.0, 0.0, 0.0])) - 2.0)


def _radial_sector(rng_seed, nu_override):
    p = _quant_params(2, nu_override)
    z = np.exp(np.random.default_rng(rng_seed).uniform(math.log(1e-3), math.log(1e3), 10_000))
    return max(abs(quantizer.log_quantize(p, float(zi))[0] - zi) - p.delta * zi for zi in z)


def _spherical_error(dim, rng_seed, nu_override):
    d = make_dilation(np.eye(dim))
    p = _quant_params(dim, nu_override)
    bound = quantizer.angular_error_bound(p.delta_angle, dim)
    u = checks.sample_directions(d, np.random.default_rng(rng_seed + dim), 10_000)
    err = d.weighted_norms((quantizer.spherical_quantize_many(d, p, u) - u).T)
    return float(np.max(err)) - bound


def _discrete_homogeneity(label, rng_seed, nu_override):
    d = _dilation(label)
    spec = checks.SampleSpec(count=1000, seed=rng_seed)
    return checks.check_quantizer_discrete_homogeneity(d, _quant_params(d.dim, nu_override), spec)


def _off_boundary(rng_seed, nu_override, count):
    d, p = _dilation("diag321"), _quant_params(3, nu_override)
    spec = checks.SampleSpec(count=count, seed=rng_seed)
    return d, p, checks._sample_off_boundary(d, p, spec, np.random.default_rng(rng_seed))


def _idempotence(rng_seed, nu_override):
    d, p, xs = _off_boundary(rng_seed, nu_override, 500)
    qs = quantizer.hom_quantize_many(d, p, xs).T
    again = quantizer.hom_quantize_many(d, p, qs.T).T
    return float(np.max(d.weighted_norms(again - qs) / np.maximum(d.weighted_norms(qs), 1e-12)))


def _output_norm_grid(rng_seed, nu_override):
    d, xs = _samples("diag321", rng_seed)
    p = _quant_params(3, nu_override)
    rqs = geometry.hom_norm_many(d, quantizer.hom_quantize_many(d, p, xs))
    return max(_grid_offset(p, rq) for rq in rqs)


def _identity_sector(rng_seed, nu_override):
    sector = checks.SectorSpec(k1=0.5 * np.eye(3), k2=1.5 * np.eye(3))
    spec = checks.SampleSpec(count=2000, seed=rng_seed)
    return checks.check_hom_sector(lambda x: x, _dilation("diag321"), sector, spec)


def _quantizer_sector(rng_seed, nu_override):
    d = _dilation("diag321")
    p = _quant_params(3, nu_override)
    eps = quantizer.epsilon_tilde(p)
    sector = checks.SectorSpec(k1=(1.0 - eps) * np.eye(3), k2=(1.0 + eps) * np.eye(3))
    spec = checks.SampleSpec(count=10_000, seed=rng_seed)
    return checks.check_hom_sector(partial(quantizer.hom_quantize_many, d, p), d, sector, spec)


def _straightened_error(d, p, xs):
    """Worst straightened relative error ``|phi(q(x)) - phi(x)|_P / |phi(x)|_P`` over the rows."""
    px = geometry.phi_many(d, xs)
    pq = geometry.phi_many(d, quantizer.hom_quantize_many(d, p, xs))
    return float(np.max(d.weighted_norms((pq - px).T) / d.weighted_norms(px.T)))


def _empirical_margin(rng_seed, nu_override):
    """Worst straightened relative error over the proven sector radius, minus one."""
    d, xs = _samples("diag321", rng_seed, 10_000)
    p = _quant_params(3, nu_override)
    return _straightened_error(d, p, xs) / quantizer.epsilon_tilde(p) - 1.0


def _fundamental_domain_locality(rng_seed, nu_override):
    """Folding every sample into the fundamental annulus ``[rho, rho/nu)``, a shift
    by its radial level, must preserve the straightened relative error of the quantizer."""
    d, p, xs = _off_boundary(rng_seed, nu_override, 2000)
    levels = quantizer._radial_cells(p.nu, p.rho, geometry.hom_norm_many(d, xs))
    folded = d.apply_each(levels * p.radial_step, xs.T).T
    return abs(_straightened_error(d, p, xs) - _straightened_error(d, p, folded))


def _simulate(quant, x0, h, t_end):
    return simulation.simulate(_plant(), _BENCH_FEEDBACK, quant, x0, h, t_end)


def _equilibrium_fixed(rng_seed, nu_override):
    return float(np.max(np.abs(_simulate(None, np.zeros(3), 1e-2, 0.5).states)))


def _step_halving(rng_seed, nu_override):
    a = _simulate(None, _BENCH_X0, 1e-3, 2.0).states[-1]
    b = _simulate(None, _BENCH_X0, 5e-4, 2.0).states[-1]
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _scaling_symmetry(rng_seed, nu_override):
    d, s, x0 = _plant().dilation, math.log(2.0), np.array(_BENCH_X0)
    base = _simulate(None, x0, 1e-3, 1.0)
    scaled = _simulate(None, d.apply(s, x0), 1e-3 * math.exp(-s), math.exp(-s) * 1.0)
    mapped = (d.matrix(s) @ base.states.T).T
    denom = np.maximum(np.linalg.norm(mapped, axis=1), 1e-12)
    return float(np.max(np.linalg.norm(scaled.states - mapped, axis=1) / denom))


def _quantized_norm_grid(rng_seed, nu_override):
    p = _quant_params(3, nu_override)
    traj = _simulate(p, _BENCH_X0, 1e-3, 2.0)
    rqs = geometry.hom_norm_many(_plant().dilation,
                                 traj.quantized_states[:: max(1, len(traj) // 200)])
    return max((_grid_offset(p, rq) for rq in rqs if rq != 0.0), default=0.0)


def _family(name, bound, fn, labels=tuple(_GENERATORS)):
    return tuple(Property(f"{name}.{label}", bound, partial(fn, label)) for label in labels)


PROPERTIES: tuple[Property, ...] = (
    *_family("dilation.group_law", 1e-9, _group_law),
    *_family("dilation.generator_commutes", 1e-10, _generator_commutes),
    *_family("dilation.gain_sandwich", 1e-9, _gain_sandwich),
    *_family("norm.defining_equation", 1e-12, _defining_equation),
    *_family("norm.homogeneity", 1e-7, _norm_homogeneity),
    *_family("norm.euclidean_sandwich", 1e-8, _euclidean_sandwich),
    *_family("norm.straighten_roundtrip", 1e-8, _straighten_roundtrip),
    Property("norm.analytic_value.diag321", 1e-12, _analytic_value),
    Property("quantizer.radial_sector", 0.0, _radial_sector),
    *(Property(f"quantizer.spherical_error.n{dim}", 1e-10, partial(_spherical_error, dim))
      for dim in (2, 3, 4)),
    *_family("quantizer.discrete_homogeneity", 1e-7, _discrete_homogeneity,
             ("identity2", "diag321")),
    Property("quantizer.idempotence.diag321", 1e-12, _idempotence),
    Property("quantizer.output_norm_grid.diag321", 1e-9, _output_norm_grid),
    Property("sector.identity_map.diag321", 1e-10, _identity_sector),
    Property("sector.quantizer_bound.diag321", 1e-10, _quantizer_sector),
    Property("sector.empirical_margin.diag321", 1e-8, _empirical_margin),
    Property("sector.fundamental_domain_locality.diag321", 1e-7, _fundamental_domain_locality),
    Property("sim.equilibrium_fixed", 0.0, _equilibrium_fixed),
    Property("sim.step_halving", 1e-6, _step_halving),
    Property("sim.scaling_symmetry", 1e-4, _scaling_symmetry),
    Property("sim.quantized_norm_grid", 1e-9, _quantized_norm_grid),
)
SUITE_NAMES = tuple(dict.fromkeys(p.suite for p in PROPERTIES))


def run_suite(name: str, rng_seed: int = 42,
              nu_override: float | None = None) -> list[PropertyResult]:
    """Evaluate every property of the named suite, in registry order."""
    if name not in SUITE_NAMES:
        raise UnknownSuiteError(f"unknown suite {name!r}; expected one of "
                                f"{', '.join(SUITE_NAMES)}")
    out = []
    for prop in (p for p in PROPERTIES if p.suite == name):
        try:
            residual = float(prop.fn(rng_seed, nu_override))
        except (HomquantError, ValueError, ArithmeticError):
            residual = math.inf
        out.append(PropertyResult(prop.name, residual, prop.bound, residual <= prop.bound))
    return out
