"""Sampled verification of homogeneity and sector properties.

Samplers draw directions uniformly from the weighted unit sphere (Gaussian
draw, weighted normalization) and place them at log-uniform homogeneous
radii, so every sample has a known homogeneous norm by construction.  All
randomness flows through a seeded generator: identical specs give identical
residuals bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilation import Dilation, EIG_TOL
from .errors import NonPositiveFunctionError, NotPositiveDefiniteError, NotSymmetricError
from .geometry import DEFAULT_CONFIG, FundamentalDomain, HomNormConfig, phi_many
from .quantizer import QuantizerParams, hom_quantize, to_spherical

_RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan: how many states, over which radii, from which seed.

    ``boundary_margin`` is the exclusion distance from quantizer cell
    boundaries used by the discrete-homogeneity checker, measured in
    log-radius for radial cells and in radians for angular cells.
    """

    count: int = 10_000
    radius_range: tuple[float, float] = (1e-2, 1e2)
    seed: int = 0
    boundary_margin: float = 1e-6

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        lo, hi = self.radius_range
        if not (0 < lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("radius_range must satisfy 0 < lo < hi")
        if not (0 <= self.boundary_margin):
            raise ValueError("boundary_margin must be nonnegative")


@dataclass(frozen=True)
class SectorSpec:
    """Pair of symmetric slope matrices with positive-definite spread."""

    k1: np.ndarray
    k2: np.ndarray

    def __post_init__(self):
        k1 = np.array(self.k1, dtype=float)
        k2 = np.array(self.k2, dtype=float)
        for name, m in (("k1", k1), ("k2", k2)):
            scale = float(np.max(np.abs(m))) if m.size else 0.0
            if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
                raise NotSymmetricError(f"{name} must be symmetric")
        spread = 0.5 * ((k2 - k1) + (k2 - k1).T)
        if float(np.linalg.eigvalsh(spread)[0]) <= EIG_TOL:
            raise NotPositiveDefiniteError("k2 - k1 must be positive definite")
        k1.setflags(write=False)
        k2.setflags(write=False)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)


def sample_directions(d: Dilation, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` rows on the weighted unit sphere."""
    g = rng.standard_normal((count, d.dim))
    norms = d.weighted_norms(g.T)
    return g / norms[:, None]


def sample_states(d: Dilation, spec: SampleSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """``count`` rows with log-uniform homogeneous norms in ``radius_range``."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    u = sample_directions(d, rng, spec.count)
    lo, hi = spec.radius_range
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), spec.count))
    return d.apply_each(np.log(r), u.T).T


def check_field_homogeneity(field, d: Dilation, mu: float, spec: SampleSpec,
                            shifts=(-2.0, -1.0, 1.0, 2.0)) -> float:
    """Worst relative residual of ``f(exp(sG)x) = exp(mu*s) exp(sG) f(x)``."""
    xs = sample_states(d, spec)
    mats = [(s, d.matrix(s)) for s in shifts]
    worst = 0.0
    for x in xs:
        fx = np.asarray(field(x), dtype=float)
        for s, ds in mats:
            ref = math.exp(mu * s) * (ds @ fx)
            res = d.weighted_norm(np.asarray(field(ds @ x), dtype=float) - ref)
            worst = max(worst, res / max(d.weighted_norm(ref), _RESIDUAL_FLOOR))
    return worst


def _sample_off_boundary(d: Dilation, p: QuantizerParams, spec: SampleSpec,
                         rng: np.random.Generator) -> np.ndarray:
    """States whose radius and angles stay ``boundary_margin`` away from every
    quantizer cell boundary, and whose direction stays away from the polar
    degeneracies where trailing angles become ill conditioned."""
    margin = spec.boundary_margin
    pole_floor = math.sqrt(margin) if margin > 0 else 0.0
    a = p.radial_step
    lo, hi = spec.radius_range
    cell_anchor = math.log(p.xi0 / (1.0 + p.delta))
    out = []
    needed = spec.count
    while needed > 0:
        batch = max(needed * 2, 64)
        u = sample_directions(d, rng, batch)
        r = np.exp(rng.uniform(math.log(lo), math.log(hi), batch))
        frac = ((np.log(r) - cell_anchor) / a) % 1.0
        keep = (np.minimum(frac, 1.0 - frac) * a) >= margin
        w = d.to_euclidean(u.T).T
        for j in range(batch):
            if not keep[j]:
                continue
            c = to_spherical(w[j])
            tails = np.sqrt(np.cumsum((w[j] ** 2)[::-1])[::-1])
            if np.any(tails[1:] < pole_floor):
                continue
            af = (np.asarray(c.angles) / p.delta_angle + 0.5) % 1.0
            if np.min(np.minimum(af, 1.0 - af)) * p.delta_angle < margin:
                continue
            out.append(d.apply(math.log(r[j]), u[j]))
            needed -= 1
            if needed == 0:
                break
    return np.array(out)


def check_quantizer_discrete_homogeneity(d: Dilation, p: QuantizerParams, spec: SampleSpec,
                                         step: float | None = None,
                                         shifts=range(-3, 4),
                                         cfg: HomNormConfig = DEFAULT_CONFIG) -> float:
    """Worst relative commutation residual of the quantizer with the discrete
    dilation group of the given parameter step (default ``-ln(nu)``)."""
    if step is None:
        step = p.radial_step
    rng = np.random.default_rng(spec.seed)
    xs = _sample_off_boundary(d, p, spec, rng)
    worst = 0.0
    for x in xs:
        qx = hom_quantize(d, p, x, cfg)
        for k in shifts:
            if k == 0:
                continue
            s = k * step
            lhs = hom_quantize(d, p, d.apply(s, x), cfg)
            rhs = d.apply(s, qx)
            res = d.weighted_norm(lhs - rhs)
            worst = max(worst, res / max(d.weighted_norm(rhs), _RESIDUAL_FLOOR))
    return worst


def check_hom_sector(phi_map, d: Dilation, sector: SectorSpec, spec: SampleSpec,
                     cfg: HomNormConfig = DEFAULT_CONFIG) -> tuple[bool, float]:
    """Sector condition in straightened coordinates.

    Evaluates ``<phi(f(x)) - K1 phi(x), phi(f(x)) - K2 phi(x)>_P`` at every
    sample and reports ``(all <= 1e-10, worst value)``.
    """
    xs = sample_states(d, spec)
    imgs = np.array([np.asarray(phi_map(x), dtype=float) for x in xs])
    px = phi_many(d, xs, cfg)
    pf = phi_many(d, imgs, cfg)
    a = pf - px @ sector.k1.T
    b = pf - px @ sector.k2.T
    vals = np.einsum("ij,ij->i", a, (d.weight @ b.T).T)
    worst = float(np.max(vals))
    return worst <= 1e-10, worst


def ratio_bounds_on_domain(f1, nu1: float, f2, nu2: float, fd: FundamentalDomain,
                           spec: SampleSpec) -> tuple[float, float]:
    """Sampled extremes of ``f2 / f1^(nu2/nu1)`` over the fundamental domain.

    ``f1`` must be positive at every sample; otherwise
    :class:`NonPositiveFunctionError` is raised.
    """
    if not (nu1 > 0 and nu2 > 0):
        raise ValueError("homogeneity degrees must be positive")
    d = fd.dilation
    a = fd.step
    rng = np.random.default_rng(spec.seed)
    u = sample_directions(d, rng, spec.count)
    r = np.exp(rng.uniform(math.log(fd.rho), math.log(fd.rho) + a, spec.count))
    zs = d.apply_each(np.log(r), u.T).T
    v1 = np.array([float(f1(z)) for z in zs])
    if np.any(v1 <= 0):
        bad = zs[int(np.argmax(v1 <= 0))]
        raise NonPositiveFunctionError(f"f1 is not positive at sample {bad}")
    v2 = np.array([float(f2(z)) for z in zs])
    ratios = v2 / v1 ** (nu2 / nu1)
    return float(np.min(ratios)), float(np.max(ratios))
