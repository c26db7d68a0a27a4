"""Sampled verification of homogeneity and sector properties.

Samplers draw directions uniformly from the weighted unit sphere (Gaussian
draw, weighted normalization) and place them at log-uniform homogeneous
radii, so every sample has a known homogeneous norm by construction.  All
randomness flows through a seeded generator: identical specs give identical
residuals bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dilation import Dilation, EIG_TOL
from .errors import NonPositiveFunctionError, NotPositiveDefiniteError, NotSymmetricError
from .geometry import FundamentalDomain, phi_many
from .quantizer import QuantizerParams, hom_quantize_many, to_spherical

_RESIDUAL_FLOOR = 1e-12
_FIELD_SHIFTS = (-2.0, -1.0, 1.0, 2.0)
# Draws the boundary-margin sampler may take: this many per requested state,
# and at least _MIN_DRAWS.  Beyond them the admissible share of the cells is
# too small to sample, and it raises.
_DRAWS_PER_STATE = 100
_MIN_DRAWS = 10_000


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
        if not (0 <= self.boundary_margin < math.inf):
            raise ValueError("boundary_margin must be nonnegative and finite")


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


def sample_states(d: Dilation, spec: SampleSpec) -> np.ndarray:
    """``count`` rows with log-uniform homogeneous norms in ``radius_range``."""
    rng = np.random.default_rng(spec.seed)
    u = sample_directions(d, rng, spec.count)
    lo, hi = spec.radius_range
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), spec.count))
    return d.apply_each(np.log(r), u.T).T


def check_field_homogeneity(field, d: Dilation, mu: float, spec: SampleSpec) -> float:
    """Worst relative residual of ``f(exp(sG)x) = exp(mu*s) exp(sG) f(x)`` over
    the shifts ``s`` of ``_FIELD_SHIFTS``."""
    xs = sample_states(d, spec)
    mats = [(s, d.matrix(s)) for s in _FIELD_SHIFTS]
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
    degeneracies where trailing angles become ill conditioned.  Raises
    ``ValueError`` where no state can pass: a margin of half a radial or
    angular cell, or one of 1 or more, whose pole floor excludes every direction, and
    where ``max(100 * count, 10_000)`` draws did not give ``count`` states."""
    margin = spec.boundary_margin
    if 2.0 * margin >= min(p.radial_step, p.delta_angle):
        raise ValueError(f"boundary_margin {margin} leaves no room in a cell of the quantizer")
    if margin >= 1.0:
        raise ValueError(f"boundary_margin {margin} excludes every direction")
    pole_floor = math.sqrt(margin) if margin > 0 else 0.0
    a = p.radial_step
    lo, hi = spec.radius_range
    cell_anchor = math.log(p.rho)
    out = []
    needed = spec.count
    drawn, limit = 0, max(_DRAWS_PER_STATE * spec.count, _MIN_DRAWS)
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


def check_quantizer_discrete_homogeneity(d: Dilation, p: QuantizerParams, spec: SampleSpec,
                                         step: float | None = None,
                                         shifts=range(-3, 4)) -> float:
    """Worst relative commutation residual of the quantizer with the discrete
    dilation group of the given parameter step (default ``-ln(nu)``)."""
    if step is None:
        step = p.radial_step
    rng = np.random.default_rng(spec.seed)
    xs = _sample_off_boundary(d, p, spec, rng)
    qx = hom_quantize_many(d, p, xs).T
    worst = 0.0
    for k in shifts:
        if k == 0:
            continue
        s = np.full(len(xs), k * step)
        lhs = hom_quantize_many(d, p, d.apply_each(s, xs.T).T).T
        rhs = d.apply_each(s, qx)
        res = d.weighted_norms(lhs - rhs) / np.maximum(d.weighted_norms(rhs), _RESIDUAL_FLOOR)
        worst = max(worst, float(np.max(res)))
    return worst


def check_hom_sector(phi_map, d: Dilation, sector: SectorSpec, spec: SampleSpec) -> float:
    """Sector condition in straightened coordinates.

    Evaluates ``<phi(f(x)) - K1 phi(x), phi(f(x)) - K2 phi(x)>_P`` at every
    sample and returns the worst (largest) value; the condition holds where
    it is at most zero.  ``phi_map`` maps the sample matrix (one state per
    row) to the matrix of their images, row by row.
    """
    xs = sample_states(d, spec)
    imgs = np.asarray(phi_map(xs), dtype=float)
    px = phi_many(d, xs)
    pf = phi_many(d, imgs)
    a = pf - px @ sector.k1.T
    b = pf - px @ sector.k2.T
    vals = np.einsum("ij,ij->i", a, (d.weight @ b.T).T)
    return float(np.max(vals))


def ratio_bounds_on_domain(f1, nu1: float, f2, nu2: float, fd: FundamentalDomain,
                           spec: SampleSpec) -> tuple[float, float]:
    """Sampled extremes of ``f2 / f1^(nu2/nu1)`` over the fundamental domain.

    ``f1`` must be positive at every sample; otherwise
    :class:`NonPositiveFunctionError` is raised.
    """
    if not (nu1 > 0 and nu2 > 0):
        raise ValueError("homogeneity degrees must be positive")
    zs = sample_states(fd.dilation, replace(spec, radius_range=(fd.rho, fd.rho * math.exp(fd.step))))
    v1 = np.array([float(f1(z)) for z in zs])
    if np.any(v1 <= 0):
        bad = zs[int(np.argmax(v1 <= 0))]
        raise NonPositiveFunctionError(f"f1 is not positive at sample {bad}")
    v2 = np.array([float(f2(z)) for z in zs])
    ratios = v2 / v1 ** (nu2 / nu1)
    return float(np.min(ratios)), float(np.max(ratios))
