"""Logarithmic radial quantization, n-sphere angle coordinates, and the
dilation-aware state quantizer composed from them.

The radial quantizer maps ``z > 0`` to the grid value ``nu^i * xi0`` whose
half-open cell ``[nu^i*xi0/(1+delta), nu^i*xi0/(1-delta))`` contains ``z``,
with ``delta = (1-nu)/(1+nu)``; the cells tile ``(0, inf)`` exactly and give
the sector bound ``|q(z) - z| <= delta*z``.  The spherical quantizer rounds
every angle coordinate of a weighted-unit vector to a uniform grid of pitch
``delta_angle``.  The composed state quantizer rounds the homogeneous norm
radially and the unit projection spherically, then rebuilds the state with
the dilation, so it commutes with dilations whose parameter is an integer
multiple of ``-ln(nu)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilation import Dilation
from .errors import (DimensionTooSmallError, NegativeInputError, NonFiniteInputError,
                     NotOnSphereError)
from .geometry import DEFAULT_CONFIG, HomNormConfig, _solve_nonzero

# Admissible distance of a candidate argument from the weighted unit sphere.
_SPHERE_TOL = 1e-8


@dataclass(frozen=True)
class QuantizerParams:
    """Parameters of the composed quantizer.

    ``nu`` is the radial contraction ratio, ``delta_angle`` the angular grid
    pitch, ``dim`` the state dimension and ``xi0`` the radial anchor.  The
    default anchor ``2/(1+nu)`` aligns the level-0 radial cell with the
    annulus ``[1, 1/nu)``.
    """

    nu: float
    delta_angle: float
    dim: int
    xi0: float | None = None

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if not (0.0 < self.delta_angle <= math.pi):
            raise ValueError(f"delta_angle must lie in (0, pi], got {self.delta_angle}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.xi0 is None:
            object.__setattr__(self, "xi0", 2.0 / (1.0 + self.nu))
        elif not (self.xi0 > 0):
            raise ValueError(f"xi0 must be positive, got {self.xi0}")

    @property
    def delta(self) -> float:
        """Radial sector slope ``(1-nu)/(1+nu)``; derived, never stored."""
        return (1.0 - self.nu) / (1.0 + self.nu)

    @property
    def radial_step(self) -> float:
        """Dilation parameter step ``-ln(nu)`` preserved by the quantizer."""
        return -math.log(self.nu)


@dataclass(frozen=True)
class SphericalCoords:
    """Radius plus ``n-1`` angles; the first ``n-2`` lie in ``[0, pi]``,
    the last in ``[0, 2*pi)``."""

    radius: float
    angles: np.ndarray

    def __post_init__(self):
        if not (self.radius >= 0):
            raise ValueError("radius must be nonnegative")
        a = np.array(self.angles, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "angles", a)

    @property
    def dim(self) -> int:
        return len(self.angles) + 1


def log_quantize(p: QuantizerParams, z: float) -> tuple[float, int]:
    """Radial grid value and level index for ``z >= 0``; zero maps to ``(0.0, 0)``."""
    z = float(z)
    if not math.isfinite(z):
        raise NonFiniteInputError(f"radial quantizer input must be finite, got {z!r}")
    if z < 0:
        raise NegativeInputError("radial quantizer input must be nonnegative")
    if z == 0.0:
        return 0.0, 0
    delta = p.delta
    # Closed-form level, then membership verification against the half-open
    # cell to absorb boundary roundoff.  An input landing exactly on a cell
    # edge can round outside both neighbouring cells at once; such corners
    # resolve to the cell with the smallest (few-ulp) violation.
    i = math.floor(math.log((1.0 - delta) * z / p.xi0) / math.log(p.nu))
    best, best_err = None, math.inf
    for cand in (i, i + 1, i - 1):
        value = p.nu ** cand * p.xi0
        lo = value / (1.0 + delta)
        hi = value / (1.0 - delta)
        if lo <= z < hi:
            return value, cand
        err = max((lo - z) / lo, (z - hi) / hi)
        if err < best_err:
            best, best_err = (value, cand), err
    if best_err <= 32.0 * np.finfo(float).eps:
        return best
    raise NegativeInputError(f"no radial cell contains z={z!r}")


def _polar(w: list[float]) -> tuple[float, list[float]]:
    """Radius and angles of the coordinate list ``w`` as :func:`to_spherical`
    defines them; fewer than two coordinates give no angles."""
    n = len(w)
    tails = [0.0] * (n + 1)
    acc = 0.0
    for i in range(n - 1, -1, -1):
        acc += w[i] * w[i]
        tails[i] = math.sqrt(acc)
    if n < 2:
        return tails[0], []
    angles = [math.atan2(tails[i + 1], w[i]) for i in range(n - 2)]
    last = math.atan2(w[n - 1], w[n - 2])
    if last < 0:
        last += 2.0 * math.pi
    angles.append(last)
    return tails[0], angles


def to_spherical(y) -> SphericalCoords:
    """Angle coordinates of ``y`` in plain Euclidean terms.

    Angle ``i`` (zero-based, ``i <= n-3``) is ``atan2`` of the trailing tail
    magnitude against coordinate ``i``; the final angle is the signed planar
    angle of the last two coordinates mapped into ``[0, 2*pi)``.  Fully
    degenerate tails give zero angles.  NaN or infinite coordinates raise
    :class:`NonFiniteInputError`.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 2:
        raise DimensionTooSmallError("spherical coordinates need at least 2 coordinates")
    radius, angles = _polar(y.tolist())
    if not math.isfinite(radius) and not np.all(np.isfinite(y)):
        raise NonFiniteInputError("spherical coordinates of a NaN or infinite vector")
    return SphericalCoords(radius=radius, angles=np.array(angles))


def _reconstruct(radius: float, angles) -> np.ndarray:
    y = []
    running = radius
    for a in angles:
        y.append(running * math.cos(a))
        running *= math.sin(a)
    y.append(running)
    return np.array(y)


def from_spherical(c: SphericalCoords) -> np.ndarray:
    """Inverse of :func:`to_spherical`."""
    if c.dim < 2:
        raise DimensionTooSmallError("spherical coordinates need at least 2 coordinates")
    return _reconstruct(c.radius, np.asarray(c.angles, dtype=float))


def unit_from_angles(d: Dilation, angles) -> np.ndarray:
    """Weighted-unit vector whose angles, in :meth:`Dilation.to_euclidean` terms, are ``angles``."""
    return d.from_euclidean(_reconstruct(1.0, angles))


def spherical_quantize(d: Dilation, p: QuantizerParams, u) -> np.ndarray:
    """Round the angle coordinates of a weighted-unit vector to the grid.

    ``u`` must satisfy ``| |u|_P - 1 | <= 1e-8``.  Angles are taken in the
    coordinates ``P^{1/2} u``, rounded to the nearest multiple of
    ``delta_angle`` (the final angle wraps modulo ``2*pi``), and the result
    is mapped back by :func:`unit_from_angles`; the output lies exactly on
    the weighted unit sphere.  Seeds reproduce themselves whenever
    ``delta_angle`` divides ``pi``.
    """
    w = d.to_euclidean(np.asarray(u, dtype=float))
    # |w| is |u|_P; a NaN radius fails the check too.
    radius, angles = _polar(w.tolist())
    if not abs(radius - 1.0) <= _SPHERE_TOL:
        raise NotOnSphereError("spherical quantizer input must be on the weighted unit sphere")
    if not angles:
        raise DimensionTooSmallError("spherical coordinates need at least 2 coordinates")
    step = p.delta_angle
    q = [math.floor(a / step + 0.5) * step for a in angles]
    q[-1] = q[-1] % (2.0 * math.pi)
    return unit_from_angles(d, q)


def hom_quantize(d: Dilation, p: QuantizerParams, x, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Composed state quantizer: radial rounding of the homogeneous norm and
    angular rounding of the unit projection; the origin is a fixed point."""
    root = _solve_nonzero(d, x, cfg)
    if root is None:
        return np.zeros(d.dim)
    s, y = root
    value, _ = log_quantize(p, math.exp(s))
    seed = spherical_quantize(d, p, y)
    return d.apply(math.log(value), seed)


def angular_error_bound(delta_angle: float, dim: int) -> float:
    """Worst-case weighted distance moved by the spherical quantizer."""
    if delta_angle < 0:
        raise NegativeInputError("delta_angle must be nonnegative")
    if dim < 2:
        raise DimensionTooSmallError("angular error bound needs dim >= 2")
    c = math.cos(0.5 * delta_angle) ** (2 * (dim - 1))
    return 2.0 * math.sqrt(max(1.0 - c, 0.0))


def beta(p: QuantizerParams) -> float:
    """Angular error bound for the parameter set ``p``."""
    return angular_error_bound(p.delta_angle, p.dim)


def epsilon_tilde(p: QuantizerParams) -> float:
    """Homogeneous sector radius of the composed quantizer:
    ``(1+delta)*beta + delta``."""
    return (1.0 + p.delta) * beta(p) + p.delta
