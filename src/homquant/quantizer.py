"""Logarithmic radial quantization, n-sphere angle coordinates, and the
dilation-aware state quantizer composed from them.

The radial quantizer maps ``z > 0`` to the grid value ``nu^i * xi0`` of the
cell ``[rho*nu^i, rho*nu^(i-1)) = [nu^i*xi0/(1+delta), nu^i*xi0/(1-delta))``
holding ``z``, where ``rho = xi0/(1+delta)``, ``delta = (1-nu)/(1+nu)``; so
``|q(z) - z| <= delta*z``, and the cells are the fundamental annuli of the
dilation group of step ``-ln(nu)``.  The spherical quantizer rounds every
angle coordinate of a weighted-unit vector to a grid of pitch ``delta_angle``.
The composed state quantizer rounds the homogeneous norm radially and the
unit projection spherically, then rebuilds the state with the dilation, so it
commutes with dilations whose parameter is an integer multiple of ``-ln(nu)``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dilation import Dilation
from .errors import (DimensionTooSmallError, NegativeInputError, NonFiniteInputError,
                     NormOverflowError, NotOnSphereError, UnsupportedDimensionError)
from .geometry import _LOG_SAFE, _apply_unit, _as_states, _solve, _solve_many_nonzero
from .kernel import polar

# Admissible distance of a candidate argument from the weighted unit sphere.
_SPHERE_TOL = 1e-8
# Decoded symbols kept per encoder; a fine angle grid can give every call a new
# symbol, and the table then starts over.
_DECODED_MAX = 4096


def _integer_dim(dim) -> int:
    """``dim`` as an ``int``; :class:`UnsupportedDimensionError` where it is not an integer."""
    try:
        return operator.index(dim)
    except TypeError:
        raise UnsupportedDimensionError(f"dim must be an integer, got {dim!r}") from None


@dataclass(frozen=True)
class QuantizerParams:
    """Parameters of the composed quantizer.

    ``nu`` is the radial contraction ratio, ``delta_angle`` the angular grid
    pitch, ``dim`` the state dimension and ``xi0`` the radial anchor.  The
    default anchor ``2/(1+nu)`` aligns the level-0 radial cell with the
    annulus ``[1, 1/nu)``.  An anchor must be finite, with a normal float
    ``rho``: the radial cell search needs edges that reach 0 and inf, and a
    subnormal ``rho`` loses the sector bound ``|q(z) - z| <= delta*z``.
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
        if _integer_dim(self.dim) < 1:
            raise ValueError("dim must be a positive integer")
        if self.xi0 is None:
            object.__setattr__(self, "xi0", 2.0 / (1.0 + self.nu))
        elif not (0.0 < self.xi0 < math.inf):
            raise ValueError(f"xi0 must be positive and finite, got {self.xi0}")
        if not self.rho >= sys.float_info.min:
            raise ValueError(f"xi0 = {self.xi0} puts rho = {self.rho} below the normal floats")

    @property
    def delta(self) -> float:
        """Radial sector slope ``(1-nu)/(1+nu)``; derived, never stored."""
        return (1.0 - self.nu) / (1.0 + self.nu)

    @property
    def radial_step(self) -> float:
        """Dilation parameter step ``-ln(nu)`` preserved by the quantizer."""
        return -math.log(self.nu)

    @cached_property
    def rho(self) -> float:
        """Lower edge ``xi0/(1+delta)`` of radial cell 0; derived, cached on first use."""
        return self.xi0 / (1.0 + self.delta)


def _check_dim(d: Dilation, p: QuantizerParams) -> None:
    if p.dim != d.dim:
        raise UnsupportedDimensionError(f"quantizer for dim {p.dim} under a dim {d.dim} dilation")


def _as_vectors(d: Dilation, p: QuantizerParams, u, batch: bool = False) -> np.ndarray:
    """:func:`~homquant.geometry._as_states` of ``u``, for ``p.dim == d.dim``."""
    _check_dim(d, p)
    return _as_states(d, u, batch)


def _by_value(fn, a: np.ndarray, *args) -> np.ndarray:
    """The Python function ``fn(*args, v)`` at every entry ``v`` of ``a``, evaluated
    once per distinct value, so that each entry has the bits of the scalar call."""
    vals, inv = np.unique(a, return_inverse=True)
    return np.array([fn(*args, v) for v in vals.tolist()])[inv].reshape(a.shape)


def _edge(nu: float, rho: float, i: int) -> float:
    """Lower edge ``rho * nu**i`` of radial cell ``i``; ``inf`` past the largest float."""
    try:
        return rho * nu ** i
    except OverflowError:
        return math.inf


def _radial_cell(nu: float, rho: float, r: float) -> int:
    """Index ``i`` of the radial cell ``[rho*nu**i, rho*nu**(i-1))``, an annulus of the
    group ``{nu**k}``, holding the finite ``r > 0``.  Neighbouring cells share one computed
    edge, so they tile ``(0, inf)`` and ``i`` is the least index whose edge is at most ``r``.
    The closed form misses it only at an edge or among subnormal edges: then bisect."""
    i = 0
    try:
        i = math.ceil(math.log(r / rho) / math.log(nu))
        if rho * nu ** i <= r < rho * nu ** (i - 1):
            return i
    except (ValueError, OverflowError):
        pass  # r / rho or an edge is past the float range: search from i
    w = 1  # the edges reach inf and 0, so the widening ends
    while not _edge(nu, rho, i - w) > r >= _edge(nu, rho, i + w):
        w *= 2
    lo, hi = i - w, i + w
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _edge(nu, rho, mid) <= r else (mid, hi)
    return hi


def _radial_cells(nu: float, rho: float, r: np.ndarray) -> np.ndarray:
    """:func:`_radial_cell` of every entry of ``r``, as integers."""
    i = np.ceil((np.log(r) - math.log(rho)) / math.log(nu)).astype(np.int64)
    miss = ~((_by_value(_edge, i, nu, rho) <= r) & (r < _by_value(_edge, i - 1, nu, rho)))
    i[miss] = [_radial_cell(nu, rho, v) for v in r[miss].tolist()]
    return i


def _grid_value(p: QuantizerParams, i: int) -> float:
    """Grid value ``nu**i * xi0`` of radial cell ``i`` (its edge ``rho * nu**i`` is
    finite); :class:`NormOverflowError` where it is past the largest float."""
    value = p.nu ** i * p.xi0
    if value == math.inf:
        raise NormOverflowError(f"the grid value of radial cell {i} exceeds the largest float")
    return value


def log_quantize(p: QuantizerParams, z: float) -> tuple[float, int]:
    """Radial grid value and level index for ``z >= 0``; zero maps to ``(0.0, 0)``.
    Raises :class:`NormOverflowError` where the grid value is past the largest float."""
    z = float(z)
    if not math.isfinite(z):
        raise NonFiniteInputError(f"radial quantizer input must be finite, got {z!r}")
    if z < 0:
        raise NegativeInputError("radial quantizer input must be nonnegative")
    if z == 0.0:
        return 0.0, 0
    i = _radial_cell(p.nu, p.rho, z)
    return _grid_value(p, i), i


def _log_quantize_many(p: QuantizerParams, z: np.ndarray) -> np.ndarray:
    """:func:`log_quantize` values of the positive finite entries of ``z``, bit for bit."""
    return _by_value(_grid_value, _radial_cells(p.nu, p.rho, z), p)


def to_spherical(y) -> tuple[float, np.ndarray]:
    """Radius and angle coordinates of ``y`` in plain Euclidean terms.

    Angle ``i`` (zero-based, ``i <= n-3``) is ``atan2`` of the trailing tail
    magnitude against coordinate ``i``; the final angle is the signed planar
    angle of the last two coordinates mapped into ``[0, 2*pi)``, so the
    first ``n-2`` angles lie in ``[0, pi]``.  Fully
    degenerate tails give zero angles.  NaN or infinite coordinates raise
    :class:`NonFiniteInputError`.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 2:
        raise DimensionTooSmallError("spherical coordinates need at least 2 coordinates")
    radius, angles = polar(y.shape[0])(y, None, None)
    if not math.isfinite(radius) and not np.all(np.isfinite(y)):
        raise NonFiniteInputError("spherical coordinates of a NaN or infinite vector")
    return radius, np.array(angles)


def unit_from_angles(d: Dilation, angles) -> np.ndarray:
    """Weighted-unit vector whose ``d.dim - 1`` angles in ``P^{1/2}`` terms are ``angles``."""
    if len(angles) != d.dim - 1:
        raise UnsupportedDimensionError(f"{len(angles)} angles under a dim {d.dim} dilation")
    y, running = [], 1.0
    for a in angles:
        y.append(running * math.cos(a))
        running *= math.sin(a)
    y.append(running)
    return d.from_euclidean(np.array(y))


def _spherical_cell(d: Dilation, p: QuantizerParams, u) -> list[int]:
    """Encoder of :func:`spherical_quantize`: the grid indices
    ``floor(a/delta_angle + 1/2)`` of the angles ``a`` of ``P^{1/2} u``, for ``u`` a
    float array or the list of floats that the norm solve gives."""
    cells = polar(d.dim)(d.to_euclidean(u), p.delta_angle, _SPHERE_TOL)
    if not cells:
        raise DimensionTooSmallError("spherical coordinates need at least 2 coordinates")
    return cells


def spherical_quantize(d: Dilation, p: QuantizerParams, u) -> np.ndarray:
    """Round the angle coordinates of a weighted-unit vector to the grid.

    ``u`` must satisfy ``| |u|_P - 1 | <= 1e-8``.  Angles are taken in the
    coordinates ``P^{1/2} u``, rounded to the nearest multiple of
    ``delta_angle`` (the final angle wraps modulo ``2*pi``), and the result
    is mapped back by :func:`unit_from_angles`; the output lies exactly on
    the weighted unit sphere.  Seeds reproduce themselves whenever
    ``delta_angle`` divides ``pi``.
    """
    q = [k * p.delta_angle for k in _spherical_cell(d, p, _as_vectors(d, p, u))]
    q[-1] = q[-1] % (2.0 * math.pi)
    return unit_from_angles(d, q)


def spherical_quantize_many(d: Dilation, p: QuantizerParams, us) -> np.ndarray:
    """Row-batch twin of :func:`spherical_quantize`: row ``j`` of the result is
    ``spherical_quantize(d, p, us[j])``; one row off the sphere raises
    :class:`NotOnSphereError`."""
    w = d.to_euclidean(_as_vectors(d, p, us, batch=True).T)
    n = w.shape[0]
    if n < 2:
        raise DimensionTooSmallError("spherical coordinates need at least 2 coordinates")
    # The polar kernel's tails (sequential sums from the last coordinate) and angles.
    tails = np.sqrt(np.cumsum((w * w)[::-1], axis=0))[::-1]
    if not np.all(np.abs(tails[0] - 1.0) <= _SPHERE_TOL):
        raise NotOnSphereError("spherical quantizer input must be on the weighted unit sphere")
    a = np.arctan2(np.vstack([tails[1:n - 1], w[n - 1:]]), w[:n - 1])
    a[-1] = np.where(a[-1] < 0, a[-1] + 2.0 * math.pi, a[-1])
    q = np.floor(a / p.delta_angle + 0.5) * p.delta_angle
    q[-1] %= 2.0 * math.pi
    # unit_from_angles's products in its order, from math.cos and math.sin.
    ones = np.ones((1, w.shape[1]))
    running = np.cumprod(np.vstack([ones, _by_value(math.sin, q)]), axis=0)
    return d.from_euclidean(running * np.vstack([_by_value(math.cos, q), ones])).T


def hom_quantize(d: Dilation, p: QuantizerParams, x) -> np.ndarray:
    """Composed state quantizer: radial rounding of the homogeneous norm and
    angular rounding of the unit projection; the origin is a fixed point.
    Raises :class:`NormOverflowError` where the output is past the largest float."""
    root = _solve(d, _as_vectors(d, p, x))
    value = 0.0 if root is None else log_quantize(p, math.exp(root[0]))[0]
    if value == 0.0:  # the origin, or a grid value nu**i * xi0 that underflows to 0.0
        return np.zeros(d.dim)
    return _apply_unit(d, math.log(value), spherical_quantize(d, p, root[1]))


def _encoder(d: Dilation, p: QuantizerParams, finish, radial, spherical):
    """``encode(s, y) -> (x_hat, *finish(value, seed))`` of the closed loop's quantizer at
    the state ``exp(s*G) y``: ``value, _ = radial(p, exp(s))``, ``seed = spherical(d, p, y)``
    and ``x_hat = exp(ln(value)*G) seed``; ``None`` where ``value`` underflows to 0.0.
    ``radial`` runs only when ``exp(s)`` leaves the last radial cell (neighbouring cells
    share one computed edge), and each symbol ``(value, *angle cells)`` is decoded once, in
    a table that starts over at ``_DECODED_MAX`` entries."""
    _check_dim(d, p)
    lo, hi, value = math.inf, -math.inf, 0.0
    decoded = {}
    # _spherical_cell without its dimension check: a new symbol's spherical() makes it.
    cell, euclidean, step = polar(d.dim), d.to_euclidean, p.delta_angle

    def encode(s, y):
        nonlocal lo, hi, value
        r = math.exp(s)
        if not lo <= r < hi:
            value, i = radial(p, r)
            lo, hi = _edge(p.nu, p.rho, i), _edge(p.nu, p.rho, i - 1)
        if value == 0.0:
            return None
        symbol = (value, *cell(euclidean(y), step, _SPHERE_TOL))
        entry = decoded.get(symbol)
        if entry is None:
            if len(decoded) >= _DECODED_MAX:
                decoded.clear()
            seed = spherical(d, p, y)
            entry = decoded[symbol] = (_apply_unit(d, math.log(value), seed).tolist(),
                                       *finish(value, seed))
        return entry
    return encode


def hom_quantize_many(d: Dilation, p: QuantizerParams, xs) -> np.ndarray:
    """Row-batch twin of :func:`hom_quantize`: row ``j`` of the result is
    ``hom_quantize(d, p, xs[j])``, with its errors.  Away from cell edges
    a row depends on its sample only through its cells, so it has the scalar
    call's bits wherever the rebuild does (diag and expm backends, identity weight)."""
    cols, mask, s, y = _solve_many_nonzero(d, xs)
    values = _log_quantize_many(p, np.exp(s))
    # A grid value nu**i * xi0 that underflows to 0.0 is the origin.
    keep = values > 0.0
    mask[mask] = keep
    logs = _by_value(math.log, values[keep])
    seeds = spherical_quantize_many(d, p, y[:, keep].T).T
    # As in _apply_unit, only a column with s*eta_max past _LOG_SAFE can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        q = d.apply_each(logs, seeds)
    if not np.all(np.isfinite(q[:, logs * d.eta_max > _LOG_SAFE])):
        raise NormOverflowError("exp(s*G) overflows at a sample row")
    out = np.zeros_like(cols)
    out[:, mask] = q
    return out.T


def angular_error_bound(delta_angle: float, dim: int) -> float:
    """Worst-case weighted distance moved by the spherical quantizer."""
    if not math.isfinite(delta_angle):
        raise NonFiniteInputError(f"delta_angle must be finite, got {delta_angle!r}")
    if delta_angle < 0:
        raise NegativeInputError("delta_angle must be nonnegative")
    if _integer_dim(dim) < 2:
        raise DimensionTooSmallError("angular error bound needs dim >= 2")
    c = math.cos(0.5 * delta_angle) ** (2 * (dim - 1))
    return 2.0 * math.sqrt(max(1.0 - c, 0.0))


def epsilon_tilde(p: QuantizerParams) -> float:
    """Homogeneous sector radius of the composed quantizer:
    ``(1+delta)*b + delta``, with ``b`` the :func:`angular_error_bound` of ``p``."""
    return (1.0 + p.delta) * angular_error_bound(p.delta_angle, p.dim) + p.delta
