"""Canonical homogeneous norm and the geometry it induces.

The canonical homogeneous norm of a nonzero ``x`` is ``exp(s*)`` where ``s*``
is the unique solution of ``|exp(-s*G) x|_P = 1``; strict monotonicity of the
dilation makes the left side strictly decreasing in ``s``, so the root is
found by a bracketed Newton iteration with bisection fallback.  The bracket
comes from the growth exponents of the dilation.

``phi`` straightens the dilation geometry: it maps ``x`` to
``|x|_d * exp(-ln|x|_d G) x`` and sends the origin to itself.  The sum on the
homogeneous space is ``phi_inv(phi(x) + phi(y))`` and its inner product is
``<phi(x), phi(y)>_P``: norms and inner products of straightened vectors
always use the weight matrix of the dilation.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .dilation import Dilation
from .errors import (
    NegativeInputError,
    NoConvergenceError,
    NonFiniteInputError,
    NormOverflowError,
    ZeroVectorError,
)
from .kernel import kernel

# Largest s with a finite exp(s): the log of the largest homogeneous norm.
_LOG_MAX = math.log(sys.float_info.max)
# Below this log-size exp(s*G) x cannot overflow; the margin of 100 below
# _LOG_MAX covers the conditioning of the weight and of the eigenvectors.
_LOG_SAFE = _LOG_MAX - 100.0
# Settings of the norm solve: relative tolerance on the unit equation and
# the iteration budget.
_REL_TOL = 1e-12
_MAX_ITER = 200
# Least |x|_P whose square is a normal float; below it |x|_P is taken on x / max|x_i|.
_NORM_MIN = math.sqrt(sys.float_info.min)
# Columns per block of the batch solve: its ~25 temporaries then take about
# 2 MiB, which stays in a 4 MiB L2 cache across the Newton iterations.
_BLOCK = 8192
# The scalar Newton core of each live dilation, by id, bound on its first solve;
# an entry goes when its dilation does.
_NEWTON: dict = {}


@dataclass(frozen=True)
class FundamentalDomain:
    """Annulus ``rho <= |x|_d < rho * exp(step)`` of ``{exp(k*step*G) : k integer}``."""

    dilation: Dilation
    step: float
    rho: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be finite and positive")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be finite and positive")


def _log_floor(d: Dilation) -> float:
    """Least ``ln|x|_d`` of a state that is not the origin: from it up, ``exp(-s*G)``
    stays finite across the solve's bracket and ``exp(s)`` is a normal float."""
    return -_LOG_SAFE / max(d.eta_max, 1.0)


def _solve(d: Dilation, x, s0: float | None = None):
    """Root ``s`` of ``|exp(-s*G) x|_P = 1`` and the unit ``y = exp(-s*G) x`` as a list
    of floats, for ``x`` a sequence of floats or a float array; ``None`` at the origin.

    The scalar Newton core of :mod:`~homquant.kernel` takes the in-range states:
    ``|x|_P`` in the normal range, a bracket whose lower end is at or above
    :func:`_log_floor` and a root at most ``_LOG_MAX``; ``s0`` warm-starts it, and a guess
    not strictly inside the bracket, NaN or infinite included, is replaced by its midpoint.
    It runs on Python floats for a diagonal generator under the identity weight, else
    through :meth:`Dilation.unit_residual`, and is bound on a dilation's first solve.
    The batch gate :func:`_solve_many_nonzero` takes every other state, with its errors.
    """
    newton = _NEWTON.get(id(d))
    if newton is None:
        lam = d.float_diagonal
        make = kernel(d.dim, 1, lam is not None)["make_newton"]
        newton = _NEWTON[id(d)] = make(sys.modules[__name__], d, lam, _log_floor(d))
        weakref.finalize(d, _NEWTON.pop, id(d), None)
    if (root := newton(d, x, s0)) is None:
        _, mask, s, y = _solve_many_nonzero(d, [x])
        root = (float(s[0]), y[:, 0].tolist()) if mask[0] else None
    return root


def _solve_many(d: Dilation, cols: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_solve` over the columns of ``cols`` (all nonzero), given their
    ``log|x|_P`` as ``t``.  A column starts at ``t / rho``, the Newton step from
    ``s = 0``, with ``rho = x'PGx / x'Px`` in ``[eta_min, eta_max]``; a start not
    strictly inside the bracket, NaN included, takes the midpoint.  A bracket
    reaching below :func:`_log_floor` starts there, where a residual below 1 makes
    the column the origin: its ``s`` is ``-inf``.  A column whose bracket holds no
    float strictly inside stops at its iterate."""
    floor = _log_floor(d)
    lo = np.maximum(np.where(t >= 0, t / d.eta_max, t / d.eta_min), floor)
    hi = np.where(t >= 0, t / d.eta_min, t / d.eta_max)
    pg = d.weight @ d.generator
    s0 = t * d.weighted_norms(cols) ** 2 / np.einsum("ij,ij->j", cols, pg @ cols)
    s = np.where((lo < s0) & (s0 < hi), s0, 0.5 * (lo + hi))
    s = np.where(lo == floor, floor, s)
    tol = 0.5 * _REL_TOL
    stuck = False
    for _ in range(_MAX_ITER):
        y, q, qg = d.unit_residual_each(s, cols)
        g = np.sqrt(q)
        origin = (g < 1.0) & (s == floor)
        done = (np.abs(g - 1.0) <= tol) | origin | stuck
        if np.all(done):
            s[origin] = -math.inf
            return s, y
        lo = np.where(g > 1.0, s, lo)
        hi = np.where(g <= 1.0, s, hi)
        s_next = s + 0.5 * np.log(q) / (qg / q)
        mid = 0.5 * (lo + hi)
        s_next = np.where((lo < s_next) & (s_next < hi), s_next, mid)
        stuck = ~((lo < mid) & (mid < hi))  # as in _solve: s is as near the root as floats get
        s = np.where(done | stuck, s, s_next)
    raise NoConvergenceError(
        f"vectorized homogeneous norm solve did not converge in {_MAX_ITER} iterations"
    )


def _solve_many_nonzero(d: Dilation, xs):
    """Row-batch twin of :func:`_solve`: ``(cols, mask, s, y)`` with the rows
    of ``xs`` as ``cols`` and ``s, y`` solved on the columns ``mask`` selects.

    It takes every state: zero rows and rows below the floor leave ``mask``,
    and ``log|x|_P`` outside the normal range is taken on ``x / max|x_i|``.
    """
    cols = np.asarray(xs, dtype=float).T
    nrm = d.weighted_norms(cols)
    # |x|_P past the normal range: under it, or NaN or infinite from a NaN or
    # infinite entry or from an overflow (to inf, or to NaN as inf - inf).
    odd = ~((nrm >= _NORM_MIN) & (nrm < math.inf))
    if not np.all(np.isfinite(cols[:, odd])):
        raise NonFiniteInputError("state has a NaN or infinite entry")
    mask = cols.any(axis=0)
    sel = cols[:, mask]
    # |x|_P of a scaled state, or exp(-s*G) x and its |.|_P at iterates far
    # from the root, can over- or underflow; the bracket corrects them.
    with np.errstate(all="ignore"):
        # The norms of the contiguous copy: their last bits can differ from
        # those of the strided rows.
        t = np.log(d.weighted_norms(sel))
        scaled = sel[:, odd[mask]]
        c = np.max(np.abs(scaled), axis=0)
        t[odd[mask]] = np.log(c) + np.log(d.weighted_norms(scaled / c))
        # Blocks start at multiples of _BLOCK; a one-column tail joins the block
        # before it, since a one-column matmul can take another BLAS path.
        s, y = np.empty_like(t), np.empty_like(sel)
        ends = [*range(0, max(len(t) - 1, 1), _BLOCK), len(t)]
        for a, b in zip(ends, ends[1:]):
            s[a:b], y[:, a:b] = _solve_many(d, sel[:, a:b], t[a:b])
    if s.max(initial=0.0) > _LOG_MAX:
        raise NormOverflowError("homogeneous norm of the state exceeds the largest float")
    if s.min(initial=0.0) == -math.inf:
        keep = s > -math.inf
        mask[mask] = keep
        s, y = s[keep], y[:, keep]
    return cols, mask, s, y


def hom_norm(d: Dilation, x) -> float:
    """Canonical homogeneous norm of ``x``; 0 where ``x = 0`` or ``ln|x|_d`` is below the floor."""
    root = _solve(d, np.asarray(x, dtype=float))
    return 0.0 if root is None else math.exp(root[0])


def hom_norm_many(d: Dilation, xs) -> np.ndarray:
    """Row-wise homogeneous norms of the sample matrix ``xs`` (one sample per row)."""
    _, mask, s, _ = _solve_many_nonzero(d, xs)
    out = np.zeros(len(mask))
    out[mask] = np.exp(s)
    return out


def hom_project(d: Dilation, x) -> np.ndarray:
    """Projection ``exp(-ln|x|_d G) x`` onto the unit sphere of the weighted norm."""
    root = _solve(d, np.asarray(x, dtype=float))
    if root is None:
        raise ZeroVectorError("cannot project the origin onto the unit sphere")
    return np.asarray(root[1])


def phi(d: Dilation, x) -> np.ndarray:
    """Straightening map ``x -> |x|_d * exp(-ln|x|_d G) x``; the origin maps to itself."""
    root = _solve(d, np.asarray(x, dtype=float))
    if root is None:
        return np.zeros(d.dim)
    s, y = root
    return math.exp(s) * np.asarray(y)


def _apply_unit(d: Dilation, s: float, u: np.ndarray) -> np.ndarray:
    """``exp(s*G) u`` for a unit ``u``, or :class:`NormOverflowError` where it
    overflows.  Its weighted norm is at most ``exp(s*eta_max)``, so only an
    ``s`` within reach of overflow pays for the finiteness check."""
    if s * d.eta_max <= _LOG_SAFE:
        return d.apply(s, u)
    with np.errstate(over="ignore", invalid="ignore"):
        x = d.apply(s, u)
    if not np.all(np.isfinite(x)):
        raise NormOverflowError("exp(s*G) overflows at this state")
    return x


def phi_inv(d: Dilation, z) -> np.ndarray:
    """Inverse straightening map ``z -> exp(ln|z|_P G) z / |z|_P``, zero where ``ln|z|_P = ln|x|_d``
    is below the floor; raises :class:`NormOverflowError` past the largest float."""
    z = np.asarray(z, dtype=float)
    nrm = d.weighted_norm(z)
    c = 1.0
    if not _NORM_MIN <= nrm < math.inf:  # take |z|_P on z / max|z_i|
        if not np.all(np.isfinite(z)):
            raise NonFiniteInputError("state has a NaN or infinite entry")
        c = float(np.max(np.abs(z)))
        if c == 0.0:
            return np.zeros(d.dim)
        z = z / c
        nrm = d.weighted_norm(z)
    t = math.log(c) + math.log(nrm)
    if t < _log_floor(d):
        return np.zeros(d.dim)
    # |exp(tG) z|_P <= exp(t*eta_max) |z|_P.
    if t * d.eta_max + math.log(nrm) <= _LOG_SAFE:
        return d.apply(t, z) / nrm
    # exp(tG) z, or |z|_P itself, can overflow: exponentiate the unit vector z / |z|_P.
    return _apply_unit(d, t, z / nrm)


def phi_many(d: Dilation, xs) -> np.ndarray:
    """Row-wise :func:`phi` of the sample matrix ``xs``."""
    cols, mask, s, y = _solve_many_nonzero(d, xs)
    out = np.zeros_like(cols, dtype=float)
    out[:, mask] = np.exp(s) * y
    return out.T


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


def projection_index(fd: FundamentalDomain, x) -> int:
    """Integer ``k`` with ``rho*nu**-k <= |x|_d < rho*nu**-(k+1)``, ``nu = exp(-step)``,
    so that ``exp(-k*step*G) x`` lies in the domain: minus the radial cell of
    :func:`~homquant.quantizer.log_quantize` with this ``nu`` and ``rho``."""
    root = _solve(fd.dilation, np.asarray(x, dtype=float))
    if root is None:
        raise ZeroVectorError("projection index is undefined at the origin")
    return -_radial_cell(math.exp(-fd.step), fd.rho, math.exp(root[0]))


def tilde_scale(d: Dilation, lam: float, x) -> np.ndarray:
    """Scalar action: ``sign(lam) * exp(ln|lam| G) x``; ``lam = 0`` gives the origin.
    Raises :class:`NormOverflowError` where the result is past the largest float."""
    lam = float(lam)
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(lam) and np.all(np.isfinite(x))):
        raise NonFiniteInputError("scalar or state has a NaN or infinite entry")
    if lam == 0.0:
        return np.zeros(d.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = d.apply(math.log(abs(lam)), x)
    if not np.all(np.isfinite(scaled)):
        raise NormOverflowError("the scaled state exceeds the largest float")
    return scaled if lam > 0 else -scaled


def distance_bound_alpha1(d: Dilation, vartheta: float) -> float:
    """Upper bound on ``|y -~ x|_d^2 / |x|_d^2`` in terms of the straightened gap.

    ``vartheta`` is ``|phi(y) - phi(x)|_P / |phi(x)|_P``.  The bound composes
    the generator gain with the norm-comparison exponents; the decreasing
    branch saturates once ``vartheta >= 1``.  Raises :class:`NormOverflowError`
    where the bound exceeds the largest float, and :class:`NonFiniteInputError`
    on a NaN or infinite ``vartheta``.
    """
    vartheta = float(vartheta)
    if not math.isfinite(vartheta):
        raise NonFiniteInputError(f"vartheta must be finite, got {vartheta!r}")
    if vartheta < 0:
        raise NegativeInputError("vartheta must be nonnegative")
    e_lo, e_hi = d.eta_min, d.eta_max
    gnorm = float(np.linalg.norm(d.to_euclidean(d.generator) @ d.from_euclidean(np.eye(d.dim)), 2))
    try:
        grow = ((vartheta + 1.0) ** e_hi - 1.0) / e_hi
        shrink = (1.0 - max(1.0 - vartheta, 0.0) ** e_lo) / e_lo
        gap = gnorm * max(grow, shrink) + 2.0 * vartheta
        bound = max(gap ** (1.0 / e_hi), gap ** (1.0 / e_lo)) ** 2
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise NormOverflowError("the distance bound exceeds the largest float")
    return bound

