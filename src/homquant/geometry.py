"""Canonical homogeneous norm and the geometry it induces.

The canonical homogeneous norm of a nonzero ``x`` is ``exp(s*)`` where ``s*``
is the unique solution of ``|exp(-s*G) x|_P = 1``; strict monotonicity of the
dilation makes the left side strictly decreasing in ``s``, so the root is
found by a bracketed Newton iteration with bisection fallback.  The bracket
comes from the growth exponents of the dilation.

``phi`` straightens the dilation geometry: it maps ``x`` to
``|x|_d * exp(-ln|x|_d G) x`` and sends the origin to itself.  The sum on the homogeneous
space is ``phi_inv(phi(x) + phi(y))``, its scalar action is ``phi_inv(lam * phi(x))`` and
its inner product is ``<phi(x), phi(y)>_P``: norms and inner products of straightened
vectors always use the weight matrix of the dilation.
"""

from __future__ import annotations

import math
import sys
import weakref

import numpy as np

from .dilation import Dilation
from .errors import (
    NoConvergenceError,
    NonFiniteInputError,
    NormOverflowError,
    UnsupportedDimensionError,
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
# The float64 dtype, which numpy gives every float array it builds.
_FLOAT = np.dtype(float)
# The scalar Newton core of each live dilation, by id, bound on its first solve;
# an entry goes when its dilation does.
_NEWTON: dict = {}


def _as_states(d: Dilation, x, batch: bool = False) -> np.ndarray:
    """``x`` as a float array of shape ``(d.dim,)``, or ``(k, d.dim)`` for a ``batch``;
    :class:`UnsupportedDimensionError` for any other shape, a ragged batch included,
    and for entries that are not real numbers, such as strings and complex numbers."""
    try:
        x = np.asarray(x)
        if x.dtype is not _FLOAT:
            if x.dtype.kind not in "biufO":  # bool, integer, float, or objects such as Fraction
                raise TypeError(f"entries of dtype {x.dtype}")
            x = x.astype(float)
    except (TypeError, ValueError) as exc:
        raise UnsupportedDimensionError(f"state is not an array of real numbers: {exc}") from exc
    if x.shape[batch:] != (d.dim,):
        raise UnsupportedDimensionError(f"state of shape {x.shape} under a dim {d.dim} dilation")
    return x


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
    cols = _as_states(d, xs, batch=True).T
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
    root = _solve(d, _as_states(d, x))
    return 0.0 if root is None else math.exp(root[0])


def hom_norm_many(d: Dilation, xs) -> np.ndarray:
    """Row-wise homogeneous norms of the sample matrix ``xs`` (one sample per row)."""
    _, mask, s, _ = _solve_many_nonzero(d, xs)
    out = np.zeros(len(mask))
    out[mask] = np.exp(s)
    return out


def hom_project(d: Dilation, x) -> np.ndarray:
    """Projection ``exp(-ln|x|_d G) x`` onto the unit sphere of the weighted norm."""
    root = _solve(d, _as_states(d, x))
    if root is None:
        raise ZeroVectorError("cannot project the origin onto the unit sphere")
    return np.asarray(root[1])


def phi(d: Dilation, x) -> np.ndarray:
    """Straightening map ``x -> |x|_d * exp(-ln|x|_d G) x``; the origin maps to itself."""
    root = _solve(d, _as_states(d, x))
    return np.zeros(d.dim) if root is None else math.exp(root[0]) * np.asarray(root[1])


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
    z = _as_states(d, z)
    with np.errstate(over="ignore"):  # |z|_P past the largest float is taken below
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
