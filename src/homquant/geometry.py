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

# Largest s with a finite exp(s): the log of the largest homogeneous norm.
_LOG_MAX = math.log(sys.float_info.max)
# Below this log-size exp(s*G) x cannot overflow; the margin of 100 below
# _LOG_MAX covers the conditioning of the weight and of the eigenvectors.
_LOG_SAFE = _LOG_MAX - 100.0
# Settings of the norm solve: relative tolerance on the unit equation, the
# iteration budget, and the |x|_P at or below which a state is the origin.
_REL_TOL = 1e-12
_MAX_ITER = 200
_ZERO_THRESHOLD = 1e-12


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


def _solve(d: Dilation, x: np.ndarray, s0: float | None, t: float) -> tuple[float, np.ndarray]:
    """Root ``s`` of ``|exp(-s*G) x|_P = 1`` and the unit vector ``exp(-s*G) x``.

    The caller guarantees ``|x|_P`` is above the zero threshold and passes
    its logarithm as ``t``.  ``s0`` warm-starts the iteration (a nearby
    state's root, say); a guess that is not strictly inside the global
    bracket, NaN or infinite included, is replaced by the bracket midpoint,
    and the bracket keeps safeguarding every step either way.
    """
    if t >= 0:
        lo, hi = t / d.eta_max, t / d.eta_min
    else:
        lo, hi = t / d.eta_min, t / d.eta_max
    s = s0 if s0 is not None and lo < s0 < hi else 0.5 * (lo + hi)
    weight = d.weight
    pg = d._pg
    identity_p = d._p_is_identity
    # Diagonal generator, identity weight: iterate on Python floats, which
    # beats numpy on short vectors.  Every s stays inside [lo, hi], so the
    # exponents -s*lambda_i stay below 700 and math.exp cannot overflow.
    scalar = d._mode == "diag" and identity_p and math.isfinite(t) and -lo * d.eta_max < 700.0
    if scalar:
        lam = d._diag.tolist()
        xs = x.tolist()
    # Stop at half the tolerance so the residual recomputed from exp(s) by a
    # caller stays within _REL_TOL despite the extra roundoff.
    tol = 0.5 * _REL_TOL
    for _ in range(_MAX_ITER):
        if scalar:
            ys = []
            q = 0.0
            qg = 0.0
            for li, xi in zip(lam, xs):
                yi = math.exp(-s * li) * xi
                ys.append(yi)
                yy = yi * yi
                q += yy
                qg += li * yy
            g = math.sqrt(q)
            if abs(g - 1.0) <= tol:
                return s, np.array(ys)
        else:
            y = d.apply(-s, x)
            q = float(y.dot(y)) if identity_p else float(y.dot(weight.dot(y)))
            g = math.sqrt(q)
            if abs(g - 1.0) <= tol:
                return s, y
            qg = float(y.dot(pg.dot(y)))
        if g > 1.0:
            lo = s
        else:
            hi = s
        try:
            # Newton step on log|exp(-s*G) x|_P.  The slope qg/q is bounded
            # away from 0, but far from the root of a huge state q can
            # underflow to 0 (log and division raise) or overflow to inf
            # (the step is NaN); the bisection below takes over either way.
            s_next = s + 0.5 * math.log(q) / (qg / q)
        except (ValueError, ZeroDivisionError):
            s_next = math.nan
        if not (lo < s_next < hi):
            s_next = 0.5 * (lo + hi)
        s = s_next
    raise NoConvergenceError(
        f"homogeneous norm solve did not reach rel_tol={_REL_TOL} "
        f"in {_MAX_ITER} iterations"
    )


def _solve_many(d: Dilation, cols: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_solve` over the columns of ``cols`` (all nonzero),
    given their ``log|x|_P`` as ``t``."""
    lo = np.where(t >= 0, t / d.eta_max, t / d.eta_min)
    hi = np.where(t >= 0, t / d.eta_min, t / d.eta_max)
    s = 0.5 * (lo + hi)
    weight = d.weight
    pg = d._pg
    tol = 0.5 * _REL_TOL
    for _ in range(_MAX_ITER):
        y = d.apply_each(-s, cols)
        q = np.einsum("ij,ij->j", y, y if d._p_is_identity else weight @ y)
        g = np.sqrt(q)
        err = np.abs(g - 1.0)
        done = err <= tol
        if np.all(done):
            return s, y
        lo = np.where(g > 1.0, s, lo)
        hi = np.where(g <= 1.0, s, hi)
        slope = np.einsum("ij,ij->j", y, pg @ y) / q
        s_next = s + 0.5 * np.log(q) / slope
        mid = 0.5 * (lo + hi)
        s_next = np.where((lo < s_next) & (s_next < hi), s_next, mid)
        s = np.where(done, s, s_next)
    raise NoConvergenceError(
        f"vectorized homogeneous norm solve did not converge in {_MAX_ITER} iterations"
    )


def _scaled_log_norms(d: Dilation, cols: np.ndarray) -> np.ndarray:
    """``log|x|_P`` of each finite nonzero column ``x`` of ``cols``, computed on
    ``x / max_i |x_i|`` so that it stays finite where ``|x|_P`` overflows."""
    c = np.max(np.abs(cols), axis=0)
    return np.log(c) + np.log(d.weighted_norms(cols / c))


# Floating-point flags a solve on a state whose |x|_P overflows may raise:
# exp(-s*G) x over- or underflows at iterates far from the root, which the
# bracket then corrects.
_HUGE_STATE_ERRSTATE = dict(over="ignore", under="ignore", divide="ignore", invalid="ignore")


def _solve_nonzero(d: Dilation, x, s0: float | None = None) -> tuple[float, np.ndarray] | None:
    """:func:`_solve` at ``x``, warm-started at ``s0``, or ``None`` if ``|x|_P``
    is at most the zero threshold.

    Raises :class:`NonFiniteInputError` if ``x`` has a NaN or infinite entry
    and :class:`NormOverflowError` if the homogeneous norm of ``x`` exceeds
    the largest float.
    """
    x = np.asarray(x, dtype=float)
    nrm = d.weighted_norm(x)
    if nrm <= _ZERO_THRESHOLD:
        return None
    if math.isfinite(nrm):
        root = _solve(d, x, s0, math.log(nrm))
    elif not np.all(np.isfinite(x)):
        raise NonFiniteInputError("state has a NaN or infinite entry")
    else:
        with np.errstate(**_HUGE_STATE_ERRSTATE):
            root = _solve(d, x, s0, float(_scaled_log_norms(d, x[:, None])[0]))
    if root[0] > _LOG_MAX:
        raise NormOverflowError("homogeneous norm of the state exceeds the largest float")
    return root


def _solve_many_nonzero(d: Dilation, xs):
    """Row-batch twin of :func:`_solve_nonzero`: ``(cols, mask, s, y)`` with the rows
    of ``xs`` as ``cols`` and ``s, y`` solved on the columns ``mask`` selects."""
    cols = np.asarray(xs, dtype=float).T
    nrm = d.weighted_norms(cols)
    # A NaN or infinite |x|_P comes from a NaN or infinite entry or from an
    # overflow (to inf, or to NaN as inf - inf under a weight).
    over = ~np.isfinite(nrm)
    huge = over.any()
    if huge and not np.all(np.isfinite(cols[:, over])):
        raise NonFiniteInputError("a sample row has a NaN or infinite entry")
    mask = over | (nrm > _ZERO_THRESHOLD)
    sel = cols[:, mask]
    with np.errstate(**(_HUGE_STATE_ERRSTATE if huge else {})):
        # The norms of the contiguous copy: their last bits can differ from
        # those of the strided rows.
        t = np.log(d.weighted_norms(sel))
        if huge:
            t[over[mask]] = _scaled_log_norms(d, cols[:, over])
        s, y = _solve_many(d, sel, t)
    if s.size and s.max() > _LOG_MAX:
        raise NormOverflowError("homogeneous norm of a sample row exceeds the largest float")
    return cols, mask, s, y


def hom_norm(d: Dilation, x) -> float:
    """Canonical homogeneous norm of ``x``; zero below the zero threshold."""
    root = _solve_nonzero(d, x)
    return 0.0 if root is None else math.exp(root[0])


def hom_norm_many(d: Dilation, xs) -> np.ndarray:
    """Row-wise homogeneous norms of the sample matrix ``xs`` (one sample per row)."""
    _, mask, s, _ = _solve_many_nonzero(d, xs)
    out = np.zeros(len(mask))
    out[mask] = np.exp(s)
    return out


def hom_project(d: Dilation, x) -> np.ndarray:
    """Projection ``exp(-ln|x|_d G) x`` onto the unit sphere of the weighted norm."""
    root = _solve_nonzero(d, x)
    if root is None:
        raise ZeroVectorError("cannot project the origin onto the unit sphere")
    return root[1]


def phi(d: Dilation, x) -> np.ndarray:
    """Straightening map ``x -> |x|_d * exp(-ln|x|_d G) x``; the origin maps to itself."""
    root = _solve_nonzero(d, x)
    if root is None:
        return np.zeros(d.dim)
    s, y = root
    return math.exp(s) * y


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
    """Inverse straightening map ``z -> exp(ln|z|_P G) z / |z|_P``; raises
    :class:`NormOverflowError` where the result is past the largest float."""
    z = np.asarray(z, dtype=float)
    nrm = d.weighted_norm(z)
    if nrm <= _ZERO_THRESHOLD:
        return np.zeros(d.dim)
    if math.isfinite(nrm):
        t = math.log(nrm)
        # |exp(tG) z|_P <= exp(t*eta_max) |z|_P = exp(t*(eta_max + 1)).
        if t * (d.eta_max + 1.0) <= _LOG_SAFE:
            return d.apply(t, z) / nrm
        u = z / nrm
    elif not np.all(np.isfinite(z)):
        raise NonFiniteInputError("state has a NaN or infinite entry")
    else:
        c = float(np.max(np.abs(z)))
        w = d.weighted_norm(z / c)
        t, u = math.log(c) + math.log(w), z / c / w
    # exp(tG) z, or |z|_P itself, can overflow: exponentiate the unit vector z / |z|_P.
    return _apply_unit(d, t, u)


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
    root = _solve_nonzero(fd.dilation, x)
    if root is None:
        raise ZeroVectorError("projection index is undefined at the origin")
    return -_radial_cell(math.exp(-fd.step), fd.rho, math.exp(root[0]))


def tilde_scale(d: Dilation, lam: float, x) -> np.ndarray:
    """Scalar action: ``sign(lam) * exp(ln|lam| G) x``; ``lam = 0`` gives the origin."""
    lam = float(lam)
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(lam) and np.all(np.isfinite(x))):
        raise NonFiniteInputError("scalar or state has a NaN or infinite entry")
    if lam == 0.0:
        return np.zeros(d.dim)
    scaled = d.apply(math.log(abs(lam)), x)
    return scaled if lam > 0 else -scaled


def distance_bound_alpha1(d: Dilation, vartheta: float) -> float:
    """Upper bound on ``|y -~ x|_d^2 / |x|_d^2`` in terms of the straightened gap.

    ``vartheta`` is ``|phi(y) - phi(x)|_P / |phi(x)|_P``.  The bound composes
    the generator gain with the norm-comparison exponents; the decreasing
    branch saturates once ``vartheta >= 1``.
    """
    vartheta = float(vartheta)
    if vartheta < 0:
        raise NegativeInputError("vartheta must be nonnegative")
    e_lo, e_hi = d.eta_min, d.eta_max
    grow = ((vartheta + 1.0) ** e_hi - 1.0) / e_hi
    shrink = (1.0 - max(1.0 - vartheta, 0.0) ** e_lo) / e_lo
    gap = d._gnorm * max(grow, shrink) + 2.0 * vartheta
    return max(gap ** (1.0 / e_hi), gap ** (1.0 / e_lo)) ** 2

