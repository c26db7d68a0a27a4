"""Canonical homogeneous norm and the geometry it induces.

The canonical homogeneous norm of a nonzero ``x`` is ``exp(s*)`` where ``s*``
is the unique solution of ``|exp(-s*G) x|_P = 1``; strict monotonicity of the
dilation makes the left side strictly decreasing in ``s``, so the root is
found by a bracketed Newton iteration with bisection fallback.  The bracket
comes from the growth exponents of the dilation.

``phi`` straightens the dilation geometry: it maps ``x`` to
``|x|_d * exp(-ln|x|_d G) x`` and sends the origin to itself.  Addition,
scalar action, matrix action and the inner product on the homogeneous space
are pulled back through ``phi``; norms and inner products of straightened
vectors always use the weight matrix of the dilation.
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


@dataclass(frozen=True)
class HomNormConfig:
    """Solver settings for the homogeneous norm root find."""

    rel_tol: float = 1e-12
    max_iter: int = 200
    zero_threshold: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.zero_threshold < 0:
            raise ValueError("zero_threshold must be nonnegative")


DEFAULT_CONFIG = HomNormConfig()


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


def _solve(d: Dilation, x: np.ndarray, cfg: HomNormConfig,
           s0: float | None = None, t: float | None = None) -> tuple[float, np.ndarray]:
    """Root ``s`` of ``|exp(-s*G) x|_P = 1`` and the unit vector ``exp(-s*G) x``.

    The caller guarantees ``|x|_P`` is above the zero threshold and may pass
    its logarithm as ``t``.  ``s0`` warm-starts the iteration (a nearby
    state's root, say); a guess that is not strictly inside the global
    bracket, NaN or infinite included, is replaced by the bracket midpoint,
    and the bracket keeps safeguarding every step either way.
    """
    if t is None:
        t = math.log(d.weighted_norm(x))
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
    # Stop at half the requested tolerance so the residual recomputed from
    # exp(s) by a caller stays within rel_tol despite the extra roundoff.
    tol = 0.5 * cfg.rel_tol
    for _ in range(cfg.max_iter):
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
        f"homogeneous norm solve did not reach rel_tol={cfg.rel_tol} "
        f"in {cfg.max_iter} iterations"
    )


def _solve_many(d: Dilation, cols: np.ndarray, cfg: HomNormConfig,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_solve` over the columns of ``cols`` (all nonzero),
    given their ``log|x|_P`` as ``t``."""
    lo = np.where(t >= 0, t / d.eta_max, t / d.eta_min)
    hi = np.where(t >= 0, t / d.eta_min, t / d.eta_max)
    s = 0.5 * (lo + hi)
    weight = d.weight
    pg = d._pg
    tol = 0.5 * cfg.rel_tol
    for _ in range(cfg.max_iter):
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
        f"vectorized homogeneous norm solve did not converge in {cfg.max_iter} iterations"
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


def _solve_nonzero(d: Dilation, x, cfg: HomNormConfig) -> tuple[float, np.ndarray] | None:
    """:func:`_solve` at ``x``, or ``None`` if ``|x|_P`` is at most the zero threshold.

    Raises :class:`NonFiniteInputError` if ``x`` has a NaN or infinite entry
    and :class:`NormOverflowError` if the homogeneous norm of ``x`` exceeds
    the largest float.
    """
    x = np.asarray(x, dtype=float)
    nrm = d.weighted_norm(x)
    if nrm <= cfg.zero_threshold:
        return None
    if math.isfinite(nrm):
        root = _solve(d, x, cfg, t=math.log(nrm))
    elif not np.all(np.isfinite(x)):
        raise NonFiniteInputError("state has a NaN or infinite entry")
    else:
        with np.errstate(**_HUGE_STATE_ERRSTATE):
            root = _solve(d, x, cfg, t=float(_scaled_log_norms(d, x[:, None])[0]))
    if root[0] > _LOG_MAX:
        raise NormOverflowError("homogeneous norm of the state exceeds the largest float")
    return root


def _solve_many_nonzero(d: Dilation, xs, cfg: HomNormConfig):
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
    mask = over | (nrm > cfg.zero_threshold)
    sel = cols[:, mask]
    with np.errstate(**(_HUGE_STATE_ERRSTATE if huge else {})):
        # The norms of the contiguous copy: their last bits can differ from
        # those of the strided rows.
        t = np.log(d.weighted_norms(sel))
        if huge:
            t[over[mask]] = _scaled_log_norms(d, cols[:, over])
        s, y = _solve_many(d, sel, cfg, t)
    if s.size and s.max() > _LOG_MAX:
        raise NormOverflowError("homogeneous norm of a sample row exceeds the largest float")
    return cols, mask, s, y


def hom_norm(d: Dilation, x, cfg: HomNormConfig = DEFAULT_CONFIG) -> float:
    """Canonical homogeneous norm of ``x``; zero below the zero threshold."""
    root = _solve_nonzero(d, x, cfg)
    return 0.0 if root is None else math.exp(root[0])


def hom_norm_many(d: Dilation, xs, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Row-wise homogeneous norms of the sample matrix ``xs`` (one sample per row)."""
    _, mask, s, _ = _solve_many_nonzero(d, xs, cfg)
    out = np.zeros(len(mask))
    out[mask] = np.exp(s)
    return out


def hom_project(d: Dilation, x, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Projection ``exp(-ln|x|_d G) x`` onto the unit sphere of the weighted norm."""
    root = _solve_nonzero(d, x, cfg)
    if root is None:
        raise ZeroVectorError("cannot project the origin onto the unit sphere")
    return root[1]


def phi(d: Dilation, x, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Straightening map ``x -> |x|_d * exp(-ln|x|_d G) x``; the origin maps to itself."""
    root = _solve_nonzero(d, x, cfg)
    if root is None:
        return np.zeros(d.dim)
    s, y = root
    return math.exp(s) * y


def phi_inv(d: Dilation, z, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Inverse straightening map ``z -> exp(ln|z|_P G) z / |z|_P``."""
    z = np.asarray(z, dtype=float)
    nrm = d.weighted_norm(z)
    if nrm <= cfg.zero_threshold:
        return np.zeros(d.dim)
    if math.isfinite(nrm):
        return d.apply(math.log(nrm), z) / nrm
    if not np.all(np.isfinite(z)):
        raise NonFiniteInputError("state has a NaN or infinite entry")
    # |z|_P overflows: exponentiate the unit vector z / |z|_P instead.
    c = float(np.max(np.abs(z)))
    w = d.weighted_norm(z / c)
    with np.errstate(over="ignore", invalid="ignore"):
        x = d.apply(math.log(c) + math.log(w), z / c / w)
    if not np.all(np.isfinite(x)):
        raise NormOverflowError("exp(ln|z|_P G) overflows at this state")
    return x


def phi_many(d: Dilation, xs, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Row-wise :func:`phi` of the sample matrix ``xs``."""
    cols, mask, s, y = _solve_many_nonzero(d, xs, cfg)
    out = np.zeros_like(cols, dtype=float)
    out[:, mask] = np.exp(s) * y
    return out.T


def projection_index(fd: FundamentalDomain, x, cfg: HomNormConfig = DEFAULT_CONFIG) -> int:
    """Unique integer ``k`` with ``rho <= exp(-k*step) |x|_d < rho*exp(step)``.

    The closed form ``floor(log(|x|_d / rho) / step)`` is verified against the
    membership inequality and nudged by one when floating-point roundoff at a
    cell boundary put it in the wrong cell.  A point sitting exactly on a cell
    edge can fold onto the boundary float itself, where the half-open bracket
    is unsatisfiable; such corner cases resolve to the nearest cell instead of
    failing.
    """
    a = fd.step
    root = _solve_nonzero(fd.dilation, x, cfg)
    if root is None:
        raise ZeroVectorError("projection index is undefined at the origin")
    r = math.exp(root[0])
    lo = fd.rho
    hi = fd.rho * math.exp(a)
    k = math.floor(math.log(r / fd.rho) / a)
    best, best_err = k, math.inf
    for cand in (k, k + 1, k - 1):
        folded = r * math.exp(-cand * a)
        if lo <= folded < hi:
            return cand
        err = max((lo - folded) / lo, (folded - hi) / hi)
        if err < best_err:
            best, best_err = cand, err
    if best_err <= 32.0 * np.finfo(float).eps:
        return best
    raise NoConvergenceError("no integer shift maps the point into the fundamental domain")


def tilde_add(d: Dilation, x, y, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Group addition pulled back through the straightening map."""
    return phi_inv(d, phi(d, x, cfg) + phi(d, y, cfg), cfg)


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


def hom_inner(d: Dilation, x, y, cfg: HomNormConfig = DEFAULT_CONFIG) -> float:
    """Inner product of the straightened vectors in the weighted metric."""
    u = phi(d, x, cfg)
    v = phi(d, y, cfg)
    return float(u @ (d.weight @ v))


def matrix_tilde_apply(d: Dilation, h, x, cfg: HomNormConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Linear action of ``h`` carried through the straightening map."""
    h = np.asarray(h, dtype=float)
    return phi_inv(d, h @ phi(d, x, cfg), cfg)


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

