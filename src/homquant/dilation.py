"""Linear continuous dilations: construction, evaluation, growth bounds.

A dilation is the one-parameter matrix group ``s -> exp(s*G)`` generated by a
square matrix ``G``.  All geometry in this package is measured in a weighted
Euclidean norm ``|x|_P = sqrt(x' P x)`` with ``P`` symmetric positive
definite; a generator is accepted only when the group is strictly monotone in
that norm, which is equivalent to positive definiteness of ``P G + G' P``.

The extremal growth exponents ``eta_min`` and ``eta_max`` (half the smallest
and largest eigenvalues of ``P^{1/2} G P^{-1/2} + P^{-1/2} G' P^{1/2}``)
bracket the weighted operator norm of ``exp(s*G)`` between ``exp(eta_min*s)``
and ``exp(eta_max*s)`` for ``s >= 0``, with the roles swapped for ``s <= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import NotMonotoneError, NotPositiveDefiniteError, NotSymmetricError

# Absolute floor on smallest eigenvalues in definiteness checks.
EIG_TOL = 1e-10
# Allowed relative asymmetry of the weight matrix.
_SYM_REL_TOL = 1e-12
# Acceptance threshold for the cached eigendecomposition backend.
_RECON_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Dilation:
    """Strictly monotone linear dilation with a cached evaluation backend.

    Immutable after construction; build instances with :func:`make_dilation`.
    Instances compare by identity.  The private fields select one of three
    evaluation routes for ``exp(s*G)``: elementwise exponential for diagonal
    generators, a frozen eigendecomposition when it reproduces the generator
    to near machine precision, and a dense matrix exponential otherwise.
    """

    generator: np.ndarray
    weight: np.ndarray
    eta_min: float
    eta_max: float
    dim: int
    _mode: str = field(repr=False)
    _diag: np.ndarray | None = field(repr=False)
    _evals: np.ndarray | None = field(repr=False)
    _evecs: np.ndarray | None = field(repr=False)
    _evecs_inv: np.ndarray | None = field(repr=False)
    _p_sqrt: np.ndarray = field(repr=False)
    _p_sqrt_inv: np.ndarray = field(repr=False)
    _pg: np.ndarray = field(repr=False)
    _gnorm: float = field(repr=False)
    _p_is_identity: bool = field(repr=False)

    def matrix(self, s: float) -> np.ndarray:
        """Dense ``exp(s*G)``."""
        if self._mode == "diag":
            return np.diag(np.exp(s * self._diag))
        if self._mode == "eig":
            m = (self._evecs * np.exp(s * self._evals)) @ self._evecs_inv
            return np.ascontiguousarray(m.real)
        return expm(s * self.generator)

    def apply(self, s: float, x: np.ndarray) -> np.ndarray:
        """``exp(s*G) @ x`` without forming the matrix when a fast backend exists."""
        if self._mode == "diag":
            return np.exp(s * self._diag) * x
        if self._mode == "eig":
            y = self._evecs_inv @ x
            return ((self._evecs * np.exp(s * self._evals)) @ y).real
        return expm(s * self.generator) @ x

    def apply_each(self, svals: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Column ``j`` of the result is ``exp(svals[j]*G) @ cols[:, j]``."""
        if self._mode == "diag":
            return np.exp(np.outer(self._diag, svals)) * cols
        if self._mode == "eig":
            c = self._evecs_inv @ cols
            return (self._evecs @ (np.exp(np.outer(self._evals, svals)) * c)).real
        out = np.empty(cols.shape, dtype=float)
        for j, s in enumerate(np.asarray(svals, dtype=float)):
            out[:, j] = expm(s * self.generator) @ cols[:, j]
        return out

    def weighted_norm(self, x: np.ndarray) -> float:
        """``sqrt(x' P x)``; not finite, and without a numpy warning, if ``x`` is not."""
        if self._p_is_identity:
            return math.sqrt(x.dot(x))
        with np.errstate(invalid="ignore"):
            return math.sqrt(x.dot(self.weight @ x))

    def weighted_norms(self, cols: np.ndarray) -> np.ndarray:
        """Weighted norms of the columns of ``cols``, as :meth:`weighted_norm`."""
        if self._p_is_identity:
            return np.sqrt(np.einsum("ij,ij->j", cols, cols))
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.einsum("ij,ij->j", cols, self.weight @ cols))

    def to_euclidean(self, u: np.ndarray) -> np.ndarray:
        """``P^{1/2} u`` (``u`` a vector or one per column), in which ``|u|_P`` is Euclidean."""
        return u if self._p_is_identity else self._p_sqrt @ u

    def from_euclidean(self, w: np.ndarray) -> np.ndarray:
        """``P^{-1/2} w``, the inverse of :meth:`to_euclidean`."""
        return w if self._p_is_identity else self._p_sqrt_inv @ w


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def make_dilation(generator, weight=None) -> Dilation:
    """Validate a generator/weight pair and build a :class:`Dilation`.

    ``weight`` defaults to the identity.  Raises :class:`NotSymmetricError`,
    :class:`NotPositiveDefiniteError` or :class:`NotMonotoneError` when the
    pair fails the structural requirements.
    """
    g = np.array(generator, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("generator has non-finite entries")
    n = g.shape[0]

    p = np.eye(n) if weight is None else np.array(weight, dtype=float)
    if p.shape != (n, n):
        raise ValueError(f"weight must have shape {(n, n)}, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("weight has non-finite entries")

    scale = float(np.max(np.abs(p)))
    if float(np.max(np.abs(p - p.T))) > _SYM_REL_TOL * scale:
        raise NotSymmetricError("weight matrix is not symmetric")
    p = 0.5 * (p + p.T)

    p_evals, p_evecs = np.linalg.eigh(p)
    if p_evals[0] <= EIG_TOL:
        raise NotPositiveDefiniteError(
            f"weight matrix is not positive definite (min eigenvalue {p_evals[0]:.3e})"
        )

    lmi = p @ g + g.T @ p
    lmi_min = float(np.linalg.eigvalsh(0.5 * (lmi + lmi.T))[0])
    if lmi_min <= EIG_TOL:
        raise NotMonotoneError(
            "generator is not strictly monotone for this weight: "
            f"min eigenvalue of P G + G' P is {lmi_min:.3e}"
        )

    sq = (p_evecs * np.sqrt(p_evals)) @ p_evecs.T
    sq_inv = (p_evecs / np.sqrt(p_evals)) @ p_evecs.T
    m = sq @ g @ sq_inv
    sym_evals = np.linalg.eigvalsh(m + m.T)
    eta_min = float(sym_evals[0]) / 2.0
    eta_max = float(sym_evals[-1]) / 2.0
    gnorm = float(np.linalg.norm(m, 2))

    mode = "expm"
    diag = evals = evecs = evecs_inv = None
    if np.count_nonzero(g - np.diag(np.diagonal(g))) == 0:
        mode = "diag"
        diag = _freeze(np.diagonal(g))
    else:
        try:
            w, v = np.linalg.eig(g)
            v_inv = np.linalg.inv(v)
            recon = (v * w) @ v_inv
            if np.max(np.abs(recon - g)) <= _RECON_REL_TOL * max(1.0, np.max(np.abs(g))):
                mode = "eig"
                evals = _freeze(w)
                evecs = _freeze(v)
                evecs_inv = _freeze(v_inv)
        except np.linalg.LinAlgError:
            pass

    return Dilation(
        generator=_freeze(g),
        weight=_freeze(p),
        eta_min=eta_min,
        eta_max=eta_max,
        dim=n,
        _mode=mode,
        _diag=diag,
        _evals=evals,
        _evecs=evecs,
        _evecs_inv=evecs_inv,
        _p_sqrt=_freeze(sq),
        _p_sqrt_inv=_freeze(sq_inv),
        _pg=_freeze(p @ g),
        _gnorm=gnorm,
        _p_is_identity=bool(np.array_equal(p, np.eye(n))),
    )


def dilate(d: Dilation, s: float) -> np.ndarray:
    """Group element ``exp(s*G)`` as a dense matrix."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("dilation parameter must be finite")
    return d.matrix(s)


def dilation_norm_bounds(d: Dilation, s: float) -> tuple[float, float]:
    """Lower/upper bounds on the weighted gain of ``exp(s*G)``.

    For every ``x``: ``lower * |x|_P <= |exp(s*G) x|_P <= upper * |x|_P``.
    """
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("dilation parameter must be finite")
    if s >= 0:
        return math.exp(d.eta_min * s), math.exp(d.eta_max * s)
    return math.exp(d.eta_max * s), math.exp(d.eta_min * s)
