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

from .errors import NonFiniteInputError, NotMonotoneError, NotPositiveDefiniteError, NotSymmetricError

# Absolute floor on smallest eigenvalues in definiteness checks.
EIG_TOL = 1e-10
# Allowed relative asymmetry of the weight matrix.
_SYM_REL_TOL = 1e-12
# Acceptance thresholds for the cached eigendecomposition backend.  The
# error of V exp(s*Lambda) V^{-1} grows like cond(V): over |s| <= 20 it
# measured 0.1 to 1 times 1e-16 * cond(V) on near-defective 2x2 and 3x3
# generators, so a 1e-12 relative error target admits cond(V) <= 1e4.
_RECON_REL_TOL = 1e-12
_EIG_COND_MAX = 1e4

# Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM J.
# Matrix Anal. Appl. 26, 2005): Pade numerator coefficients b_0..b_13, and
# the largest 1-norm of s*G the unscaled approximant takes to double precision.
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
])
_THETA13 = 5.371920351148152


@dataclass(frozen=True, eq=False)
class Dilation:
    """Strictly monotone linear dilation with a cached evaluation backend.

    Immutable after construction; build instances with :func:`make_dilation`.
    Instances compare by identity.  The private fields select one of three
    evaluation routes for ``exp(s*G)``: elementwise exponential for diagonal
    generators, a frozen eigendecomposition when it reproduces the generator
    to near machine precision with a well-conditioned eigenvector matrix, and
    otherwise a scaling-and-squaring Pade kernel that exponentiates a whole
    vector of parameters at once.
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
    _pade: np.ndarray | None = field(repr=False)
    _g1norm: float = field(repr=False)

    def matrix(self, s: float) -> np.ndarray:
        """Dense ``exp(s*G)``."""
        if self._mode == "diag":
            return np.diag(np.exp(s * self._diag))
        if self._mode == "eig":
            m = (self._evecs * np.exp(s * self._evals)) @ self._evecs_inv
            return np.ascontiguousarray(m.real)
        return self._expm(s)

    def apply(self, s: float, x: np.ndarray) -> np.ndarray:
        """``exp(s*G) @ x`` without forming the matrix when a fast backend exists."""
        if self._mode == "diag":
            return np.exp(s * self._diag) * x
        if self._mode == "eig":
            y = self._evecs_inv @ x
            return ((self._evecs * np.exp(s * self._evals)) @ y).real
        # Elementwise products and sums, not matmul, so that the result has
        # the bits of the matching column of apply_each.
        return (self._expm(s) * x).sum(axis=1)

    def apply_each(self, svals: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Column ``j`` of the result is ``exp(svals[j]*G) @ cols[:, j]``."""
        if self._mode == "diag":
            return np.exp(np.outer(self._diag, svals)) * cols
        if self._mode == "eig":
            c = self._evecs_inv @ cols
            return (self._evecs @ (np.exp(np.outer(self._evals, svals)) * c)).real
        return (self._expm_many(svals) * cols.T[:, None, :]).sum(axis=2).T

    def _expm(self, s: float) -> np.ndarray:
        """``exp(s*G)`` on the expm backend: :meth:`_expm_many` for one ``s``,
        step for step on 2-D arrays and Python floats, and with its bits."""
        frac, expo = math.frexp(abs(s) * (self._g1norm / _THETA13))
        k = max(expo if frac > 0.5 else expo - 1, 0)
        c = math.ldexp(s * self._g1norm, -k)
        c2 = c * c
        w = [1.0, c]
        for i in range(2, 14):
            w.append(w[i - 2] * c2)
        terms = np.array(w)[:, None, None] * self._pade
        u = terms[1::2].sum(axis=0)
        v = terms[0::2].sum(axis=0)
        r = np.linalg.solve(v - u, v + u)
        for _ in range(k):
            r = r @ r
        return r

    def _expm_many(self, svals) -> np.ndarray:
        """``exp(s_j*G)`` for every entry of ``svals``, stacked as ``(m, n, n)``.

        Scaling and squaring: ``A_j = s_j*G / 2**k_j`` with the least
        ``k_j >= 0`` that brings ``|A_j|_1`` to at most theta_13, the
        [13/13] Pade approximant ``(V - U)^{-1} (V + U)`` of ``exp(A_j)`` from
        the cached powers of ``G/|G|_1``, then ``k_j`` squarings.  Every
        matrix is computed with the same operations in the same order
        whatever the batch, so it does not depend on the other entries.
        """
        s = np.asarray(svals, dtype=float)
        # k = ceil(log2(|s| |G|_1 / theta_13)), read off the binary exponent.
        frac, expo = np.frexp(np.abs(s) * (self._g1norm / _THETA13))
        k = np.maximum(np.where(frac > 0.5, expo, expo - 1), 0)
        c = np.ldexp(s * self._g1norm, -k)
        c2 = c * c
        w = np.empty((s.size, 14))
        w[:, 0] = 1.0
        w[:, 1] = c
        for i in range(2, 14):
            w[:, i] = w[:, i - 2] * c2
        terms = w[:, :, None, None] * self._pade
        u = terms[:, 1::2].sum(axis=1)
        v = terms[:, 0::2].sum(axis=1)
        r = np.linalg.solve(v - u, v + u)
        for j in range(int(k.max(initial=0))):
            idx = np.flatnonzero(k > j)
            ri = r[idx]
            r[idx] = ri @ ri
        return r

    def weighted_norm(self, x: np.ndarray) -> float:
        """``sqrt(x' P x)``; not finite if ``x`` is not, or if it overflows
        (NaN or inf).  Only an overflow under the identity weight makes numpy warn."""
        if self._p_is_identity:
            return math.sqrt(x.dot(x))
        with np.errstate(over="ignore", invalid="ignore"):
            return math.sqrt(x.dot(self.weight @ x))

    def weighted_norms(self, cols: np.ndarray) -> np.ndarray:
        """Weighted norms of the columns of ``cols``, as :meth:`weighted_norm`,
        without a numpy warning."""
        if self._p_is_identity:
            return np.sqrt(np.einsum("ij,ij->j", cols, cols))
        with np.errstate(over="ignore", invalid="ignore"):
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
    diag = evals = evecs = evecs_inv = pade = None
    if np.count_nonzero(g - np.diag(np.diagonal(g))) == 0:
        mode = "diag"
        diag = _freeze(np.diagonal(g))
    else:
        try:
            w, v = np.linalg.eig(g)
            v_inv = np.linalg.inv(v)
            recon = (v * w) @ v_inv
            if (np.max(np.abs(recon - g)) <= _RECON_REL_TOL * max(1.0, np.max(np.abs(g)))
                    and np.linalg.cond(v) <= _EIG_COND_MAX):
                mode = "eig"
                evals = _freeze(w)
                evecs = _freeze(v)
                evecs_inv = _freeze(v_inv)
        except np.linalg.LinAlgError:
            pass
    g1norm = 0.0
    if mode == "expm":
        # b_i (G/|G|_1)^i for i = 0..13; the normalised powers cannot overflow.
        g1norm = float(np.max(np.sum(np.abs(g), axis=0)))
        powers = [np.eye(n)]
        for _ in range(13):
            powers.append(powers[-1] @ (g / g1norm))
        pade = _freeze(_PADE13[:, None, None] * np.array(powers))

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
        _pade=pade,
        _g1norm=g1norm,
    )


def dilate(d: Dilation, s: float) -> np.ndarray:
    """Group element ``exp(s*G)`` as a dense matrix."""
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteInputError("dilation parameter must be finite")
    return d.matrix(s)


def dilation_norm_bounds(d: Dilation, s: float) -> tuple[float, float]:
    """Lower/upper bounds on the weighted gain of ``exp(s*G)``.

    For every ``x``: ``lower * |x|_P <= |exp(s*G) x|_P <= upper * |x|_P``.
    """
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteInputError("dilation parameter must be finite")
    if s >= 0:
        return math.exp(d.eta_min * s), math.exp(d.eta_max * s)
    return math.exp(d.eta_max * s), math.exp(d.eta_min * s)
