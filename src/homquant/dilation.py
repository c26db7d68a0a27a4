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

from .errors import (NonFiniteInputError, NormOverflowError, NotMonotoneError,
                     NotPositiveDefiniteError, NotSymmetricError)

# Absolute floor on smallest eigenvalues in definiteness checks.
EIG_TOL = 1e-10
# Allowed relative asymmetry of the weight matrix.
_SYM_REL_TOL = 1e-12
# Acceptance thresholds for the cached eigendecomposition backend.  The
# error of V exp(s*Lambda) V^{-1} grows like cond(V): over |s| <= 20 it
# measured 0.1 to 1 times 1e-16 * cond(V) on near-defective 2x2 and 3x3
# generators, so a 1e-12 relative error target admits cond(V) <= 1e4.  Its
# real form W (see make_dilation) has cond(W) = cond(V) within a factor sqrt(2).
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
    generators, a frozen eigendecomposition in real block form when it
    reproduces the generator to near machine precision with a well-conditioned
    eigenvector matrix, and otherwise a scaling-and-squaring Pade kernel that
    exponentiates a whole vector of parameters at once.
    """

    generator: np.ndarray
    weight: np.ndarray
    eta_min: float
    eta_max: float
    dim: int
    _mode: str = field(repr=False)
    _diag: np.ndarray | None = field(repr=False)
    _units: tuple = field(repr=False)  # (row i, a, b): eigenvalue a (b = 0) or pair a +- ib
    _evecs: np.ndarray | None = field(repr=False)
    _evecs_inv: np.ndarray | None = field(repr=False)
    _p_sqrt: np.ndarray = field(repr=False)
    _p_sqrt_inv: np.ndarray = field(repr=False)
    _pg: np.ndarray = field(repr=False)
    _p_is_identity: bool = field(repr=False)
    _pade: np.ndarray | None = field(repr=False)
    _g1norm: float = field(repr=False)

    def matrix(self, s: float) -> np.ndarray:
        """Dense ``exp(s*G)``; a NaN or infinite ``s`` raises :class:`NonFiniteInputError`."""
        if not math.isfinite(s):
            raise NonFiniteInputError("dilation parameter must be finite")
        if self._mode == "diag":
            return np.diag(np.exp(s * self._diag))
        if self._mode == "eig":
            return self._eig(s, np.array(self._evecs_inv), np)
        return self._expm_many([s])[0]

    def apply(self, s: float, x: np.ndarray) -> np.ndarray:
        """``exp(s*G) @ x`` without forming the matrix when a fast backend exists.

        A raw kernel, as is :meth:`apply_each`: an overflow gives inf or NaN
        entries and numpy's warning.  ``phi_inv``, ``hom_quantize`` and
        ``hom_quantize_many`` raise ``NormOverflowError`` instead."""
        if self._mode == "diag":
            return np.exp(s * self._diag) * x
        if self._mode == "eig":
            z = self._evecs_inv @ x
            try:  # Python floats are faster on one state; math raises where numpy gives inf
                return self._eig(s, z.tolist(), math)
            except (OverflowError, ValueError):
                return self._eig(s, z, np)
        # apply_each's arithmetic on one column, so the result has its bits.
        return (self._expm_many([s])[0] * x).sum(axis=1)

    def apply_each(self, svals: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Column ``j`` of the result is ``exp(svals[j]*G) @ cols[:, j]``."""
        if self._mode == "diag":
            return np.exp(np.outer(self._diag, svals)) * cols
        if self._mode == "eig":
            return self._eig(svals, self._evecs_inv @ cols, np)
        return (self._expm_many(svals) * cols.T[:, None, :]).sum(axis=2).T

    @property
    def float_diagonal(self) -> tuple[float, ...] | None:
        """The generator's diagonal as Python floats where the norm solve runs on them
        (a diagonal generator under the identity weight), else ``None``."""
        return tuple(self._diag.tolist()) if self._mode == "diag" and self._p_is_identity else None

    def unit_residual(self, x: np.ndarray):
        """The map ``s -> (y, |y|_P**2, y' P G y)``, ``y = exp(-s*G) @ x``: the norm
        solve's unit equation ``|y|_P = 1`` and its Newton slope, evaluated in one place."""
        def residual(s):
            y = self.apply(-s, x)
            q = y.dot(y) if self._p_is_identity else y.dot(self.weight.dot(y))
            return y, float(q), float(y.dot(self._pg.dot(y)))
        return residual

    def unit_residual_each(self, svals: np.ndarray, cols: np.ndarray):
        """Column-batch twin of :meth:`unit_residual` at ``s = svals[j]`` on ``cols[:, j]``."""
        y = self.apply_each(-svals, cols)
        q = np.einsum("ij,ij->j", y, y if self._p_is_identity else self.weight @ y)
        return y, q, np.einsum("ij,ij->j", y, self._pg @ y)

    def _eig(self, s, z, xp):
        """``W exp(s*B) z`` for ``z = W^{-1} x``, on a list with ``xp = math`` or an array
        with ``xp = np``: per unit, an exp of ``s*a``, and a cos and a sin of ``s*b`` for a pair."""
        for i, a, b in self._units:
            e = xp.exp(a * s)
            if b:
                bs = b * s
                c, sn = e * xp.cos(bs), e * xp.sin(bs)
                z[i], z[i + 1] = c * z[i] + sn * z[i + 1], c * z[i + 1] - sn * z[i]
            else:
                z[i] *= e
        return self._evecs @ z

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

    mode, diag, evecs, evecs_inv, pade, units = "expm", None, None, None, None, ()
    if np.count_nonzero(g - np.diag(np.diagonal(g))) == 0:
        mode = "diag"
        diag = _freeze(np.diagonal(g))
    else:
        try:
            # Real block form G = W B W^{-1}: a pair a +- ib (b > 0, eigenvector v,
            # its conjugate next) gives the columns Re v, Im v of W and the block
            # [[a, b], [-b, a]] of B; a real eigenvalue keeps its eigenvector.
            w, v = np.linalg.eig(g)
            wr, b = np.array(v.real), np.maximum(w.imag[:-1], 0.0)
            wr[:, 1:][:, b > 0] = v[:, :-1][:, b > 0].imag
            wr_inv = np.linalg.inv(wr)
            recon = wr @ (np.diag(w.real) + np.diag(b, 1) - np.diag(b, -1)) @ wr_inv
            if (np.max(np.abs(recon - g)) <= _RECON_REL_TOL * max(1.0, np.max(np.abs(g)))
                    and np.linalg.cond(wr) <= _EIG_COND_MAX):
                mode = "eig"
                units = tuple((i, z.real, z.imag) for i, z in enumerate(w.tolist()) if z.imag >= 0)
                evecs = _freeze(wr)
                evecs_inv = _freeze(wr_inv)
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
        _units=units,
        _evecs=evecs,
        _evecs_inv=evecs_inv,
        _p_sqrt=_freeze(sq),
        _p_sqrt_inv=_freeze(sq_inv),
        _pg=_freeze(p @ g),
        _p_is_identity=bool(np.array_equal(p, np.eye(n))),
        _pade=pade,
        _g1norm=g1norm,
    )


def dilation_norm_bounds(d: Dilation, s: float) -> tuple[float, float]:
    """Lower/upper bounds on the weighted gain of ``exp(s*G)``.

    For every ``x``: ``lower * |x|_P <= |exp(s*G) x|_P <= upper * |x|_P``.
    Raises :class:`NormOverflowError` where ``upper`` exceeds the largest float.
    """
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteInputError("dilation parameter must be finite")
    try:
        bounds = math.exp(d.eta_min * s), math.exp(d.eta_max * s)
    except OverflowError:
        raise NormOverflowError("the gain bound of exp(s*G) exceeds the largest float") from None
    return bounds if s >= 0 else bounds[::-1]
