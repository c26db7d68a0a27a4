"""Closed-loop integration of dilation-homogeneous plants under exact and
quantized homogeneous state feedback.

The integrator is classical fixed-step RK4.  When a quantizer is attached,
the feedback sees the quantized state at every internal stage, not only at
sample times, so the recorded control always matches what actually drove the
plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import SampleSpec, check_field_homogeneity
from .dilation import Dilation, make_dilation
from .errors import EmptyTrajectoryError, NonFiniteInputError, NonFiniteStateError
from .geometry import _apply_unit, _solve_nonzero
from .quantizer import (QuantizerParams, _check_dim, _spherical_cell, log_quantize,
                        spherical_quantize)

# Sampling plan for the construction-time homogeneity audit of a plant drift.
_DRIFT_AUDIT = SampleSpec(count=128, radius_range=(0.25, 4.0), seed=7)
_DRIFT_AUDIT_TOL = 1e-6
# Decoded quantizer symbols kept per simulate call; a fine angle grid can
# give every stage a new symbol, and the table then starts over.
_DECODED_MAX = 4096


@dataclass(frozen=True)
class HomFeedback:
    """State feedback ``u(x) = |x|_d^norm_power * gain @ exp(-ln|x|_d G) x``."""

    gain: np.ndarray
    norm_power: float

    def __post_init__(self):
        gain = np.atleast_2d(np.array(self.gain, dtype=float))
        if not np.all(np.isfinite(gain)):
            raise ValueError("gain has non-finite entries")
        if not math.isfinite(self.norm_power):
            raise ValueError("norm_power must be finite")
        gain.setflags(write=False)
        object.__setattr__(self, "gain", gain)


@dataclass(frozen=True)
class HomPlant:
    """Control-affine plant ``xdot = drift(x) + input_matrix @ u`` whose drift
    is homogeneous of the stated degree under the stated dilation; the degree
    is audited by sampling at construction time."""

    drift: object
    input_matrix: np.ndarray
    degree: float
    dilation: Dilation

    def __post_init__(self):
        b = np.atleast_2d(np.array(self.input_matrix, dtype=float))
        if b.shape[0] != self.dilation.dim:
            raise ValueError(
                f"input matrix must have {self.dilation.dim} rows, got shape {b.shape}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "input_matrix", b)
        residual = check_field_homogeneity(self.drift, self.dilation, self.degree, _DRIFT_AUDIT)
        if residual > _DRIFT_AUDIT_TOL:
            raise ValueError(
                f"drift is not homogeneous of degree {self.degree} under this dilation "
                f"(sampled residual {residual:.3e})"
            )


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop run.

    ``quantized_states`` equals ``states`` row for row when no quantizer was
    attached.  All arrays share their first dimension.
    """

    times: np.ndarray
    states: np.ndarray
    quantized_states: np.ndarray
    controls: np.ndarray
    hom_norms: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("states", "quantized_states", "controls", "hom_norms"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have {n} rows")

    def __len__(self) -> int:
        return len(self.times)


def _example_drift(x: np.ndarray) -> np.ndarray:
    x1, x2, x3 = x.tolist()  # Python floats: same IEEE results, less overhead
    return np.array([x2 * x3 * x3 + x2 * x2, x1, x2 + x3 * x3])


def example_plant(dilation: Dilation | None = None) -> HomPlant:
    """Built-in three-state benchmark plant.

    Drift ``(x2*x3^2 + x2^2, x1, x2 + x3^2)`` with a single input on the
    first coordinate; homogeneous of degree 1 under ``dilation``, by default
    the one generated by ``diag(3, 2, 1)`` with identity weight.  Raises
    ``ValueError`` when the drift is not homogeneous under ``dilation``.
    """
    d = make_dilation(np.diag([3.0, 2.0, 1.0])) if dilation is None else dilation
    b = np.array([[1.0], [0.0], [0.0]])
    return HomPlant(drift=_example_drift, input_matrix=b, degree=1.0, dilation=d)


def hom_feedback_eval(fb: HomFeedback, d: Dilation, x) -> np.ndarray:
    """Feedback law evaluated at ``x``; zero where :func:`~homquant.geometry.hom_norm` is 0."""
    root = _solve_nonzero(d, x)
    if root is None:
        return np.zeros(fb.gain.shape[0])
    s, y = root
    return math.exp(s * fb.norm_power) * (fb.gain @ y)


def _all_finite(a: np.ndarray) -> bool:
    """Every entry of the short vector ``a`` is finite, checked entry by entry
    (faster than numpy on a state-sized vector; no sum that could overflow)."""
    return all(map(math.isfinite, a.tolist()))


def simulate(plant: HomPlant, fb: HomFeedback,
             quant: QuantizerParams | None,
             x0, h: float, t_end: float) -> Trajectory:
    """Integrate the closed loop with fixed-step RK4; ``quant``, if given,
    quantizes the fed-back state under the plant's dilation.

    Records ``round(t_end/h) + 1`` uniformly spaced rows.  Once the state is
    the origin (zero, or ``ln|x|_d`` below the floor of :mod:`~homquant.geometry`),
    the remaining rows are zero.  A NaN or infinite value in the state or in
    any derived quantity aborts with :class:`NonFiniteStateError` carrying the
    (entirely finite) rows recorded so far.
    """
    if quant is not None:
        if not isinstance(quant, QuantizerParams):
            raise TypeError(f"quant must be QuantizerParams or None, got {type(quant).__name__}")
        _check_dim(plant.dilation, quant)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("step size must be positive and finite")
    if not (t_end >= h and math.isfinite(t_end)):
        raise ValueError("t_end must be at least one step")
    x0 = np.asarray(x0, dtype=float)
    n = plant.dilation.dim
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")

    d = plant.dilation
    b = plant.input_matrix
    m = fb.gain.shape[0]
    drift = plant.drift
    kappa = fb.norm_power
    gain = fb.gain
    # Quantized feedback, decoded once per symbol (radial value, angle cell)
    # as (u, x_hat).
    decoded: dict[tuple, tuple] = {}
    no_control = np.zeros(m)

    def stage(x, s0):
        # (xdot, x_hat, u, s) at one RK stage, with hom_norm = exp(s) (s is
        # -inf at the origin) and the solve warm-started at s0.  The gate
        # raises on a NaN or infinite x and on a norm past the largest float.
        root = _solve_nonzero(d, x, s0)
        s, x_hat, u = -math.inf, x, no_control
        if root is not None:
            s, y = root
            if quant is None:
                u = math.exp(s * kappa) * gain.dot(y)
            else:
                value, _ = log_quantize(quant, math.exp(s))
                # A grid value that underflows to 0.0 is the origin.
                if value > 0.0:
                    symbol = (value, *_spherical_cell(d, quant, y))
                    entry = decoded.get(symbol)
                    if entry is None:
                        if len(decoded) >= _DECODED_MAX:
                            decoded.clear()
                        seed = spherical_quantize(d, quant, y)
                        # The quantized state has homogeneous norm `value` by construction.
                        entry = decoded[symbol] = (value ** kappa * gain.dot(seed),
                                                   _apply_unit(d, math.log(value), seed))
                    u, x_hat = entry
        return np.asarray(drift(x), dtype=float) + b.dot(u), x_hat, u, s

    steps = int(round(t_end / h))
    times = np.arange(steps + 1) * h
    states = np.zeros((steps + 1, n))
    qstates = np.zeros((steps + 1, n))
    controls = np.zeros((steps + 1, m))
    norms = np.zeros(steps + 1)

    x = x0.copy()
    half = 0.5 * h
    sixth = h / 6.0
    # Warm starts: each stage's solve starts at the previous stage's root,
    # moved by half a step's change of s at the stages that sit half a step
    # further on (k2 and k4).  A NaN or infinite guess starts cold.
    guess = math.nan
    s1_last = None
    recorded = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps + 1):
                # The stage raises on a non-finite state and where its norm, the
                # control (a Python float power) or the quantized state passes
                # the largest float; a numpy product can still give an infinite
                # control.  Never record a partially poisoned row.
                k1, x_hat, u, s1 = stage(x, guess)
                r = math.exp(s1)
                if not _all_finite(u):
                    raise NonFiniteInputError("control has a NaN or infinite entry")
                states[k] = x
                qstates[k] = x_hat
                controls[k] = u
                norms[k] = r
                recorded = k + 1
                if k == steps or r == 0.0:
                    break  # at r == 0 the origin is reached: remaining rows stay zero
                ds = 0.0 if s1_last is None else 0.5 * (s1 - s1_last)
                s1_last = s1
                k2, _, _, s2 = stage(x + half * k1, s1 + ds)
                k3, _, _, s3 = stage(x + half * k2, s2)
                k4, _, _, guess = stage(x + h * k3, s3 + ds)
                x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except (OverflowError, NonFiniteInputError) as exc:
        partial = Trajectory(times[:recorded].copy(), states[:recorded].copy(),
                             qstates[:recorded].copy(), controls[:recorded].copy(),
                             norms[:recorded].copy())
        raise NonFiniteStateError(
            f"state became non-finite at t={recorded * h:.6g}", trajectory=partial
        ) from exc

    return Trajectory(times, states, qstates, controls, norms)


def settling_metrics(traj: Trajectory, threshold: float) -> tuple[float | None, float]:
    """``(t_enter, overshoot)`` of a trajectory.

    ``t_enter`` is the first recorded time after which the Euclidean state
    norm stays at or below ``threshold``; ``None`` when the run never settles.
    ``overshoot`` is the peak norm relative to the initial norm (zero for a
    run started at the origin).
    """
    if len(traj) == 0:
        raise EmptyTrajectoryError("trajectory has no samples")
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    norms = np.linalg.norm(traj.states, axis=1)
    overshoot = float(np.max(norms) / norms[0]) if norms[0] > 0 else 0.0
    above = norms > threshold
    if not np.any(above):
        return float(traj.times[0]), overshoot
    last = int(np.max(np.nonzero(above)[0]))
    if last == len(norms) - 1:
        return None, overshoot
    return float(traj.times[last + 1]), overshoot
