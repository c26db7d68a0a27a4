"""Closed-loop integration of dilation-homogeneous plants under exact and
quantized homogeneous state feedback.

The integrator is classical fixed-step RK4.  When a quantizer is attached,
the feedback sees the quantized state at every internal stage, not only at
sample times, so the recorded control always matches what actually drove the
plant.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .checks import SampleSpec, check_field_homogeneity
from .dilation import Dilation, make_dilation
from .errors import (DegreeMismatchError, EmptyTrajectoryError, NonFiniteInputError,
                     NonFiniteStateError, UnsupportedDimensionError)
from . import geometry, quantizer
from .kernel import kernel
from .quantizer import QuantizerParams, log_quantize, spherical_quantize

# Sampling plan for the construction-time homogeneity audit of a plant drift.
_DRIFT_AUDIT = SampleSpec(count=128, radius_range=(0.25, 4.0), seed=7)
_DRIFT_AUDIT_TOL = 1e-6


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


def _example_drift(x: np.ndarray) -> list[float]:
    x1, x2, x3 = x.tolist()  # Python floats: same IEEE results, less overhead
    return [x2 * x3 * x3 + x2 * x2, x1, x2 + x3 * x3]


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


def simulate(plant: HomPlant, fb: HomFeedback,
             quant: QuantizerParams | None,
             x0, h: float, t_end: float) -> Trajectory:
    """Integrate the closed loop with fixed-step RK4; ``quant``, if given,
    quantizes the fed-back state under the plant's dilation.

    A nonzero gain needs ``G B = (norm_power - degree) B``, which makes the closed
    loop homogeneous; otherwise :class:`DegreeMismatchError` is raised.
    Records ``round(t_end/h) + 1`` uniformly spaced rows.  Once the state is
    the origin (zero, or ``ln|x|_d`` below the floor of :mod:`~homquant.geometry`),
    the remaining rows are zero.  A NaN or infinite value in the state or in
    any derived quantity aborts with :class:`NonFiniteStateError` carrying the
    (entirely finite) rows recorded so far.
    """
    if quant is not None and not isinstance(quant, QuantizerParams):
        raise TypeError(f"quant must be QuantizerParams or None, got {type(quant).__name__}")
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("step size must be positive and finite")
    if not (t_end >= h and math.isfinite(t_end)):
        raise ValueError("t_end must be at least one step")
    x0 = geometry._as_states(plant.dilation, x0)
    n = plant.dilation.dim

    d, b = plant.dilation, plant.input_matrix
    gain, kappa = fb.gain, fb.norm_power
    m = len(gain)
    if gain.shape != (b.shape[1], n):
        raise UnsupportedDimensionError(f"gain of shape {gain.shape} does not fit the input "
                                        f"matrix of shape {b.shape}: it needs {(b.shape[1], n)}")
    # The loop is homogeneous iff the gain is zero or G B = (norm_power - degree) B.
    gb = d.generator @ b
    if np.any(gain) and np.max(np.abs(gb - (kappa - plant.degree) * b)) > 1e-12 * np.max(np.abs(gb)):
        raise DegreeMismatchError(f"norm_power {kappa:g} does not match the plant: the closed loop "
                                  f"is homogeneous only if G B = (norm_power - {plant.degree:g}) B")

    def finish(value, seed):
        # (u, B u) of a new quantizer symbol, whose state has the homogeneous norm `value`.
        u = value ** kappa * gain.dot(seed)
        return u.tolist(), b.dot(u).tolist()

    # Looked up per run, so a wrapper on geometry._solve or on a quantizer here is seen.
    encode = None if quant is None else quantizer._encoder(d, quant, finish, log_quantize,
                                                           spherical_quantize)
    code = kernel(n, m, True)
    stage = code["make_stage"](geometry._solve, d, plant.drift, gain, b, kappa, encode)
    steps = int(round(t_end / h))
    # States, quantized states, controls and homogeneous norms, row after row.
    rows = tuple(array("d") for _ in range(4))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            code["rk4"](stage, tuple(x0.tolist()), steps, h, *rows)
    except (OverflowError, NonFiniteInputError) as exc:
        raise NonFiniteStateError(f"state became non-finite at t={len(rows[3]) * h:.6g}",
                                  trajectory=_trajectory(rows, len(rows[3]), h, n, m)) from exc
    return _trajectory(rows, steps + 1, h, n, m)


def _trajectory(rows: tuple, count: int, h: float, n: int, m: int) -> Trajectory:
    """``count`` rows sampled every ``h``: the recorded ``rows``, then zeros (the origin)."""
    arrays = []
    for recorded, width in zip(rows, (n, n, m, 1)):
        a = np.frombuffer(recorded).reshape(-1, width)  # a view of the buffer, not a copy
        if len(a) < count:
            a = np.vstack([a, np.zeros((count - len(a), width))])
        arrays.append(a)
    return Trajectory(np.arange(count) * h, *arrays[:3], arrays[3].reshape(-1))


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
