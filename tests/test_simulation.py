"""Closed-loop integration, feedback evaluation, and trajectory reductions."""

import math

import numpy as np
import pytest

from homquant import (
    EmptyTrajectoryError,
    HomFeedback,
    HomPlant,
    NonFiniteStateError,
    QuantizerParams,
    Trajectory,
    example_plant,
    hom_feedback_eval,
    hom_norm,
    hom_quantize,
    settling_metrics,
    simulate,
)

GAIN = [[-5.5055, -15.8387, -16.3807]]


@pytest.fixture(scope="module")
def plant():
    return example_plant()


@pytest.fixture(scope="module")
def feedback():
    return HomFeedback(gain=GAIN, norm_power=4.0)


# ----------------------------------------------------------------- components

def test_example_plant_shape(plant):
    assert plant.dilation.dim == 3
    assert plant.input_matrix.shape == (3, 1)
    assert plant.degree == 1.0


def test_plant_rejects_inhomogeneous_drift(plant):
    with pytest.raises(ValueError):
        HomPlant(drift=lambda x: x * x, input_matrix=plant.input_matrix,
                 degree=1.0, dilation=plant.dilation)


def test_plant_rejects_wrong_input_rows(plant):
    with pytest.raises(ValueError):
        HomPlant(drift=plant.drift, input_matrix=np.ones((2, 1)),
                 degree=1.0, dilation=plant.dilation)


def test_feedback_validation():
    with pytest.raises(ValueError):
        HomFeedback(gain=[[math.nan, 0.0, 0.0]], norm_power=4.0)
    with pytest.raises(ValueError):
        HomFeedback(gain=GAIN, norm_power=math.inf)


def test_feedback_homogeneity(plant, feedback, rng):
    """u(exp(sG)x) = exp(4s) u(x) for the norm_power-4 law."""
    d = plant.dilation
    for _ in range(40):
        x = rng.standard_normal(3) * 2.0
        s = rng.uniform(-2.0, 2.0)
        u0 = hom_feedback_eval(feedback, d, x)
        u1 = hom_feedback_eval(feedback, d, d.apply(s, x))
        assert np.allclose(u1, math.exp(4.0 * s) * u0, rtol=1e-8)


def test_feedback_zero_state(plant, feedback):
    assert np.array_equal(hom_feedback_eval(feedback, plant.dilation, np.zeros(3)),
                          np.zeros(1))


# ----------------------------------------------------------------- integration

def test_simulate_shapes(plant, feedback):
    traj = simulate(plant, feedback, None, np.array([1.0, 1.0, 1.0]), 1e-2, 0.5)
    assert len(traj) == 51
    assert traj.states.shape == (51, 3)
    assert traj.quantized_states.shape == (51, 3)
    assert traj.controls.shape == (51, 1)
    assert np.allclose(traj.times, np.arange(51) * 1e-2)
    # without a quantizer the recorded quantized states equal the states
    assert np.array_equal(traj.quantized_states, traj.states)
    assert np.all(np.isfinite(traj.states))


def test_simulate_argument_validation(plant, feedback):
    x0 = np.ones(3)
    with pytest.raises(ValueError):
        simulate(plant, feedback, None, x0, 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate(plant, feedback, None, x0, 0.5, 0.1)
    with pytest.raises(ValueError):
        simulate(plant, feedback, None, np.ones(4), 0.01, 1.0)


def test_simulate_quant_must_be_params_or_none(plant, feedback):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    with pytest.raises(TypeError):
        simulate(plant, feedback, (plant.dilation, p), np.ones(3), 1e-2, 0.1)


def test_origin_is_equilibrium(plant, feedback):
    traj = simulate(plant, feedback, None, np.zeros(3), 1e-2, 0.3)
    assert np.max(np.abs(traj.states)) == 0.0
    assert np.max(np.abs(traj.controls)) == 0.0
    assert np.max(traj.hom_norms) == 0.0


def test_recorded_norms_match_states(plant, feedback):
    traj = simulate(plant, feedback, None, np.array([0.4, -1.2, 0.7]), 1e-3, 0.5)
    for k in range(0, len(traj), 50):
        assert traj.hom_norms[k] == pytest.approx(
            hom_norm(plant.dilation, traj.states[k]), rel=1e-10)


def test_rk4_against_adaptive_reference(plant, feedback):
    """One second of the nominal loop against scipy's RK45 at tight tolerance."""
    from scipy.integrate import solve_ivp

    x0 = np.array([1.0, 1.0, 1.0])
    traj = simulate(plant, feedback, None, x0, 1e-3, 1.0)

    def rhs(t, x):
        u = hom_feedback_eval(feedback, plant.dilation, x)
        return np.asarray(plant.drift(x), dtype=float) + plant.input_matrix @ u

    ref = solve_ivp(rhs, (0.0, 1.0), x0, rtol=1e-11, atol=1e-13)
    err = np.linalg.norm(traj.states[-1] - ref.y[:, -1])
    assert err <= 1e-6 * np.linalg.norm(ref.y[:, -1])


def test_scaling_symmetry_of_discrete_flow(plant, feedback):
    """Scaling the start by d(s) and the step by exp(-s) reproduces the
    d(s)-image of the original discrete trajectory almost exactly."""
    s = math.log(2.0)
    x0 = np.array([1.0, 1.0, 1.0])
    base = simulate(plant, feedback, None, x0, 1e-3, 1.0)
    scaled = simulate(plant, feedback, None, plant.dilation.apply(s, x0),
                      1e-3 * math.exp(-s), 1.0 * math.exp(-s))
    mapped = (plant.dilation.matrix(s) @ base.states.T).T
    denom = np.maximum(np.linalg.norm(mapped, axis=1), 1e-12)
    rel = np.linalg.norm(scaled.states - mapped, axis=1) / denom
    assert np.max(rel) <= 1e-9


def test_quantized_run_records_quantizer_outputs(plant, feedback):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    traj = simulate(plant, feedback, p, np.array([1.0, 1.0, 1.0]), 1e-3, 0.4)
    d = plant.dilation
    for k in range(0, len(traj), 40):
        expect = hom_quantize(d, p, traj.states[k])
        assert np.allclose(traj.quantized_states[k], expect, rtol=1e-10, atol=1e-12)
        u = hom_feedback_eval(feedback, d, traj.quantized_states[k])
        assert np.allclose(traj.controls[k], u, rtol=1e-9)


def test_quantized_norms_on_grid(plant, feedback):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    traj = simulate(plant, feedback, p, np.array([1.0, 1.0, 1.0]), 1e-3, 0.4)
    for row in traj.quantized_states[::20]:
        rq = hom_norm(plant.dilation, row)
        steps = (math.log(rq) - math.log(p.xi0)) / math.log(p.nu)
        assert abs(steps - round(steps)) * p.radial_step <= 1e-9


def test_blowup_raises_and_carries_partial_rows(plant):
    unstable = HomFeedback(gain=[[5.5055, 15.8387, 16.3807]], norm_power=4.0)
    with pytest.raises(NonFiniteStateError) as info:
        simulate(plant, unstable, None, np.array([1.0, 1.0, 1.0]), 1e-2, 5.0)
    partial = info.value.trajectory
    assert partial is not None and 0 < len(partial) < 501
    assert np.all(np.isfinite(partial.states))


def test_row_guard_checks_entries_not_their_sum():
    """The per-row finiteness guard accepts finite entries whose sum would
    overflow and rejects any NaN or infinite entry."""
    from homquant.simulation import _all_finite
    assert _all_finite(np.array([1.7e308, 1.7e308, -0.0]))
    for bad in (math.nan, math.inf, -math.inf):
        assert not _all_finite(np.array([1.0, bad, 1.0]))


# ------------------------------------------------------------------ reductions

def _mk_traj(norm_profile):
    n = len(norm_profile)
    states = np.zeros((n, 3))
    states[:, 0] = norm_profile
    zeros = np.zeros((n, 3))
    return Trajectory(times=np.arange(n) * 0.1, states=states,
                      quantized_states=zeros, controls=np.zeros((n, 1)),
                      hom_norms=np.zeros(n))


def test_settling_metrics_basic():
    traj = _mk_traj([1.0, 4.0, 2.0, 0.5, 0.05, 0.02, 0.01])
    t_enter, overshoot = settling_metrics(traj, 0.1)
    assert t_enter == pytest.approx(0.4)
    assert overshoot == pytest.approx(4.0)


def test_settling_metrics_never_settles():
    traj = _mk_traj([1.0, 0.05, 2.0])
    t_enter, overshoot = settling_metrics(traj, 0.1)
    assert t_enter is None
    assert overshoot == pytest.approx(2.0)


def test_settling_metrics_always_inside():
    traj = _mk_traj([0.05, 0.04, 0.03])
    t_enter, _ = settling_metrics(traj, 0.1)
    assert t_enter == pytest.approx(0.0)


def test_settling_metrics_validation():
    with pytest.raises(EmptyTrajectoryError):
        settling_metrics(_mk_traj([]), 0.1)
    with pytest.raises(ValueError):
        settling_metrics(_mk_traj([1.0]), 0.0)


def test_trajectory_row_mismatch_rejected():
    with pytest.raises(ValueError):
        Trajectory(times=np.zeros(3), states=np.zeros((2, 3)),
                   quantized_states=np.zeros((3, 3)), controls=np.zeros((3, 1)),
                   hom_norms=np.zeros(3))
