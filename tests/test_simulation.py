"""Closed-loop integration, feedback evaluation, and trajectory reductions."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import homquant
from homquant import (
    EmptyTrajectoryError,
    HomFeedback,
    HomPlant,
    NonFiniteStateError,
    QuantizerParams,
    Trajectory,
    UnsupportedDimensionError,
    example_plant,
    hom_feedback_eval,
    hom_norm,
    hom_project,
    hom_quantize,
    log_quantize,
    make_dilation,
    settling_metrics,
    simulate,
    spherical_quantize,
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


def test_simulate_rejects_quantizer_of_another_dimension(plant, feedback):
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=2)
    for x0 in ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(UnsupportedDimensionError):
            simulate(plant, feedback, p, x0, 1e-3, 1e-2)


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


def _pulled_back_residual(d, s, base, scaled):
    """Worst relative distance of the states of ``scaled``, pulled back by
    d(-s), from those of ``base``."""
    back = (d.matrix(-s) @ scaled.states.T).T
    return np.max(np.linalg.norm(back - base.states, axis=1)
                  / np.linalg.norm(base.states, axis=1))


def test_scaling_symmetry_of_discrete_flow(plant, feedback):
    """Scaling the start by d(s) and the step by exp(-s) reproduces the
    d(s)-image of the original discrete trajectory almost exactly, also at
    s = -30 and -60, where |x0|_P is far below 1e-12."""
    x0 = np.array([1.0, 1.0, 1.0])
    base = simulate(plant, feedback, None, x0, 1e-3, 1.0)
    for s in (math.log(2.0), -30.0, -60.0):
        scaled = simulate(plant, feedback, None, plant.dilation.apply(s, x0),
                          1e-3 * math.exp(-s), 1.0 * math.exp(-s))
        mapped = (plant.dilation.matrix(s) @ base.states.T).T
        denom = np.maximum(np.linalg.norm(mapped, axis=1), 1e-12)
        rel = np.linalg.norm(scaled.states - mapped, axis=1) / denom
        assert np.max(rel) <= 1e-9
        assert _pulled_back_residual(plant.dilation, s, base, scaled) <= 1e-12


def test_quantized_flow_has_the_discrete_scaling_symmetry(plant, feedback):
    """The quantized loop is homogeneous under the discrete group
    {exp(k ln(1/nu) G)}: started at exp(sG) x0 with s = k ln(1/nu), and with
    the step scaled by exp(-s), its states pulled back by exp(-sG) are the
    base run's, down to k = -170 (s = -60.6)."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    x0 = np.array([1.0, 1.0, 1.0])
    base = simulate(plant, feedback, p, x0, 1e-3, 0.4)
    for k in (1, -2, -84, -170):
        s = k * p.radial_step
        scaled = simulate(plant, feedback, p, plant.dilation.apply(s, x0),
                          1e-3 * math.exp(-s), 0.4 * math.exp(-s))
        assert len(scaled) == len(base)
        assert _pulled_back_residual(plant.dilation, s, base, scaled) <= 1e-12


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


@pytest.mark.parametrize("h, t_end", [(1e-3, 0.4), (1e-4, 0.5)])
def test_quantized_rows_equal_the_scalar_quantizer(plant, feedback, h, t_end):
    """Every recorded quantized state and control has the bits of the scalar
    quantizer applied to the recorded state, though simulate decodes each
    quantizer symbol only once."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    traj = simulate(plant, feedback, p, np.array([1.0, 1.0, 1.0]), h, t_end)
    d = plant.dilation
    for k in range(len(traj)):
        x = traj.states[k]
        assert np.array_equal(traj.quantized_states[k], hom_quantize(d, p, x))
        value, _ = log_quantize(p, hom_norm(d, x))
        seed = spherical_quantize(d, p, hom_project(d, x))
        assert np.array_equal(traj.controls[k], value ** feedback.norm_power
                              * feedback.gain.dot(seed))


def test_decoded_symbol_table_starts_over_when_full(plant, feedback, monkeypatch):
    """A run that fills the table of decoded symbols again and again gives
    the bits of a run that never does."""
    import homquant.simulation as simulation
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    x0 = np.array([1.0, 1.0, 1.0])
    expect = simulate(plant, feedback, p, x0, 1e-3, 0.4)
    monkeypatch.setattr(simulation, "_DECODED_MAX", 2)
    traj = simulate(plant, feedback, p, x0, 1e-3, 0.4)
    for name in ("states", "quantized_states", "controls", "hom_norms"):
        assert np.array_equal(getattr(traj, name), getattr(expect, name))


_DECODE_RUNS = [(0.7, math.pi / 20, GAIN), (0.7, math.pi / 20, [[-3.0, -9.0, -11.0]]),
                (0.5, math.pi / 10, GAIN), (0.5, math.pi / 10, [[-3.0, -9.0, -11.0]])]


def _decode_run(nu, delta_angle, gain):
    p = QuantizerParams(nu=nu, delta_angle=delta_angle, dim=3)
    traj = simulate(example_plant(), HomFeedback(gain=gain, norm_power=4.0), p,
                    [1.0, 1.0, 1.0], 1e-3, 0.2)
    return np.hstack([traj.states, traj.quantized_states, traj.controls,
                      traj.hom_norms[:, None]])


def test_quantized_runs_do_not_share_decoded_symbols(tmp_path):
    """Quantized runs with two parameter sets and two gains, interleaved in
    one process, give the bits of the same run made alone in a fresh one."""
    src = str(Path(homquant.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    for j, run in enumerate(_DECODE_RUNS):
        code = (f"import numpy as np; from test_simulation import _decode_run; "
                f"np.save({str(tmp_path / f'{j}.npy')!r}, _decode_run(*{run!r}))")
        subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                       timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])))
    for j in (3, 0, 2, 1, 0, 3, 2):
        assert np.array_equal(_decode_run(*_DECODE_RUNS[j]), np.load(tmp_path / f"{j}.npy"))


def test_blowup_raises_and_carries_partial_rows(plant):
    unstable = HomFeedback(gain=[[5.5055, 15.8387, 16.3807]], norm_power=4.0)
    with pytest.raises(NonFiniteStateError) as info:
        simulate(plant, unstable, None, np.array([1.0, 1.0, 1.0]), 1e-2, 5.0)
    partial = info.value.trajectory
    assert partial is not None and 0 < len(partial) < 501
    assert np.all(np.isfinite(partial.states))


@pytest.mark.parametrize("quantized", [False, True], ids=["nominal", "quantized"])
def test_huge_state_raises_non_finite_state_error(plant, feedback, quantized):
    """|x|_d ** norm_power past the largest float overflows a Python float in
    the feedback: at the first row on the benchmark loop, and in the second
    RK4 stage, at 2 x0, for the drift x with h = 2 (|x0|_d**3 is 6.4e307)."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3) if quantized else None
    with pytest.raises(NonFiniteStateError) as info:
        simulate(plant, feedback, p, np.array([0.0, 0.0, 1e150]), 1e-3, 2e-3)
    assert len(info.value.trajectory) == 0
    d = make_dilation(np.eye(2))
    linear = HomPlant(drift=lambda x: x, input_matrix=[[1.0], [0.0]], degree=0.0, dilation=d)
    cubic = HomFeedback(gain=[[0.0, 0.0]], norm_power=3.0)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=2) if quantized else None
    with pytest.raises(NonFiniteStateError) as info:
        simulate(linear, cubic, p, np.array([4e102, 0.0]), 2.0, 4.0)
    partial = info.value.trajectory
    assert len(partial) == 1 and partial.states[0, 0] == 4e102


@pytest.mark.parametrize("quantized", [False, True], ids=["nominal", "quantized"])
def test_state_whose_weighted_norm_overflows_is_integrated(plant, feedback, quantized):
    """|x|_P of (1e160, 0, 0) overflows but |x|_d is 2.2e53: the first row is
    solved as hom_norm solves it, and the blow-up ends the run one row later."""
    d = plant.dilation
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3) if quantized else None
    x0 = np.array([1e160, 0.0, 0.0])
    with pytest.raises(NonFiniteStateError, match="t=0.001$") as info:
        simulate(plant, feedback, p, x0, 1e-3, 2e-3)
    partial = info.value.trajectory
    assert len(partial) == 1 and np.array_equal(partial.states[0], x0)
    with np.errstate(over="ignore"):  # numpy's warning on |x0|_P (see the README)
        assert partial.hom_norms[0] == hom_norm(d, x0)
        if quantized:
            assert np.array_equal(partial.quantized_states[0], hom_quantize(d, p, x0))


@pytest.mark.parametrize("quantized", [False, True], ids=["nominal", "quantized"])
def test_overflow_in_a_later_stage_ends_the_run_after_its_row(quantized):
    """A drift that overflows makes the second RK4 stage's input infinite:
    the run keeps the row of that step and reports the time of the next."""
    d = make_dilation(np.eye(2))
    steep = HomPlant(drift=lambda x: 1e150 * x, input_matrix=[[1.0], [0.0]], degree=0.0,
                     dilation=d)
    zero = HomFeedback(gain=[[0.0, 0.0]], norm_power=1.0)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=2) if quantized else None
    with pytest.raises(NonFiniteStateError, match="t=1e[+]160$") as info:
        simulate(steep, zero, p, np.array([1.0, 0.0]), 1e160, 2e160)
    partial = info.value.trajectory
    assert len(partial) == 1 and partial.states[0].tolist() == [1.0, 0.0]


def test_underflowed_norm_is_the_origin_in_the_loop():
    """A state whose homogeneous norm is below the floor (1e-1000 under 0.01*I)
    is the origin for the quantized loop as for the nominal one: every later
    row is zero, with no numpy warning."""
    d = make_dilation(0.01 * np.eye(2))
    decay = HomPlant(drift=lambda x: -x, input_matrix=[[1.0], [0.0]], degree=0.0, dilation=d)
    zero = HomFeedback(gain=[[0.0, 0.0]], norm_power=1.0)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=2)
    x0 = np.array([1e-10, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nominal = simulate(decay, zero, None, x0, 1e-2, 0.05)
        quantized = simulate(decay, zero, p, x0, 1e-2, 0.05)
    assert np.array_equal(nominal.states[0], x0) and not np.any(nominal.states[1:])
    assert not np.any(nominal.hom_norms)
    for name in ("states", "quantized_states", "controls", "hom_norms"):
        assert np.array_equal(getattr(quantized, name), getattr(nominal, name))


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
