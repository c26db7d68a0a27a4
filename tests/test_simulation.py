"""Closed-loop integration, feedback evaluation, and trajectory reductions."""

import math
import os
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

import homquant
from homquant import geometry, quantizer
from homquant import (
    DegreeMismatchError,
    EmptyTrajectoryError,
    HomFeedback,
    HomPlant,
    NonFiniteStateError,
    QuantizerParams,
    Trajectory,
    UnsupportedDimensionError,
    example_plant,
    hom_norm,
    hom_norm_many,
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


def _control(fb, d, x):
    """The feedback law u(x) = |x|_d**norm_power * gain @ hom_project(x), zero at the origin."""
    r = hom_norm(d, x)
    return r ** fb.norm_power * (fb.gain @ hom_project(d, x)) if r > 0 else np.zeros(len(fb.gain))


def test_feedback_homogeneity(plant, feedback, rng):
    """u(exp(sG)x) = exp(4s) u(x) for the norm_power-4 law, read off the
    control simulate records at its first row."""
    d = plant.dilation
    for _ in range(40):
        x = rng.standard_normal(3) * 2.0
        s = rng.uniform(-2.0, 2.0)
        u0 = simulate(plant, feedback, None, x, 1e-3, 1e-3).controls[0]
        u1 = simulate(plant, feedback, None, d.apply(s, x), 1e-3, 1e-3).controls[0]
        assert np.allclose(u1, math.exp(4.0 * s) * u0, rtol=1e-8)
        assert np.allclose(u0, _control(feedback, d, x), rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("x0", [[1.0, 1.0], [[1.0, 1.0, 1.0]]], ids=["short", "rank2"])
def test_simulate_rejects_an_initial_state_of_the_wrong_shape(plant, feedback, x0):
    with pytest.raises(UnsupportedDimensionError, match="state of shape"):
        simulate(plant, feedback, None, x0, 1e-3, 1e-2)


@pytest.mark.parametrize("gain", [[[1.0, 2.0]], [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]],
                         ids=["2-columns", "2-rows"])
def test_simulate_rejects_a_gain_of_the_wrong_shape(plant, gain):
    """The gain must be (inputs, states) = (1, 3): another shape fails up front,
    naming both shapes, not inside the generated stage."""
    fb = HomFeedback(gain=gain, norm_power=4.0)
    for quant in (None, QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)):
        with pytest.raises(UnsupportedDimensionError) as info:
            simulate(plant, fb, quant, [1.0, 1.0, 1.0], 1e-3, 1e-2)
        assert f"{fb.gain.shape}" in str(info.value) and "(3, 1)" in str(info.value)


@pytest.mark.parametrize("quantized", [False, True], ids=["nominal", "quantized"])
def test_simulate_rejects_a_feedback_of_the_wrong_degree(plant, quantized):
    """The benchmark loop is homogeneous only at norm_power = 3 + 1 = 4, since
    G B = 3 B and the drift has degree 1; a zero gain fits any norm_power."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3) if quantized else None
    for kappa in (3.0, 4.0 + 1e-9):
        with pytest.raises(DegreeMismatchError, match="norm_power"):
            simulate(plant, HomFeedback(gain=GAIN, norm_power=kappa), p, np.ones(3), 1e-3, 1e-2)
    zero = HomFeedback(gain=[[0.0, 0.0, 0.0]], norm_power=3.0)
    assert len(simulate(plant, zero, p, np.ones(3), 1e-3, 1e-2)) == 11
    assert issubclass(DegreeMismatchError, homquant.HomquantError)
    assert issubclass(DegreeMismatchError, ValueError)


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
        u = _control(feedback, plant.dilation, x)
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
        u = _control(feedback, d, traj.quantized_states[k])
        assert np.allclose(traj.controls[k], u, rtol=1e-9)


# Weight of scripts/fingerprint.py's weighted run: its norm solve takes the numpy
# residual path rather than the float one.
WEIGHT = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]]


def _exactness_case(label):
    """(plant, feedback, dimension, x0) of a quantized run off the float path."""
    if label == "weighted":
        plant = example_plant(make_dilation(np.diag([3.0, 2.0, 1.0]), WEIGHT))
        return plant, HomFeedback(gain=GAIN, norm_power=4.0), 3, [1.0, 1.0, 1.0]
    if label == "2d":
        # x1' = u, x2' = x1: degree 1 under diag(2, 1), so norm_power is 1 + 2.
        d = make_dilation(np.diag([2.0, 1.0]))
        plant = HomPlant(drift=lambda x: np.array([0.0, x[0]]), input_matrix=[[1.0], [0.0]],
                         degree=1.0, dilation=d)
        return plant, HomFeedback(gain=[[-3.0, -2.0]], norm_power=3.0), 2, [1.0, -0.5]
    # The shear [[1.5, 0.6], [0, 1]] takes the eig backend; -x commutes with it
    # (degree 0), and its input e1 is the eigenvector of eigenvalue 1.5.
    d = make_dilation([[1.5, 0.6], [0.0, 1.0]])
    assert d._mode == "eig"
    plant = HomPlant(drift=lambda x: -x, input_matrix=[[1.0], [0.0]], degree=0.0, dilation=d)
    return plant, HomFeedback(gain=[[-1.0, -2.0]], norm_power=1.5), 2, [1.0, 1.0]


@pytest.mark.parametrize("label", ["weighted", "2d", "eig"])
def test_quantized_runs_record_hom_quantize_exactly(label):
    """Off the float path too (numpy residual, n = 2, eig backend), every recorded
    quantized state and control has the bits of the scalar quantizer applied to
    the recorded state, with the cached radial cell and the list-fed encoder."""
    plant, fb, n, x0 = _exactness_case(label)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=n)
    traj = simulate(plant, fb, p, np.array(x0), 1e-3, 0.4)
    d = plant.dilation
    assert len(traj) == 401 and len({hom_norm(d, q) for q in traj.quantized_states}) > 1
    for k in range(len(traj)):
        x = traj.states[k]
        assert np.array_equal(traj.quantized_states[k], hom_quantize(d, p, x))
        value, _ = log_quantize(p, hom_norm(d, x))
        seed = spherical_quantize(d, p, hom_project(d, x))
        assert np.array_equal(traj.controls[k], value ** fb.norm_power * fb.gain.dot(seed))


def test_one_solve_per_stage_and_log_quantize_only_on_a_new_radial_cell(
        plant, feedback, monkeypatch):
    """Every RK4 stage makes one call of geometry._solve, the scalar Newton core;
    the quantized loop calls log_quantize only when the norm leaves its last
    radial cell."""
    import homquant.simulation as simulation
    calls = {"solve": 0, "log_quantize": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geometry, "_solve", counted("solve", geometry._solve))
    monkeypatch.setattr(simulation, "log_quantize", counted("log_quantize", log_quantize))
    steps, x0 = 200, np.array([1.0, 1.0, 1.0])
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    simulate(plant, feedback, None, x0, 1e-3, steps * 1e-3)
    assert calls == {"solve": 4 * steps + 1, "log_quantize": 0}
    calls["solve"] = 0
    traj = simulate(plant, feedback, p, x0, 1e-3, steps * 1e-3)
    assert calls["solve"] == 4 * steps + 1
    levels = {log_quantize(p, r)[1] for r in traj.hom_norms}
    assert len(levels) <= calls["log_quantize"] < 4 * steps + 1


def _quantizer_with_rho(nu, rho):
    """Quantizer of dim 3 whose cell 0 has the lower edge ``rho`` exactly."""
    xi0 = rho * (1.0 + (1.0 - nu) / (1.0 + nu))
    for _ in range(16):
        p = QuantizerParams(nu=nu, delta_angle=math.pi / 20, dim=3, xi0=xi0)
        if p.rho == rho:
            return p
        xi0 = math.nextafter(xi0, math.inf if p.rho < rho else 0.0)
    raise AssertionError(f"no anchor puts rho at {rho!r}")


@pytest.mark.parametrize("nu", [0.1, 0.7, 0.95])
def test_cached_radial_cell_agrees_with_log_quantize_at_an_edge(nu, monkeypatch):
    """A still state whose norm sits on the computed edge of cell 0, or one float
    either side of it, is quantized by the first stage's log_quantize and then by
    the stage's cached cell: every row has the bits of hom_quantize."""
    import homquant.simulation as simulation
    d = make_dilation(np.diag([3.0, 2.0, 1.0]))
    still = HomPlant(drift=lambda x: np.zeros(3), input_matrix=[[1.0], [0.0], [0.0]],
                     degree=1.0, dilation=d)
    off = HomFeedback(gain=[[0.0, 0.0, 0.0]], norm_power=4.0)
    x0 = np.array([0.3, -0.2, 0.5])
    r = hom_norm(d, x0)
    calls = []
    monkeypatch.setattr(simulation, "log_quantize",
                        lambda p, z: calls.append(z) or log_quantize(p, z))
    for edge in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)):
        p = _quantizer_with_rho(nu, edge)
        assert quantizer._edge(p.nu, p.rho, 0) == edge
        expect = hom_quantize(d, p, x0)
        calls.clear()
        traj = simulate(still, off, p, x0, 1e-3, 0.01)
        assert calls == [r] and np.all(traj.hom_norms == r)
        for row in traj.quantized_states:
            assert np.array_equal(row, expect)
    # On the edge the cell is 0; below it, cell 1.
    assert log_quantize(_quantizer_with_rho(nu, r), r)[1] == 0
    assert log_quantize(_quantizer_with_rho(nu, math.nextafter(r, math.inf)), r)[1] == 1


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.7, 0.95])
def test_cell_bounds_hold_exactly_the_values_log_quantize_puts_there(nu):
    """At every computed edge and the floats either side of it, r lies in
    [_edge(i), _edge(i - 1)) for exactly the cell i that log_quantize returns:
    the stage's cache test picks the cell log_quantize would."""
    p = QuantizerParams(nu=nu, delta_angle=1.0, dim=3)
    for i in range(-60, 61, 3):
        e = quantizer._edge(p.nu, p.rho, i)
        for r in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf)):
            _, j = log_quantize(p, r)
            for k in (i - 1, i, i + 1):
                lo, hi = quantizer._edge(p.nu, p.rho, k), quantizer._edge(p.nu, p.rho, k - 1)
                assert (lo <= r < hi) == (k == j)


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
    import homquant.quantizer as quantizer
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    x0 = np.array([1.0, 1.0, 1.0])
    expect = simulate(plant, feedback, p, x0, 1e-3, 0.4)
    monkeypatch.setattr(quantizer, "_DECODED_MAX", 2)
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
    """The per-row finiteness guard on the control accepts finite entries whose
    sum would overflow and rejects an infinite entry: under exp(sI) with norm_power
    1, u = gain @ x, which is (1.7e308, 1.7e308) at x = (1, 0) and inf at (2, 0)."""
    d = make_dilation(np.eye(2))
    still = HomPlant(drift=lambda x: np.zeros(2), input_matrix=np.zeros((2, 2)), degree=0.0,
                     dilation=d)
    big = HomFeedback(gain=[[1.7e308, 0.0], [1.7e308, 0.0]], norm_power=1.0)
    traj = simulate(still, big, None, np.array([1.0, 0.0]), 1e-3, 2e-3)
    assert np.all(traj.controls == 1.7e308)
    with pytest.raises(NonFiniteStateError) as info:
        simulate(still, big, None, np.array([2.0, 0.0]), 1e-3, 2e-3)
    assert len(info.value.trajectory) == 0


@pytest.mark.parametrize("quantized", [False, True], ids=["nominal", "quantized"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_start_raises_non_finite_state_error(plant, feedback, quantized, bad):
    """A NaN or infinite start fails at the first stage's solve with no row recorded."""
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3) if quantized else None
    with pytest.raises(NonFiniteStateError) as info:
        simulate(plant, feedback, p, np.array([1.0, bad, 0.0]), 1e-3, 2e-3)
    assert len(info.value.trajectory) == 0
    assert isinstance(info.value.__cause__, homquant.NonFiniteInputError)


# ------------------------------------------------------------ generated kernel

def _chain_plant(n, m):
    """x1' = x1 xn + (B u)_1 and x_i' = x_(i-1): degree 1 under diag(n, ..., 1), with
    each of the m inputs on x1, so G B = n B and the loop takes norm_power n + 1."""
    d = make_dilation(np.diag(np.arange(n, 0, -1.0)))
    b = np.zeros((n, m))
    b[0] = [1.0, -0.5][:m]
    plant = HomPlant(drift=lambda x: np.array([x[0] * x[-1], *x[:-1]]), input_matrix=b,
                     degree=1.0, dilation=d)
    gain = [[-(k + 1.0) / (j + 1.0) for k in range(n)] for j in range(m)]
    return plant, HomFeedback(gain=gain, norm_power=n + 1.0), np.array([1.0, -0.5, 0.7, 0.3][:n])


def _reference_rk4(plant, fb, quant, x0, h, steps):
    """Fixed-step RK4 on numpy arrays, with the feedback built from hom_norm,
    hom_project and hom_quantize."""
    d, b = plant.dilation, plant.input_matrix

    def field(x):
        xq = x if quant is None else hom_quantize(d, quant, x)
        return np.asarray(plant.drift(x), dtype=float) + b @ _control(fb, d, xq)

    xs = [x0]
    for _ in range(steps):
        x = xs[-1]
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        xs.append(x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(xs)


@pytest.mark.parametrize("quantized", [False, True], ids=["nominal", "quantized"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_matches_a_numpy_rk4_for_every_shape(n, m, quantized):
    """The kernel generated for n states and m inputs integrates the loop as a
    numpy RK4 does: nominal rows within 1e-12 relative; every quantized row has
    the bits of hom_quantize applied to the recorded state."""
    plant, fb, x0 = _chain_plant(n, m)
    d = plant.dilation
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=n) if quantized else None
    traj = simulate(plant, fb, p, x0, 1e-3, 0.2)
    assert len(traj) == 201
    if quantized:
        assert len({tuple(q) for q in traj.quantized_states}) > 1
        for x, xq in zip(traj.states, traj.quantized_states):
            assert np.array_equal(xq, hom_quantize(d, p, x))
    else:
        ref = _reference_rk4(plant, fb, None, x0, 1e-3, 200)
        err = np.linalg.norm(traj.states - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.max(err) <= 1e-12


def _zero_or_x1(zero):
    """The drift (0, x1, 0), homogeneous of degree 1 under diag(3, 2, 1), with ``zero`` for 0."""
    return lambda x: [zero, float(x[0]), zero]


_BENCH_DRIFT = example_plant().drift
# Drift results of several types; each is read as the float array of it.
_DRIFT_KINDS = {
    "list": lambda x: list(_BENCH_DRIFT(x)),
    "tuple": lambda x: tuple(_BENCH_DRIFT(x)),
    "int-array": lambda x: np.zeros(3, dtype=int),  # the zero drift is homogeneous of every degree
    "float-array": lambda x: np.array(_BENCH_DRIFT(x)),
    "list-int": _zero_or_x1(0),
    "list-bool": _zero_or_x1(False),
    "list-float32": lambda x: [np.float32(v) for v in _BENCH_DRIFT(x)],
    "list-float64": lambda x: [np.float64(v) for v in _BENCH_DRIFT(x)],
}


@pytest.mark.parametrize("kind", sorted(_DRIFT_KINDS))
def test_drift_may_return_a_list_a_tuple_or_an_int_array(kind, feedback):
    """A drift's output is read as the float array of it whatever its type: a list of
    Python floats directly, anything else through numpy, with the same trajectory."""
    d = make_dilation(np.diag([3.0, 2.0, 1.0]))
    drift = _DRIFT_KINDS[kind]
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    for quant in (None, p):
        runs = [simulate(HomPlant(drift=f, input_matrix=[[1.0], [0.0], [0.0]], degree=1.0,
                                  dilation=d), feedback, quant, [1.0, 1.0, 1.0], 1e-3, 0.1)
                for f in (lambda x: np.asarray(drift(x), dtype=float), drift)]
        for name in ("states", "quantized_states", "controls", "hom_norms"):
            assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


def test_a_drift_with_complex_entries_raises(feedback):
    """A complex drift entry has no float value: the stage raises, as numpy does."""
    armed = []

    def drift(x):
        f = _BENCH_DRIFT(x)
        return [complex(v) for v in f] if armed else f

    plant = HomPlant(drift=drift, input_matrix=[[1.0], [0.0], [0.0]], degree=1.0,
                     dilation=make_dilation(np.diag([3.0, 2.0, 1.0])))
    armed.append(True)
    with pytest.raises(TypeError):
        simulate(plant, feedback, None, np.ones(3), 1e-3, 0.01)


@pytest.mark.parametrize("label", ["weighted", "eig"])
def test_weighted_and_eig_runs_take_the_generated_stage(label, monkeypatch):
    """A weighted diag and an eig-backend run solve from the same generated stage
    as the float path, and their recorded norms are the batch solve's to 1e-12."""
    plant, fb, n, x0 = _exactness_case(label)
    callers = set()
    solve = geometry._solve

    def spy(*args):
        caller = sys._getframe(1).f_code
        callers.add((caller.co_filename, caller.co_name))
        return solve(*args)

    monkeypatch.setattr(geometry, "_solve", spy)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=n)
    for quant in (None, p):
        traj = simulate(plant, fb, quant, np.array(x0), 1e-3, 0.2)
        expect = hom_norm_many(plant.dilation, traj.states)
        assert np.allclose(traj.hom_norms, expect, rtol=1e-12, atol=0.0)
    assert callers == {(f"<homquant kernel n={n} m=1>", "stage")}


def test_a_drift_error_shows_the_kernel_lines_in_its_traceback():
    """The generated source is registered in linecache, so a traceback through
    the kernel names its pseudo-file and shows the line that called the drift."""
    class DriftFailure(Exception):
        pass

    armed = []

    def drift(x):
        if armed:
            raise DriftFailure("drift failed")
        return np.zeros(3)

    plant = HomPlant(drift=drift, input_matrix=[[1.0], [0.0], [0.0]], degree=1.0,
                     dilation=make_dilation(np.diag([3.0, 2.0, 1.0])))
    armed.append(True)
    with pytest.raises(DriftFailure) as info:
        simulate(plant, HomFeedback(gain=GAIN, norm_power=4.0), None, np.ones(3), 1e-3, 0.01)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<homquant kernel n=3 m=1>"' in text and ", in stage" in text
    assert "f = drift(array(x))" in text


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
