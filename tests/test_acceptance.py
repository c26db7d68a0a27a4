"""End-to-end verification of the guarantees that no registry property covers.

The group law, the quantizer's radial and spherical cell bounds and its
sector radius are checked by the property registry (``test_properties.py``).
Each test here exercises one further guarantee at full sample size: the
canonical norm on the scalar solve path, discrete-scale commutation with a
mismatched-step negative control, scale invariance near cell boundaries, the
benchmark loop, trajectory symmetry and seed export.  It prints a single
PASS/FAIL line with the measured residual and the required bound, and asserts
both the bound and a wall-clock budget.  Run with ``pytest -v`` (add ``-s`` to
see the lines for passing tests too).
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from homquant.checks import (
    SampleSpec,
    check_quantizer_discrete_homogeneity,
    sample_states,
)
from homquant.cli import main
from homquant.dilation import make_dilation
from homquant.geometry import (
    FundamentalDomain,
    hom_norm,
    hom_norm_many,
    hom_project,
    phi,
    projection_index,
)
from homquant.quantizer import QuantizerParams, hom_quantize
from homquant.simulation import HomFeedback, example_plant, settling_metrics, simulate

GENERATORS = {
    "identity2": np.eye(2),
    "diag321": np.diag([3.0, 2.0, 1.0]),
    "shear2": np.array([[1.5, 0.6], [0.0, 1.0]]),
    "rotate2": np.array([[2.0, -1.5], [1.0, 1.0]]),
}

DELTA = math.pi / 20.0
BENCH_GAIN = np.array([[-5.5055, -15.8387, -16.3807]])


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


# ----------------------------------------------------------- canonical norm

def test_canonical_norm_defining_equation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_def = 0.0
    worst_hom = 0.0
    for g in GENERATORS.values():
        d = make_dilation(g)
        for _ in range(1000):
            x = rng.standard_normal(d.dim) * 10.0 ** rng.uniform(-3.0, 3.0)
            r = hom_norm(d, x)
            res = abs(d.weighted_norm(d.apply(-math.log(r), x)) - 1.0)
            worst_def = max(worst_def, res)
            s = rng.uniform(-2.0, 2.0)
            r2 = hom_norm(d, d.apply(s, x))
            worst_hom = max(worst_hom, abs(r2 - math.exp(s) * r) / (math.exp(s) * r))
    d321 = make_dilation(GENERATORS["diag321"])
    analytic = abs(hom_norm(d321, np.array([8.0, 0.0, 0.0])) - 2.0)
    elapsed = time.perf_counter() - t0
    ok = worst_def <= 1e-12 and worst_hom <= 1e-7 and analytic <= 1e-12
    _report(ok, "canonical-norm",
            f"defining={worst_def:.3e} (1e-12) scaling={worst_hom:.3e} (1e-07) "
            f"analytic={analytic:.3e} (1e-12) [{elapsed:.2f}s]")
    assert worst_def <= 1e-12
    assert worst_hom <= 1e-7
    assert analytic <= 1e-12
    assert elapsed < 5.0


# --------------------------------------------------- discrete scale commutation

def test_quantizer_discrete_scale_commutation():
    t0 = time.perf_counter()
    p = QuantizerParams(nu=0.7, delta_angle=DELTA, dim=3)
    spec = SampleSpec(count=1000, seed=11)
    worst = 0.0
    for g in (np.eye(3), GENERATORS["diag321"]):
        d = make_dilation(g)
        worst = max(worst, check_quantizer_discrete_homogeneity(d, p, spec))
    d321 = make_dilation(GENERATORS["diag321"])
    negative = check_quantizer_discrete_homogeneity(
        d321, p, spec, step=1.1 * p.radial_step)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and negative > 1e-3
    _report(ok, "quantizer-scale-commutation",
            f"worst_rel={worst:.3e} (1e-07) mismatched_step={negative:.3e} (>1e-03) "
            f"[{elapsed:.2f}s]")
    assert worst <= 1e-7
    assert negative > 1e-3
    assert elapsed < 10.0


# ------------------------------------------------ error ratio scale invariance

def test_quantization_error_scale_invariance():
    t0 = time.perf_counter()
    d = make_dilation(GENERATORS["diag321"])
    p = QuantizerParams(nu=0.7, delta_angle=DELTA, dim=3)
    fd = FundamentalDomain(d, p.radial_step, rho=p.xi0 / (1.0 + p.delta))

    def ratio(x):
        return float(np.linalg.norm(phi(d, hom_quantize(d, p, x)) - phi(d, x))
                     / hom_norm(d, x))

    xs = sample_states(d, SampleSpec(count=2000, radius_range=(10.0 ** -1.5, 10.0 ** 1.5),
                                     seed=505))
    global_max = max(ratio(x) for x in xs)
    folded_max = max(
        ratio(d.apply(-projection_index(fd, x) * fd.step, x)) for x in xs)
    elapsed = time.perf_counter() - t0
    gap = abs(global_max - folded_max)
    ok = gap <= 1e-7
    _report(ok, "error-ratio-scale-invariance",
            f"global={global_max:.9f} folded={folded_max:.9f} gap={gap:.3e} (1e-07) "
            f"[{elapsed:.2f}s]")
    assert gap <= 1e-7
    assert elapsed < 10.0


# ------------------------------------------------------------ benchmark loop

@pytest.fixture(scope="module")
def benchmark_runs():
    plant = example_plant()
    fb = HomFeedback(gain=BENCH_GAIN, norm_power=4.0)
    p = QuantizerParams(nu=0.7, delta_angle=DELTA, dim=3)
    x0 = np.ones(3)
    t0 = time.perf_counter()
    nominal = simulate(plant, fb, None, x0, 1e-4, 20.0)
    quantized = simulate(plant, fb, p, x0, 1e-4, 20.0)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(plant=plant, params=p, nominal=nominal,
                           quantized=quantized, elapsed=elapsed)


def test_benchmark_nominal_reaches_small_ball(benchmark_runs):
    norms = np.linalg.norm(benchmark_runs.nominal.states, axis=1)
    smallest = float(np.min(norms))
    ok = smallest <= 1e-3
    _report(ok, "benchmark-nominal-settling",
            f"min|x|={smallest:.6e} bound=1e-03 [{benchmark_runs.elapsed:.2f}s]")
    assert smallest <= 1e-3, (
        f"nominal closed loop bottoms out at |x| = {smallest:.6e}; the loop has "
        "positive homogeneity degree, so the norm decays like 1/t and does not "
        "reach 1e-3 within t_end = 20"
    )


def test_benchmark_quantized_bounded_and_settles(benchmark_runs):
    traj = benchmark_runs.quantized
    finite = bool(np.all(np.isfinite(traj.states)))
    t_enter, _ = settling_metrics(traj, 1e-2)
    ok = finite and t_enter is not None
    _report(ok, "benchmark-quantized-settling",
            f"finite={finite} t_enter(1e-02)={t_enter} [{benchmark_runs.elapsed:.2f}s]")
    assert finite
    assert t_enter is not None
    assert benchmark_runs.elapsed < 60.0


def test_benchmark_overshoot_comparable(benchmark_runs):
    _, over_n = settling_metrics(benchmark_runs.nominal, 1e-2)
    _, over_q = settling_metrics(benchmark_runs.quantized, 1e-2)
    ratio = over_q / over_n
    ok = ratio >= 0.99
    _report(ok, "benchmark-overshoot-ratio",
            f"quantized/nominal={ratio:.6f} bound>=0.99")
    assert ratio >= 0.99


def test_benchmark_quantized_states_on_grid(benchmark_runs):
    d = benchmark_runs.plant.dilation
    p = benchmark_runs.params
    traj = benchmark_runs.quantized
    mask = traj.hom_norms > 0
    rs = hom_norm_many(d, traj.quantized_states[mask])
    levels = np.round(np.log(rs / p.xi0) / math.log(p.nu))
    worst = float(np.max(np.abs(rs - p.nu ** levels * p.xi0)))
    ok = worst <= 1e-9
    _report(ok, "benchmark-quantized-grid",
            f"worst_offgrid={worst:.3e} bound=1e-09 rows={int(np.sum(mask))}")
    assert worst <= 1e-9


# ------------------------------------------------------- trajectory symmetry

def test_trajectory_scaling_symmetry():
    t0 = time.perf_counter()
    plant = example_plant()
    fb = HomFeedback(gain=BENCH_GAIN, norm_power=4.0)
    d = plant.dilation
    x0 = np.ones(3)
    h, t_end = 1e-4, 5.0
    base = simulate(plant, fb, None, x0, h, t_end)
    worst = 0.0
    for s in (math.log(2.0), -math.log(2.0)):
        # Degree-1 drift: scaling state by d(s) compresses time by e^s.
        scale = math.exp(-plant.degree * s)
        run = simulate(plant, fb, None, d.apply(s, x0), h * scale, t_end * scale)
        mapped = base.states @ d.matrix(s).T
        num = np.linalg.norm(run.states - mapped, axis=1)
        den = np.maximum(np.linalg.norm(mapped, axis=1), 1e-30)
        worst = max(worst, float(np.max(num / den)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4
    _report(ok, "trajectory-scaling-symmetry",
            f"worst_rel={worst:.3e} bound=1e-04 [{elapsed:.2f}s]")
    assert worst <= 1e-4
    assert elapsed < 60.0


# ------------------------------------------------------------- seed export

def test_seed_export_grid(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "seeds.cfg"
    out_path = tmp_path / "seeds.csv"
    cfg_path.write_text(
        "generator = 1.5 0.6; 0 1\n"
        "gain = -1 -1\n"
        "nu = 0.7\n"
        f"delta_angle = {DELTA!r}\n"
        "x0 = 1 0\n")
    assert main(["seeds", "--config", str(cfg_path), "--levels=-2..2",
                 "--out", str(out_path)]) == 0

    d = make_dilation(GENERATORS["shear2"])
    p = QuantizerParams(nu=0.7, delta_angle=DELTA, dim=2)
    lines = out_path.read_text().splitlines()
    worst_norm = 0.0
    worst_angle = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        level = int(cells[0])
        x = np.array([float(cells[2]), float(cells[3])])
        target = p.nu ** level * p.xi0
        worst_norm = max(worst_norm, abs(hom_norm(d, x) - target))
        y = hom_project(d, x)
        ang = math.atan2(y[1], y[0]) % (2.0 * math.pi)
        worst_angle = max(worst_angle, abs(ang - round(ang / DELTA) * DELTA))
    elapsed = time.perf_counter() - t0
    ok = worst_norm <= 1e-9 and worst_angle <= 1e-9 and len(lines) == 201
    _report(ok, "seed-export-grid",
            f"rows={len(lines) - 1} worst_norm={worst_norm:.3e} "
            f"worst_angle={worst_angle:.3e} (1e-09) [{elapsed:.2f}s]")
    assert len(lines) == 201
    assert worst_norm <= 1e-9
    assert worst_angle <= 1e-9
    assert elapsed < 2.0
