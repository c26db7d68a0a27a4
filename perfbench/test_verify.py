"""The benchmark's own tests: every output check passes on real program
output and trips on a deliberately corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import verify as ref  # noqa: E402
import workloads  # noqa: E402
from homquant import (QuantizerParams, SampleSpec, checks, cli, hom_norm_many,  # noqa: E402
                      make_dilation, phi_many)

STEPS = 200


def _loop(tmp_path, monkeypatch, variant):
    # A short horizon keeps the test fast; the checks do not depend on it.
    monkeypatch.setattr(workloads, "LOOP_T_END", STEPS * 1e-4)
    wl = workloads.make("loop", ROOT, tmp_path)
    wl.setup(seed=3)
    assert wl.steps == STEPS
    _, output = wl.op(0)
    assert wl.verify(output) == (2, 0, [])
    table, failures = wl._table(output, variant)
    assert failures == []
    return wl, table


def test_closed_forms_match_scipy_expm():
    rng = np.random.default_rng(0)
    for gen in (ref.DIAG321, ref.ROTATE2, ref.JORDAN2):
        s = rng.uniform(-7.0, 7.0, 5)
        cols = rng.standard_normal((gen.shape[0], 5))
        want = np.stack([expm(sj * gen) @ cols[:, j] for j, sj in enumerate(s)], axis=1)
        np.testing.assert_allclose(ref.expm_apply(gen, s, cols), want, rtol=1e-12)


def test_reference_norm_matches_definition():
    cols = np.array([[8.0, 0.0], [0.0, 1e-4], [0.0, 0.0]])
    np.testing.assert_allclose(ref.ref_hom_norms(ref.DIAG321, np.eye(3), cols), [2.0, 1e-2],
                               rtol=1e-14)


def test_csv_checks_trip_on_corruption(tmp_path, monkeypatch):
    wl, table = _loop(tmp_path, monkeypatch, "nominal")
    text = wl.csv["nominal"].read_text()
    assert ref.parse_csv(text, 3, 1, STEPS + 1)[1] == []
    lines = text.split("\n")
    tokens = lines[5].split(",")
    tokens[2] = f"{float(tokens[2]):.12g}"
    short = "\n".join(lines[:5] + [",".join(tokens)] + lines[6:])
    assert ref.parse_csv(short, 3, 1, STEPS + 1)[1]
    assert ref.parse_csv(text, 3, 1, STEPS + 2)[1]
    assert ref.parse_csv(text.replace("hnorm", "norm"), 3, 1, STEPS + 1)[1]


def test_nominal_checks_trip_on_corruption(tmp_path, monkeypatch):
    wl, table = _loop(tmp_path, monkeypatch, "nominal")
    states = table[:, 1:4]
    t_end = workloads.LOOP_T_END
    assert ref.check_nominal_final(wl.x0s[0], states[-1], t_end, wl.gain, wl.norm_power) == []
    assert ref.check_nominal_final(wl.x0s[0], states[-1] * (1 + 1e-7), t_end, wl.gain,
                                   wl.norm_power)
    assert ref.check_hnorm_column(states, table[:, 8]) == []
    assert ref.check_hnorm_column(states, table[:, 8] * (1 + 1e-6))
    assert ref.check_times(table[:, 0], wl.h) == []
    assert ref.check_times(table[:, 0] * 1.5, wl.h)
    bad = table.copy()
    bad[7, 2] = math.nan
    assert ref.check_rows_finite(table) == [] and ref.check_rows_finite(bad)


def test_quantized_checks_trip_on_corruption(tmp_path, monkeypatch):
    wl, table = _loop(tmp_path, monkeypatch, "quantized")
    states, q = table[:, 1:4], table[:, 4:7]
    assert ref.check_quantized_rows(states, q, wl.nu, wl.xi0) == []
    off_grid = q.copy()
    off_grid[10] *= 1.001
    assert ref.check_quantized_rows(states, off_grid, wl.nu, wl.xi0)
    wrong_cell = q.copy()
    wrong_cell[10] = ref.expm_apply(ref.DIAG321, [math.log(wl.nu)], q[10][:, None])[:, 0]
    assert ref.check_quantized_rows(states, wrong_cell, wl.nu, wl.xi0)
    assert ref.symbol_counts(q, wl.nu, wl.xi0)[1] >= 1


def test_suite_output_check_trips_on_failures():
    good = "PASS a.b 1.0e-13 1.0e-12\nPASS a.c 0.0e+00 0.0e+00\n"
    assert ref.check_suite_output(0, good) == (2, [])
    assert ref.check_suite_output(1, good)[1]
    assert ref.check_suite_output(0, good.replace("PASS a.c", "FAIL a.c"))[1]
    assert ref.check_suite_output(0, "PASS a.b 2.0e-12 1.0e-12\n")[1]
    assert ref.check_suite_output(0, "PASS a.b 1e-13 1e-12\nPASS a.b 1e-13 1e-12\n")[1]
    assert ref.check_suite_output(0, "")[1]
    assert ref.check_suite_output(0, "PASS a.b nan 1e-12\n")[1]


@pytest.mark.parametrize("label", sorted(workloads.NORM_GENERATORS))
def test_norm_batch_check_trips_on_corruption(label):
    gen, weight = workloads.NORM_GENERATORS[label]
    d = make_dilation(gen, weight)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((gen.shape[0], 40))
    u = g / ref.weighted_norms(weight, g)
    rho = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 40))
    xs = ref.expm_apply(gen, np.log(rho), u).T
    norms, phis = hom_norm_many(d, xs), phi_many(d, xs)
    assert np.all(ref.check_norm_batch(gen, weight, xs, rho, norms, phis))
    bad_norms = norms.copy()
    bad_norms[3] *= 1 + 1e-9
    assert not ref.check_norm_batch(gen, weight, xs, rho, bad_norms, phis)[3]
    bad_phis = phis.copy()
    bad_phis[5] *= 1 + 1e-6
    assert not ref.check_norm_batch(gen, weight, xs, rho, norms, bad_phis)[5]


def test_self_time_subtracts_children():
    sp = spans.Spans(["a", "b"], np.array([0, 1, 1]), np.array([0.0, 1.0, 4.0]),
                     np.array([10.0, 3.0, 5.0]), np.array([-1, 0, 0]),
                     np.zeros(3, dtype=int), np.zeros(3, dtype=int))
    np.testing.assert_allclose(spans.self_times(sp), [7.0, 2.0, 1.0])


def test_tracer_restores_entry_points_and_marks_absent(tmp_path, monkeypatch):
    original = checks.check_hom_sector
    monkeypatch.delattr(checks, "check_quantizer_discrete_homogeneity")
    with spans.Tracer() as tracer:
        assert checks.check_hom_sector is not original
        out = tmp_path / "t.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text((ROOT / "configs" / "example3d.cfg").read_text()
                       .replace("t_end = 20", "t_end = 0.001"))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert checks.check_hom_sector is original
    m = spans.layer_metrics(tracer.spans(), tracer.missing)
    assert m["checks.discrete_homogeneity.self_s"][0] is None
    assert m["geometry.solve.calls"][0] == 4 * 10 + 1
    assert m["simulation.drift.calls"][0] == 4 * 10 + 1
    assert m["quantizer.log_quantize.calls"][0] == 4 * 10 + 1
    assert m["checks.hom_sector.self_s"][0] == 0.0


def test_accept_ratio_follows_the_sampling_filters():
    d = make_dilation(ref.DIAG321)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    ratios = []
    for margin in (0.0, 0.02):
        with spans.Tracer() as tracer:
            checks.check_quantizer_discrete_homogeneity(
                d, p, SampleSpec(count=200, seed=0, boundary_margin=margin), shifts=range(1))
        m = spans.layer_metrics(tracer.spans(), tracer.missing)
        ratios.append(m["checks.off_boundary.accept_ratio"][0])
    assert ratios[0] == 1.0
    assert 0.0 < ratios[1] < 0.9
    m = spans.layer_metrics(tracer.spans(), {"homquant.checks.to_spherical"})
    assert m["checks.off_boundary.accept_ratio"][0] is None
