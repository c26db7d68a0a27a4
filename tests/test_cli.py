"""Config parsing, CSV export, subcommands, and exit codes."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homquant
from homquant import ConfigParseError, ConfigValidationError, UnknownSuiteError
from homquant.cli import cmd_check, main, parse_config, serialize_config
from homquant.suites import SUITE_NAMES

MINIMAL = """
# benchmark loop
generator = 3 0 0; 0 2 0; 0 0 1
gain = -5.5055 -15.8387 -16.3807
nu = 0.7
delta_angle = 0.15707963267948966
x0 = 1 1 1
"""


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


# ------------------------------------------------------------------- parsing

def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert np.array_equal(cfg.generator, np.diag([3.0, 2.0, 1.0]))
    assert np.array_equal(cfg.weight, np.eye(3))
    assert cfg.gain.shape == (1, 3)
    assert cfg.norm_power == 4.0
    assert cfg.step == 1e-4
    assert cfg.t_end == 20.0
    assert cfg.quantized is True
    assert cfg.rng_seed == 42


def test_parse_full_document():
    text = MINIMAL + "\n".join([
        "weight = 1 0 0; 0 1 0; 0 0 1",
        "norm_power = 4",
        "step = 0.001",
        "t_end = 2.5",
        "quantized = false",
        "rng_seed = 7",
    ])
    cfg = parse_config(text)
    assert cfg.step == 0.001 and cfg.t_end == 2.5
    assert cfg.quantized is False and cfg.rng_seed == 7


def test_serialize_roundtrip():
    cfg = parse_config(MINIMAL)
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert np.array_equal(cfg.generator, cfg2.generator)
    assert np.array_equal(cfg.gain, cfg2.gain)
    assert np.array_equal(cfg.x0, cfg2.x0)
    assert cfg.nu == cfg2.nu and cfg.delta_angle == cfg2.delta_angle
    assert cfg.step == cfg2.step and cfg.t_end == cfg2.t_end
    assert cfg.quantized == cfg2.quantized and cfg.rng_seed == cfg2.rng_seed


def test_serialize_preserves_awkward_floats():
    cfg = parse_config(MINIMAL.replace("nu = 0.7", "nu = 0.1000000000000000056"))
    assert parse_config(serialize_config(cfg)).nu == cfg.nu


@pytest.mark.parametrize("old,line,fragment", [
    ("nu = 0.7", "generator 3 0 0", "expected 'key = value'"),
    ("nu = 0.7", "mystery = 4", "unknown key"),
    ("nu = 0.7", "nu = ", "missing value"),
    ("nu = 0.7", "nu = abc", "bad number"),
    ("x0 = 1 1 1", "x0 = 1 2; 3 4", "single row"),
])
def test_parse_syntax_errors(old, line, fragment):
    with pytest.raises(ConfigParseError) as info:
        parse_config(MINIMAL.replace(old, line))
    assert fragment in str(info.value)


def test_parse_error_carries_position():
    # The generator line sits on line 3 of MINIMAL and its value starts at
    # column 12, one past "generator =".
    bad = MINIMAL.replace("generator = 3 0 0; 0 2 0; 0 0 1",
                          "generator = 3 0; 0 x")
    with pytest.raises(ConfigParseError) as info:
        parse_config(bad)
    assert info.value.line == 3
    assert info.value.column == 12


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError):
        parse_config(MINIMAL + "\nnu = 0.5\n")


@pytest.mark.parametrize("mutation,key", [
    (("gain = -5.5055 -15.8387 -16.3807", "# gone"), "gain"),
    (("x0 = 1 1 1", "x0 = 1 1"), "x0"),
    (("nu = 0.7", "nu = 1.7"), "nu"),
    (("delta_angle = 0.15707963267948966", "delta_angle = 7"), "delta_angle"),
    (("gain = -5.5055 -15.8387 -16.3807", "gain = 1 2"), "gain"),
])
def test_validation_errors_name_the_key(mutation, key):
    with pytest.raises(ConfigValidationError) as info:
        parse_config(MINIMAL.replace(*mutation))
    assert info.value.key == key


def test_weight_validation_attributed_to_weight():
    text = MINIMAL + "weight = 1 0.5 0; 0 1 0; 0 0 1\n"
    with pytest.raises(ConfigValidationError) as info:
        parse_config(text)
    assert info.value.key == "weight"


def test_non_monotone_generator_attributed_to_generator():
    text = MINIMAL.replace("generator = 3 0 0; 0 2 0; 0 0 1",
                           "generator = 0 1 0; -1 0 0; 0 0 1")
    with pytest.raises(ConfigValidationError) as info:
        parse_config(text)
    assert info.value.key == "generator"


def test_step_validation():
    with pytest.raises(ConfigValidationError) as info:
        parse_config(MINIMAL + "step = -1\n")
    assert info.value.key == "step"
    with pytest.raises(ConfigValidationError) as info:
        parse_config(MINIMAL + "step = 5\nt_end = 1\n")
    assert info.value.key == "t_end"


# --------------------------------------------------------------- simulate cmd

def test_simulate_subcommand_writes_csv(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    cfg_path.write_text(MINIMAL + "step = 0.001\nt_end = 0.2\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    header, rows = _read_csv(out_path)
    assert header == ["t", "x1", "x2", "x3", "q1", "q2", "q3", "u1", "hnorm"]
    assert rows.shape == (201, 9)
    assert rows[0, 1:4] == pytest.approx([1.0, 1.0, 1.0])
    assert np.all(np.isfinite(rows))
    # time column is k*h exactly
    assert np.array_equal(rows[:, 0], np.arange(201) * 0.001)


def test_simulate_subcommand_nominal_mirror_columns(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    cfg_path.write_text(MINIMAL + "step = 0.001\nt_end = 0.1\nquantized = false\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    _, rows = _read_csv(out_path)
    assert np.array_equal(rows[:, 1:4], rows[:, 4:7])


def test_simulate_blowup_exit_code_and_partial_csv(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    text = MINIMAL.replace("gain = -5.5055 -15.8387 -16.3807",
                           "gain = 5.5055 15.8387 16.3807")
    cfg_path.write_text(text + "step = 0.01\nt_end = 5\nquantized = false\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    header, rows = _read_csv(out_path)
    assert 0 < rows.shape[0] < 501
    assert np.all(np.isfinite(rows))


def test_simulate_requires_3x3_generator(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "generator = 1.5 0.6; 0 1\ngain = -1 -1\nnu = 0.7\n"
        "delta_angle = 0.15707963267948966\nx0 = 1 1\n")
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(cfg_path.with_suffix(".csv"))]) == 4


def test_csv_values_roundtrip_exactly(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    cfg_path.write_text(MINIMAL + "step = 0.001\nt_end = 0.05\n")
    main(["simulate", "--config", str(cfg_path), "--out", str(out_path)])
    from homquant import QuantizerParams, example_plant, HomFeedback, simulate
    plant = example_plant()
    fb = HomFeedback(gain=[[-5.5055, -15.8387, -16.3807]], norm_power=4.0)
    p = QuantizerParams(nu=0.7, delta_angle=math.pi / 20, dim=3)
    traj = simulate(plant, fb, p, np.ones(3), 0.001, 0.05)
    _, rows = _read_csv(out_path)
    assert np.array_equal(rows[:, 1:4], traj.states)
    assert np.array_equal(rows[:, 7], traj.controls[:, 0])


# ------------------------------------------------------------------ seeds cmd

def test_seeds_subcommand_2d(tmp_path):
    cfg_path = tmp_path / "seeds.cfg"
    out_path = tmp_path / "seeds.csv"
    cfg_path.write_text(
        "generator = 1.5 0.6; 0 1\ngain = -1 -1\nnu = 0.7\n"
        "delta_angle = 0.15707963267948966\nx0 = 1 0\n")
    # argparse needs the = form when the value starts with a dash.
    assert main(["seeds", "--config", str(cfg_path), "--levels=-1..1",
                 "--out", str(out_path)]) == 0
    header, rows = _read_csv(out_path)
    assert header == ["level", "angle_index", "x1", "x2", "hnorm"]
    assert rows.shape == (3 * 40, 5)  # 40 azimuthal cells per level
    xi0 = 2.0 / 1.7
    for level in (-1, 0, 1):
        sel = rows[rows[:, 0] == level]
        assert len(sel) == 40
        assert np.allclose(sel[:, 4], 0.7 ** level * xi0, atol=1e-9)


def test_seeds_subcommand_3d_count(tmp_path):
    cfg_path = tmp_path / "seeds.cfg"
    out_path = tmp_path / "seeds.csv"
    cfg_path.write_text(MINIMAL)
    assert main(["seeds", "--config", str(cfg_path), "--levels", "0..0",
                 "--out", str(out_path)]) == 0
    header, rows = _read_csv(out_path)
    assert header[:2] == ["level", "angle_index"]
    assert rows.shape[0] == 21 * 40  # polar grid x azimuthal grid


def test_seeds_rejects_unsupported_dimension(tmp_path):
    cfg_path = tmp_path / "seeds.cfg"
    cfg_path.write_text(
        "generator = 1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1\n"
        "gain = -1 -1 -1 -1\nnu = 0.7\ndelta_angle = 0.2\nx0 = 1 0 0 0\n")
    assert main(["seeds", "--config", str(cfg_path), "--levels", "0..0",
                 "--out", str(cfg_path.with_suffix(".csv"))]) == 4


def test_seeds_rejects_bad_level_syntax(tmp_path):
    cfg_path = tmp_path / "seeds.cfg"
    cfg_path.write_text(MINIMAL)
    assert main(["seeds", "--config", str(cfg_path), "--levels", "abc",
                 "--out", str(cfg_path.with_suffix(".csv"))]) == 4


# ------------------------------------------------------------------ check cmd

@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_check_subcommand_passes(suite):
    stream = io.StringIO()
    assert cmd_check(suite, stream=stream) == 0
    lines = stream.getvalue().splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    assert lines == sorted(lines)


def test_check_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        cmd_check("nonsense")
    assert main(["check", "--suite", "nonsense"]) == 4


def test_check_negative_control_via_nu_override():
    """An out-of-range contraction ratio must surface as FAIL lines, not a crash."""
    stream = io.StringIO()
    assert cmd_check("sector", nu=1.5, stream=stream) == 1
    assert any(line.startswith("FAIL ") for line in stream.getvalue().splitlines())


# ------------------------------------------------------------------ exit codes

def test_usage_errors_exit_4(capsys):
    assert main([]) == 4
    assert main(["simulate"]) == 4
    assert main(["frobnicate"]) == 4
    capsys.readouterr()


def test_missing_config_exits_3(tmp_path):
    missing = tmp_path / "absent.cfg"
    assert main(["simulate", "--config", str(missing), "--out",
                 str(tmp_path / "o.csv")]) == 3


def test_malformed_config_exits_4(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("generator 3\n")
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o.csv")]) == 4


def test_unwritable_output_exits_3(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL + "step = 0.01\nt_end = 0.05\n")
    out_path = tmp_path / "no" / "such" / "dir" / "o.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 3


# ----------------------------------------------------------- import footprint

def test_import_does_not_load_scipy():
    """The package and its command line run on numpy alone; scipy is a test
    dependency, and importing it would add to every cold start."""
    src = str(Path(homquant.__file__).resolve().parents[1])
    code = ("import sys, homquant, homquant.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
