"""Config parsing, CSV export, subcommands, and exit codes."""

import importlib.util
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import homquant
from homquant import ConfigParseError, ConfigValidationError, UnknownSuiteError
from homquant.cli import cmd_check, main, parse_config
from homquant.suites import PROPERTIES

MINIMAL = """
# benchmark loop
generator = 3 0 0; 0 2 0; 0 0 1
gain = -5.5055 -15.8387 -16.3807
nu = 0.7
delta_angle = 0.15707963267948966
x0 = 1 1 1
"""


def _error_line(capsys, usage=False):
    """The one ``error:`` line a failed command prints: nothing on stdout, and
    nothing else on stderr but argparse's usage lines (``usage=True``)."""
    out, err = capsys.readouterr()
    lines = err.splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert out == "" and len(errors) == 1
    assert usage or lines == errors
    return errors[0]


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


def test_parse_full_document():
    text = MINIMAL + "\n".join([
        "weight = 1 0 0; 0 1 0; 0 0 1",
        "norm_power = 4",
        "step = 0.001",
        "t_end = 2.5",
        "quantized = false",
    ])
    cfg = parse_config(text)
    assert cfg.step == 0.001 and cfg.t_end == 2.5
    assert cfg.quantized is False


@pytest.mark.parametrize("old,line,fragment", [
    ("nu = 0.7", "generator 3 0 0", "expected 'key = value'"),
    ("nu = 0.7", "mystery = 4", "unknown key"),
    ("nu = 0.7", "rng_seed = 42", "unknown key"),
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
    (("x0 = 1 1 1", "x0 = 1 nan 1"), "x0"),
    (("x0 = 1 1 1", "x0 = 1 inf 1"), "x0"),
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

def test_simulate_subcommand_writes_csv(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    cfg_path.write_text(MINIMAL + "step = 0.001\nt_end = 0.2\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert capsys.readouterr() == ("", "")
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


def test_simulate_blowup_exit_code_and_partial_csv(tmp_path, capsys):
    """Exit 2 with one stderr line giving the time of the blow-up, and the
    finite rows recorded before it in the CSV."""
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    for gain, keys, rows_max in (
        # The gain of the wrong sign: an RK4 stage blows up.
        ("5.5055 15.8387 16.3807", "step = 0.01\nt_end = 5\nquantized = false\n", 500),
        # The stock gain with a step of 0.5: a row check fails after 3 rows.
        ("-5.5055 -15.8387 -16.3807", "step = 0.5\nt_end = 20\n", 3),
    ):
        text = MINIMAL.replace("gain = -5.5055 -15.8387 -16.3807", f"gain = {gain}")
        cfg_path.write_text(text + keys)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        assert _error_line(capsys).startswith("error: state became non-finite at t=")
        header, rows = _read_csv(out_path)
        assert 0 < rows.shape[0] <= rows_max
        assert np.all(np.isfinite(rows))


def test_simulate_wrong_norm_power_exits_4(tmp_path, capsys):
    """A norm_power that breaks the loop's homogeneity is a usage error: exit 4,
    one line naming norm_power, and no CSV."""
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    cfg_path.write_text(MINIMAL + "norm_power = 3\nt_end = 0.05\nstep = 0.01\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 4
    assert _error_line(capsys).startswith("error: norm_power 3 does not match the plant")
    assert not out_path.exists()


def test_simulate_gain_of_the_wrong_shape_exits_4(tmp_path, capsys):
    """A two-row gain against the plant's one input is a usage error: exit 4,
    one line naming both shapes, and no CSV."""
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    cfg_path.write_text(MINIMAL.replace("gain = -5.5055 -15.8387 -16.3807", "gain = 1 2 3; 0 0 0")
                        + "t_end = 0.05\nstep = 0.01\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 4
    line = _error_line(capsys)
    assert line.startswith("error: gain of shape (2, 3)") and "(3, 1)" in line
    assert not out_path.exists()


def test_simulate_requires_3x3_generator(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "generator = 1.5 0.6; 0 1\ngain = -1 -1\nnu = 0.7\n"
        "delta_angle = 0.15707963267948966\nx0 = 1 1\n")
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(cfg_path.with_suffix(".csv"))]) == 4
    assert "3x3 generator" in _error_line(capsys)


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


def test_csv_writer_formats_every_value_from_python_floats(tmp_path):
    from homquant import Trajectory
    from homquant.cli import _write_trajectory_csv
    awkward = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e-5]
    # More rows than the writer formats at a time.
    vals = np.array(awkward * 363).reshape(605, 3)
    traj = Trajectory(times=vals[:, 0], states=vals[:, :3], quantized_states=vals[::-1, :3],
                      controls=vals[:, 1:2], hom_norms=vals[:, 2])
    out_path = tmp_path / "traj.csv"
    _write_trajectory_csv(str(out_path), traj)
    lines = ["t,x1,x2,x3,q1,q2,q3,u1,hnorm"]
    for k in range(len(traj)):
        row = ([traj.times[k]] + list(traj.states[k]) + list(traj.quantized_states[k])
               + list(traj.controls[k]) + [traj.hom_norms[k]])
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    assert out_path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_writer_shares_text_only_between_rows_of_the_same_signs(tmp_path):
    """The writer formats a run of equal (q, u) rows once and takes q's text from x where
    they are equal; a signed zero, a NaN and a run across blocks of rows still get
    the text of their own values."""
    from homquant import Trajectory
    from homquant.cli import _write_trajectory_csv
    rng = np.random.default_rng(5)
    count = 300
    x = rng.standard_normal((count, 3))
    x[rng.random(x.shape) < 0.2] = -0.0
    q = np.repeat(rng.standard_normal((6, 3)), 50, axis=0)  # runs across blocks of 64
    u = np.repeat(rng.standard_normal((6, 1)), 50, axis=0)
    q[50:80:2, 0] = u[55:80:3, 0] = 0.0
    q[51:80:2, 0] = u[56:80:3, 0] = -0.0
    q[100:200] = x[100:200]  # a nominal stretch, with zeros of the other sign in q
    q[120:200:7] = np.where(x[120:200:7] == 0.0, 0.0, x[120:200:7])
    u[200:260] = math.nan
    q[230:260] = math.nan
    traj = Trajectory(times=np.arange(count) * 0.1, states=x, quantized_states=q, controls=u,
                      hom_norms=rng.random(count))
    out_path = tmp_path / "traj.csv"
    _write_trajectory_csv(str(out_path), traj)
    lines = ["t,x1,x2,x3,q1,q2,q3,u1,hnorm"]
    for k in range(count):
        row = [traj.times[k], *x[k], *q[k], *u[k], traj.hom_norms[k]]
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    assert out_path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_simulate_overflow_at_first_row_writes_only_the_header(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "traj.csv"
    cfg_path.write_text(MINIMAL.replace("x0 = 1 1 1", "x0 = 0 0 1e150")
                        + "step = 0.001\nt_end = 0.01\n")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert _error_line(capsys).startswith("error: state became non-finite at t=0")
    assert out_path.read_text() == "t,x1,x2,x3,q1,q2,q3,u1,hnorm\n"


# ------------------------------------------------------------------ seeds cmd

def test_seeds_subcommand_2d(tmp_path, capsys):
    cfg_path = tmp_path / "seeds.cfg"
    out_path = tmp_path / "seeds.csv"
    cfg_path.write_text(
        "generator = 1.5 0.6; 0 1\ngain = -1 -1\nnu = 0.7\n"
        "delta_angle = 0.15707963267948966\nx0 = 1 0\n")
    # argparse needs the = form when the value starts with a dash.
    assert main(["seeds", "--config", str(cfg_path), "--levels=-1..1",
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr() == ("", "")
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


@pytest.mark.parametrize("level", [-2000, -700, 571, 1000, 3000])
def test_seeds_overflow_exits_2_naming_the_level(level, tmp_path, capsys):
    """Seeds outside the float range, in both directions: past the largest
    float, nu**level overflows at -2000 and the rebuild exp(s*G) u at -700;
    towards zero, nu**level underflows to 0.0 at 3000, and at 571 and 1000
    the seeds' norm nu**level * xi0 is below the floor of diag(3, 2, 1)
    (5.3e-89), so they are the origin.  One error line, no numpy warning, no
    CSV."""
    cfg_path = tmp_path / "seeds.cfg"
    out_path = tmp_path / "seeds.csv"
    cfg_path.write_text(MINIMAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["seeds", "--config", str(cfg_path), f"--levels={level}..{level}",
                     "--out", str(out_path)]) == 2
    err = _error_line(capsys)
    assert f"level {level}" in err
    assert ("underflow" if level > 0 else "overflow") in err
    assert not out_path.exists()


@pytest.mark.parametrize("level", [60, 400])
def test_seeds_far_below_the_unit_sphere_have_their_norm(level, tmp_path, capsys):
    """Every seed of a level above the floor is written with its homogeneous
    norm nu**level * xi0 (5.98e-10 at 60, 1.29e-62 at 400), whatever its
    direction: |x|_P of the seeds on the x1 axis is 2e-28 at 60."""
    cfg_path = tmp_path / "seeds.cfg"
    out_path = tmp_path / "seeds.csv"
    cfg_path.write_text(MINIMAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["seeds", "--config", str(cfg_path), f"--levels={level}..{level}",
                     "--out", str(out_path)]) == 0
    assert capsys.readouterr() == ("", "")
    _, rows = _read_csv(out_path)
    assert rows.shape == (21 * 40, 6)
    assert np.allclose(rows[:, 5], 0.7 ** level * (2.0 / 1.7), rtol=1e-12, atol=0.0)


def test_seeds_rejects_unsupported_dimension(tmp_path, capsys):
    cfg_path = tmp_path / "seeds.cfg"
    cfg_path.write_text(
        "generator = 1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1\n"
        "gain = -1 -1 -1 -1\nnu = 0.7\ndelta_angle = 0.2\nx0 = 1 0 0 0\n")
    assert main(["seeds", "--config", str(cfg_path), "--levels", "0..0",
                 "--out", str(cfg_path.with_suffix(".csv"))]) == 4
    assert "dimensions 2 and 3" in _error_line(capsys)


def test_seeds_rejects_bad_level_syntax(tmp_path, capsys):
    cfg_path = tmp_path / "seeds.cfg"
    cfg_path.write_text(MINIMAL)
    assert main(["seeds", "--config", str(cfg_path), "--levels", "abc",
                 "--out", str(cfg_path.with_suffix(".csv"))]) == 4
    assert "LO..HI" in _error_line(capsys)


# ------------------------------------------------------------------ check cmd

def test_check_subcommand_passes(capsys):
    """One line per property of the suite, ``PASS name residual bound``, sorted
    by name; ``tests/test_properties.py`` checks each property's bound."""
    stream = io.StringIO()
    assert cmd_check("dilation", stream=stream) == 0
    assert main(["check", "--suite", "dilation"]) == 0
    assert capsys.readouterr() == (stream.getvalue(), "")
    lines = stream.getvalue().splitlines()
    names = sorted(p.name for p in PROPERTIES if p.suite == "dilation")
    assert [line.split()[1] for line in lines] == names
    for line in lines:
        status, _, residual, bound = line.split()
        assert status == "PASS"
        assert f"{float(residual):.6e}" == residual and f"{float(bound):.6e}" == bound


def test_check_unknown_suite(capsys):
    with pytest.raises(UnknownSuiteError):
        cmd_check("nonsense")
    assert main(["check", "--suite", "nonsense"]) == 4
    assert "unknown suite 'nonsense'" in _error_line(capsys)


def test_check_negative_control_via_nu_override():
    """An out-of-range contraction ratio must surface as FAIL lines, not a crash."""
    stream = io.StringIO()
    assert cmd_check("sector", nu=1.5, stream=stream) == 1
    assert any(line.startswith("FAIL ") for line in stream.getvalue().splitlines())


# ------------------------------------------------------------------ exit codes

def test_usage_errors_exit_4(capsys):
    """An argparse error prints its usage lines and one ``error:`` line."""
    for argv in ([], ["simulate"], ["frobnicate"]):
        assert main(argv) == 4
        _error_line(capsys, usage=True)


def test_missing_config_exits_3(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["simulate", "--config", str(missing), "--out",
                 str(tmp_path / "o.csv")]) == 3
    assert str(missing) in _error_line(capsys)


def test_malformed_config_exits_4(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("generator 3\n")
    assert main(["simulate", "--config", str(cfg_path), "--out",
                 str(tmp_path / "o.csv")]) == 4
    assert _error_line(capsys) == "error: line 1, column 1: expected 'key = value'"


def test_unwritable_output_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL + "step = 0.01\nt_end = 0.05\n")
    out_path = tmp_path / "no" / "such" / "dir" / "o.csv"
    for command in (["simulate"], ["seeds", "--levels", "0..0"]):
        assert main(command + ["--config", str(cfg_path), "--out", str(out_path)]) == 3
        assert str(out_path) in _error_line(capsys)


# --------------------------------------------------------- example script

def test_run_example_writes_the_simulate_csvs_under_the_configured_weight(tmp_path):
    """``scripts/run_example.py`` drives the plant of ``homquant simulate``:
    under a non-identity weight its two CSVs have the subcommand's bytes."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_example.py"
    spec = importlib.util.spec_from_file_location("run_example", script)
    run_example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_example)
    text = run_example.DEFAULT_CONFIG.read_text() + "weight = 2 0.5 0; 0.5 1 0.2; 0 0.2 1\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    run_example.main(["--config", str(cfg_path), "--t-end", "0.05", "--out-dir", str(tmp_path)])
    for name, quantized in (("nominal", "false"), ("quantized", "true")):
        cli_text = re.sub(r"(?m)^t_end\s*=.*$", "t_end = 0.05", text)
        cfg_path.write_text(re.sub(r"(?m)^quantized\s*=.*$", f"quantized = {quantized}", cli_text))
        out_path = tmp_path / f"{name}-cli.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == out_path.read_bytes()


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


def test_import_renders_no_kernel():
    """The generated kernels are rendered on first use at a size, never at import."""
    src = str(Path(homquant.__file__).resolve().parents[1])
    code = ("import homquant, homquant.cli; from homquant import kernel; "
            "print(kernel.kernel.cache_info().currsize, kernel.polar.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == ["0", "0"]
