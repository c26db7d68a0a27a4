"""Command-line interface: run configs, simulation/seed export, property checks.

Config documents are UTF-8 text, one ``key = value`` per line, ``#`` starts a
comment.  Matrices separate rows with ``;`` and entries with spaces.  CSV
output uses a comma separator, ``.`` decimal point and 17 significant digits,
so emitted files are bit-reproducible and round-trip exactly.

Exit codes: 0 success, 1 a check suite failed, 2 numerical blow-up (an
``ArithmeticError``), 3 I/O failure (an ``OSError``), 4 usage error (a
``ValueError``).  :func:`main` prints each failure as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dilation import make_dilation
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    NonFiniteStateError,
    NotMonotoneError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    UnknownSuiteError,
    UnsupportedDimensionError,
)
from .geometry import _apply_unit, hom_norm
from .quantizer import QuantizerParams, unit_from_angles
from .simulation import HomFeedback, Trajectory, example_plant, simulate
from .suites import SUITE_NAMES, run_suite

_MATRIX_KEYS = ("generator", "weight", "gain")
_VECTOR_KEYS = ("x0",)
_FLOAT_KEYS = ("norm_power", "nu", "delta_angle", "step", "t_end")
_BOOL_KEYS = ("quantized",)
_ALL_KEYS = _MATRIX_KEYS + _VECTOR_KEYS + _FLOAT_KEYS + _BOOL_KEYS
_REQUIRED_KEYS = ("generator", "gain", "nu", "delta_angle", "x0")
_CSV_BLOCK = 64  # CSV rows formatted per write


@dataclass(frozen=True)
class RunConfig:
    generator: np.ndarray
    weight: np.ndarray
    gain: np.ndarray
    norm_power: float
    nu: float
    delta_angle: float
    x0: np.ndarray
    step: float = 1e-4
    t_end: float = 20.0
    quantized: bool = True


def _parse_matrix(text: str, line: int, col: int) -> np.ndarray:
    rows = []
    for chunk in text.split(";"):
        entries = chunk.split()
        if not entries:
            raise ConfigParseError(line, col, "empty matrix row")
        try:
            rows.append([float(e) for e in entries])
        except ValueError:
            raise ConfigParseError(line, col, f"bad number in matrix row {chunk.strip()!r}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigParseError(line, col, "matrix rows have unequal lengths")
    return np.array(rows)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run-configuration document."""
    raw: dict[str, tuple[str, int, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        if "=" not in body:
            col = len(body) - len(body.lstrip()) + 1
            raise ConfigParseError(lineno, col, "expected 'key = value'")
        key, _, value = body.partition("=")
        key = key.strip()
        vcol = body.index("=") + 2
        value = value.strip()
        if not key:
            raise ConfigParseError(lineno, 1, "missing key before '='")
        if key not in _ALL_KEYS:
            raise ConfigParseError(lineno, 1, f"unknown key {key!r}")
        if key in raw:
            raise ConfigParseError(lineno, 1, f"duplicate key {key!r}")
        if not value:
            raise ConfigParseError(lineno, vcol, f"missing value for {key!r}")
        raw[key] = (value, lineno, vcol)

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigValidationError(key, "required key is missing")

    fields: dict[str, object] = {}
    for key, (value, lineno, vcol) in raw.items():
        if key in _MATRIX_KEYS:
            fields[key] = _parse_matrix(value, lineno, vcol)
        elif key in _VECTOR_KEYS:
            m = _parse_matrix(value, lineno, vcol)
            if m.shape[0] != 1:
                raise ConfigParseError(lineno, vcol, f"{key} must be a single row")
            fields[key] = m[0]
        elif key in _FLOAT_KEYS:
            try:
                fields[key] = float(value)
            except ValueError:
                raise ConfigParseError(lineno, vcol, f"bad number {value!r}")
        else:
            low = value.lower()
            if low not in ("true", "false"):
                raise ConfigParseError(lineno, vcol, f"expected true/false, got {value!r}")
            fields[key] = low == "true"

    gen = fields["generator"]
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise ConfigValidationError("generator", f"must be square, got shape {gen.shape}")
    n = gen.shape[0]
    fields.setdefault("weight", np.eye(n))
    fields.setdefault("norm_power", 4.0)
    if fields["weight"].shape != (n, n):
        raise ConfigValidationError("weight", f"must have shape {(n, n)}")
    gain = np.atleast_2d(fields["gain"])
    if gain.shape[1] != n:
        raise ConfigValidationError("gain", f"must have {n} columns, got shape {gain.shape}")
    fields["gain"] = gain
    if fields["x0"].shape != (n,):
        raise ConfigValidationError("x0", f"must have {n} entries")
    if not np.all(np.isfinite(fields["x0"])):
        raise ConfigValidationError("x0", "must be finite")

    try:
        make_dilation(fields["generator"], fields["weight"])
    except (NotSymmetricError, NotPositiveDefiniteError) as exc:
        raise ConfigValidationError("weight", str(exc))
    except NotMonotoneError as exc:
        raise ConfigValidationError("generator", str(exc))

    if not (0.0 < fields["nu"] < 1.0):
        raise ConfigValidationError("nu", f"must lie in (0, 1), got {fields['nu']}")
    if not (0.0 < fields["delta_angle"] <= math.pi):
        raise ConfigValidationError("delta_angle", "must lie in (0, pi]")
    if not math.isfinite(fields["norm_power"]):
        raise ConfigValidationError("norm_power", "must be finite")
    cfg = RunConfig(**fields)
    if not (cfg.step > 0 and math.isfinite(cfg.step)):
        raise ConfigValidationError("step", "must be positive and finite")
    if not (cfg.t_end >= cfg.step and math.isfinite(cfg.t_end)):
        raise ConfigValidationError("t_end", "must be at least one step")
    return cfg


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write ``header``, then the rows of the 2-D arrays ``columns`` side by side."""
    row = ",".join(["{:.17g}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # Formatted from Python floats, a block of rows at a time, so that no
        # copy of the whole table is held as Python objects.
        for k in range(0, len(columns[0]), _CSV_BLOCK):
            block = np.hstack([c[k:k + _CSV_BLOCK] for c in columns]).tolist()
            fh.write("".join(row.format(*r) for r in block))


def _write_trajectory_csv(path: str, traj: Trajectory) -> None:
    n = traj.states.shape[1]
    m = traj.controls.shape[1]
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"q{i+1}" for i in range(n)]
              + [f"u{i+1}" for i in range(m)] + ["hnorm"])
    _write_csv(path, header, (traj.times[:, None], traj.states, traj.quantized_states,
                              traj.controls, traj.hom_norms[:, None]))


def cmd_simulate(cfg: RunConfig, out_path: str) -> int:
    """Integrate the built-in three-state plant under the configured loop."""
    if cfg.generator.shape[0] != 3:
        raise ConfigValidationError(
            "generator", "simulate drives the built-in 3-state plant; need a 3x3 generator")
    d = make_dilation(cfg.generator, cfg.weight)
    try:
        plant = example_plant(d)
    except ValueError as exc:
        raise ConfigValidationError("generator", str(exc))
    fb = HomFeedback(gain=cfg.gain, norm_power=cfg.norm_power)
    quant = QuantizerParams(nu=cfg.nu, delta_angle=cfg.delta_angle, dim=3) \
        if cfg.quantized else None
    try:
        traj = simulate(plant, fb, quant, cfg.x0, cfg.step, cfg.t_end)
    except NonFiniteStateError as exc:
        _write_trajectory_csv(out_path, exc.trajectory)
        raise
    _write_trajectory_csv(out_path, traj)
    return 0


def cmd_seeds(cfg: RunConfig, level_range: tuple[int, int], out_path: str) -> int:
    """Export the reachable quantizer outputs for the configured dilation."""
    n = cfg.generator.shape[0]
    if n not in (2, 3):
        raise UnsupportedDimensionError(f"seed export supports dimensions 2 and 3, got {n}")
    lo, hi = level_range
    if lo > hi:
        raise ValueError(f"empty level range {lo}..{hi}")
    d = make_dilation(cfg.generator, cfg.weight)
    p = QuantizerParams(nu=cfg.nu, delta_angle=cfg.delta_angle, dim=n)
    # Cells per angle: n - 2 polar angles on [0, pi], then the azimuth on [0, 2*pi).
    counts = [round(math.pi / p.delta_angle) + 1] * (n - 2)
    counts.append(max(1, round(2.0 * math.pi / p.delta_angle)))
    angle_grids = [[j * p.delta_angle for j in idx]
                   for idx in itertools.product(*map(range, counts))]
    rows = []
    for level in range(lo, hi + 1):
        try:
            value = p.nu ** level * p.xi0
            for idx, angles in enumerate(angle_grids):
                seed = np.zeros(n) if value == 0.0 else \
                    _apply_unit(d, math.log(value), unit_from_angles(d, angles))
                r = hom_norm(d, seed)
                if r == 0.0:  # the seed is the origin
                    raise FloatingPointError(f"the seeds of level {level} underflow to zero")
                rows.append([level, idx, *seed.tolist(), r])
        except OverflowError as exc:  # nu**level, or NormOverflowError from the rebuild
            raise OverflowError(f"the seeds of level {level} overflow the float range") from exc
    header = ["level", "angle_index"] + [f"x{i+1}" for i in range(n)] + ["hnorm"]
    _write_csv(out_path, header, (np.array(rows),))
    return 0


def cmd_check(suite: str, rng_seed: int = 42, nu: float | None = None, stream=None) -> int:
    """Run property suites; print one PASS/FAIL line each, sorted by name."""
    stream = stream or sys.stdout
    if suite == "all":
        names = SUITE_NAMES
    elif suite in SUITE_NAMES:
        names = (suite,)
    else:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES + ('all',))}")
    results = []
    for name in names:
        results.extend(run_suite(name, rng_seed=rng_seed, nu_override=nu))
    ok = True
    for r in sorted(results, key=lambda r: r.name):
        ok &= r.passed
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} {r.residual:.6e} {r.bound:.6e}",
              file=stream)
    return 0 if ok else 1


def _parse_levels(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"levels must look like LO..HI, got {text!r}")
    return int(lo), int(hi)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; route usage problems to 4 instead.
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="homquant",
                     description="Homogeneous-quantizer simulation and property checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate the closed loop, write a CSV trajectory")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_seeds = sub.add_parser("seeds", help="export quantizer seed states over a level range")
    p_seeds.add_argument("--config", required=True)
    p_seeds.add_argument("--levels", required=True, metavar="LO..HI")
    p_seeds.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="run sampled property suites")
    p_check.add_argument("--suite", required=True)
    p_check.add_argument("--seed", type=int, default=42)
    p_check.add_argument("--nu", type=float, default=None,
                         help="override the quantizer contraction ratio (diagnostic)")
    return parser


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(_load_config(args.config), args.out)
        if args.command == "seeds":
            return cmd_seeds(_load_config(args.config), _parse_levels(args.levels), args.out)
        return cmd_check(args.suite, rng_seed=args.seed, nu=args.nu)
    except (ArithmeticError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ArithmeticError) else 3 if isinstance(exc, OSError) else 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
