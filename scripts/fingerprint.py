#!/usr/bin/env python3
"""Print a sha256 of each reference output of the ``homquant`` CLI and library.

The 30 outputs are the stdout of ``homquant check --suite all`` at seeds 0, 1,
2, 3, 42, 7919 and 12345 and of ``homquant check --suite quantizer --nu 0.5
--seed 1``, the ``homquant seeds --levels=-2..2`` CSV of
``configs/example3d.cfg``, the ``homquant seeds --levels=-3..3`` CSVs of the
2-D Jordan config ``JORDAN``, whose dilation takes the expm backend, and
of its eigen-backend twin ``EIG2``, whose norms take the numpy Newton loop, and
the ``homquant simulate`` CSVs of ``configs/example3d.cfg`` at ``t_end = 0.5``:
quantized and nominal, and quantized under the weight ``WEIGHT``, which takes
the numpy Newton loop instead of the float one.  Four more ``simulate`` runs
of that config blow up (``BLOWUPS``, quantized and nominal): their CSVs are
hashed with the exit status, so the partial trajectory of the error exit is
covered too.  So is the error exit of ``seeds``: ``--levels=L..L`` of that
config at each ``L`` of ``SEED_ERRORS`` leaves the float range, and its exit
status, its stderr and whether a CSV was written are hashed.  Three outputs
cross the scale where states once counted as the origin (``|x|_P <= 1e-12``):
the ``seeds`` CSVs of that config at each level of ``SMALL_LEVELS`` and its
``simulate`` CSVs from ``x0 = SMALL_X0`` at ``t_end = 0.5``, quantized and
nominal.  The ``seeds`` CSV of that config under ``WEIGHT`` at
``WEIGHTED_LEVEL`` has a fifth of its norms solved from the bracket's floor
on the numpy Newton loop.  The last output hashes the bytes of the library
calls ``hom_norm_many`` and ``phi_many`` on a seeded batch of ``BATCH_ROWS``
rows for each of ``BATCH_DILATIONS``: three full blocks of 8192 columns and a
one-column tail, which no CLI output spans.  The very last hashes the bytes of
``Dilation.matrix(s)`` and ``Dilation.apply(s, x)`` on the expm backend, for
each generator of ``EXPM_GENERATORS`` at each ``s`` of ``EXPM_S``: no other
output reaches the expm ``matrix``.  The thirtieth hashes the bytes of the scalar
``spherical_quantize`` and ``to_spherical`` on ``SPHERE_ROWS`` seeded unit
vectors for each ``n`` of ``SPHERE_DIMS``, under the identity and the weight of
``_sphere_weight``, at each pitch of ``SPHERE_PITCHES``: no CLI output reaches
the spherical cell of a state size other than 3 or 2.  A change meant to keep every result shows
the same hashes as the commit before it:

    python3 scripts/fingerprint.py                    # the src/ next to this script
    python3 scripts/fingerprint.py src ../before/src  # side by side; exit 1 on any difference

Side by side, each ``check`` output that differs is explained below the hashes:
every property whose line differs, with each tree's status and residual, and
the bound.  Each source tree runs in its own interpreter with it first on
``sys.path``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "example3d.cfg"
CHECK_SEEDS = (0, 1, 2, 3, 42, 7919, 12345)
WEIGHT = "2 0.5 0; 0.5 1 0.2; 0 0.2 1"
JORDAN = ("generator = 1 1; 0 1\ngain = -1 -1.5\nnu = 0.7\n"
          "delta_angle = 0.15707963267948966\nx0 = 1 1\n")
# JORDAN with a diagonalizable generator: its dilation takes the eigen backend.
EIG2 = JORDAN.replace("generator = 1 1; 0 1", "generator = 2 -1.5; 1 1")
# Settings under which the benchmark loop blows up: the gain of the wrong sign
# (the error comes from an RK4 stage after 179 quantized and 157 nominal rows),
# and the stock gain with a step of 0.5 (from a row check after 3 rows).
BLOWUPS = ({"gain": "5.5055 15.8387 16.3807", "step": "0.001", "t_end": "5"},
           {"step": "0.5", "t_end": "20"})
# Seed levels past the float range: the level's value or a seed overflows
# (-2000, -700) or underflows to zero (1000, 3000).
SEED_ERRORS = (-2000, -700, 1000, 3000)
# Seed levels whose norms (5.98e-10 and 1.29e-62) lie far below the unit
# sphere, and a start whose |x|_P is 1e-13 but whose norm is 4.64e-5.
SMALL_LEVELS = (60, 400)
SMALL_X0 = "1e-13 0 0"
# A seed level under WEIGHT whose weighted norms start the solve at the floor.
WEIGHTED_LEVEL = 550
# Rows of the batch that library output hashes, and its dilations: weighted
# diag(3, 2, 1), an eigen-backend rotation and an expm-backend Jordan block.
BATCH_ROWS = 3 * 8192 + 1
BATCH_DILATIONS = {
    "diag321 weight=" + WEIGHT: ("3 0 0; 0 2 0; 0 0 1", WEIGHT),
    "rotate2": ("2 -1.5; 1 1", None),
    "jordan2": ("1 1; 0 1", None),
}
# Jordan blocks, which take the expm backend, the parameters at which their
# matrix and apply are hashed (from 0 to 4 squarings, and both signs of s),
# and the state that apply moves (its first dim entries).
EXPM_GENERATORS = ("1 1; 0 1", "1 1 0; 0 1 1; 0 0 1")
EXPM_S = (0.0, 1e-3, -1e-3, 0.7, -0.7, 5.0, -5.0, 12.0, -12.0, 30.0, -30.0)
EXPM_X = (0.3, -1.7, 2.9)
# State sizes, rows per size and angle pitches of the spherical output; a fifth
# of the entries are zeros of either sign, so degenerate tails and the wrap of
# the last angle are covered.
SPHERE_DIMS = (2, 3, 4, 5)
SPHERE_ROWS = 1000
SPHERE_PITCHES = (0.15707963267948966, 0.3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(text: str, quantized: bool, weight: str | None = None, **keys: str) -> str:
    keys = {"t_end": "0.5", **keys, "quantized": str(quantized).lower()}
    for key, value in keys.items():
        text = re.sub(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
    return text if weight is None else text + f"weight = {weight}\n"


def _matrix(text: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split()] for row in text.split(";")])


def _batch_bytes() -> bytes:
    """``hom_norm_many`` and ``phi_many`` of seeded batches, norms spread over six decades."""
    from homquant import hom_norm_many, make_dilation, phi_many

    data = b""
    for k, (gen, weight) in enumerate(BATCH_DILATIONS.values()):
        d = make_dilation(_matrix(gen), None if weight is None else _matrix(weight))
        rng = np.random.default_rng([28, k])
        xs = rng.standard_normal((BATCH_ROWS, d.dim)) * np.exp(
            rng.uniform(-7.0, 7.0, (BATCH_ROWS, 1)))
        data += hom_norm_many(d, xs).tobytes() + phi_many(d, xs).tobytes()
    return data


def _expm_bytes() -> bytes:
    """``matrix(s)`` and ``apply(s, x)`` of each expm-backend dilation at each ``s``."""
    from homquant import make_dilation

    data = b""
    for gen in EXPM_GENERATORS:
        d = make_dilation(_matrix(gen))
        x = np.array(EXPM_X[:d.dim])
        for s in EXPM_S:
            data += d.matrix(s).tobytes() + d.apply(s, x).tobytes()
    return data


def _sphere_weight(n: int) -> np.ndarray:
    """Tridiagonal weight with 2 on the diagonal and 0.5 beside it, monotone under diag(n..1)."""
    return 2.0 * np.eye(n) + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))


def _sphere_bytes() -> bytes:
    """``spherical_quantize`` and ``to_spherical`` of seeded unit vectors, row by row."""
    from homquant import QuantizerParams, make_dilation, spherical_quantize, to_spherical

    data = b""
    for n in SPHERE_DIMS:
        for weight in (None, _sphere_weight(n)):
            d = make_dilation(np.diag(np.arange(n, 0, -1.0)), weight)
            rng = np.random.default_rng([30, n])
            w = rng.standard_normal((SPHERE_ROWS, n))
            w[rng.random(w.shape) < 0.1] = 0.0
            w[rng.random(w.shape) < 0.1] = -0.0
            w[np.all(w == 0.0, axis=1), 0] = 1.0
            for u in w / d.weighted_norms(w.T)[:, None]:
                radius, angles = to_spherical(u)
                data += np.float64(radius).tobytes() + angles.tobytes()
                for pitch in SPHERE_PITCHES:
                    p = QuantizerParams(nu=0.7, delta_angle=pitch, dim=n)
                    data += spherical_quantize(d, p, u).tobytes()
    return data


def _stdout(argv: list[str]) -> bytes:
    from homquant.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue().encode()


def fingerprints() -> tuple[dict[str, str], dict[str, str]]:
    """Hashes of every reference output of the ``homquant`` found on ``sys.path``,
    and the text of each ``check`` output."""
    from homquant.cli import main

    out, checks = {}, {}
    argvs = [["check", "--suite", "all", "--seed", str(seed)] for seed in CHECK_SEEDS]
    for argv in [*argvs, ["check", "--suite", "quantizer", "--nu", "0.5", "--seed", "1"]]:
        name = " ".join(argv)
        checks[name] = _stdout(argv).decode()
        out[name] = _sha(checks[name].encode())
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "out.csv")
        main(["seeds", "--config", str(CONFIG), "--levels=-2..2", "--out", csv])
        out["seeds --levels=-2..2"] = _sha(Path(csv).read_bytes())
        cfg = os.path.join(tmp, "run.cfg")
        Path(cfg).write_text(JORDAN, encoding="utf-8")
        main(["seeds", "--config", cfg, "--levels=-3..3", "--out", csv])
        out["seeds --levels=-3..3 jordan2"] = _sha(Path(csv).read_bytes())
        Path(cfg).write_text(EIG2, encoding="utf-8")
        main(["seeds", "--config", cfg, "--levels=-3..3", "--out", csv])
        out["seeds --levels=-3..3 eig2"] = _sha(Path(csv).read_bytes())
        text = CONFIG.read_text(encoding="utf-8")
        for quantized, weight in ((True, None), (False, None), (True, WEIGHT)):
            Path(cfg).write_text(_config(text, quantized, weight), encoding="utf-8")
            main(["simulate", "--config", cfg, "--out", csv])
            name = f"simulate t_end=0.5 quantized={str(quantized).lower()}"
            if weight is not None:
                name += f" weight={weight}"
            out[name] = _sha(Path(csv).read_bytes())
        for keys in BLOWUPS:
            for quantized in (True, False):
                Path(cfg).write_text(_config(text, quantized, **keys), encoding="utf-8")
                status = main(["simulate", "--config", cfg, "--out", csv])
                name = " ".join(f"{k}={v}" for k, v in keys.items())
                name = f"simulate {name} quantized={str(quantized).lower()} (CSV, exit status)"
                out[name] = _sha(f"exit {status}\n".encode() + Path(csv).read_bytes())
        for level in SEED_ERRORS:
            Path(csv).unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = main(["seeds", "--config", str(CONFIG), f"--levels={level}..{level}",
                               "--out", csv])
            name = f"seeds --levels={level}..{level} (exit status, stderr, CSV written)"
            out[name] = _sha(f"exit {status}\n{err.getvalue()}csv {os.path.exists(csv)}\n"
                             .encode())
        for level in SMALL_LEVELS:
            main(["seeds", "--config", str(CONFIG), f"--levels={level}..{level}", "--out", csv])
            out[f"seeds --levels={level}..{level}"] = _sha(Path(csv).read_bytes())
        for quantized in (True, False):
            Path(cfg).write_text(_config(text, quantized, x0=SMALL_X0), encoding="utf-8")
            main(["simulate", "--config", cfg, "--out", csv])
            out[f"simulate x0={SMALL_X0} t_end=0.5 quantized={str(quantized).lower()}"] = _sha(
                Path(csv).read_bytes())
        Path(cfg).write_text(text + f"weight = {WEIGHT}\n", encoding="utf-8")
        level = f"--levels={WEIGHTED_LEVEL}..{WEIGHTED_LEVEL}"
        main(["seeds", "--config", cfg, level, "--out", csv])
        out[f"seeds {level} weight={WEIGHT}"] = _sha(Path(csv).read_bytes())
    names = ", ".join(BATCH_DILATIONS)
    out[f"hom_norm_many, phi_many of {BATCH_ROWS} rows: {names}"] = _sha(_batch_bytes())
    out[f"expm matrix, apply of {', '.join(EXPM_GENERATORS)}"] = _sha(_expm_bytes())
    dims = ", ".join(map(str, SPHERE_DIMS))
    out[f"spherical_quantize, to_spherical of {SPHERE_ROWS} rows at n = {dims}"] = _sha(
        _sphere_bytes())
    return out, checks


def _run(src: Path) -> list[dict[str, str]]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--emit"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def explain(texts: list[str]) -> list[str]:
    """One line per property whose ``STATUS name residual bound`` line differs
    between the ``check`` outputs ``texts``: each tree's status and residual, then
    the bound (each tree's, where they differ).  A missing property reads ``-``."""
    tables = [{f[1]: f for f in map(str.split, text.splitlines()) if len(f) == 4}
              for text in texts]
    lines = []
    for prop in dict.fromkeys(p for table in tables for p in table):
        rows = [table.get(prop, ["-", prop, "-", "-"]) for table in tables]
        if any(row != rows[0] for row in rows):
            bounds = dict.fromkeys(row[3] for row in rows)
            lines.append(f"{prop}  " + "  ".join(f"{row[0]} {row[2]}" for row in rows)
                         + "  bound " + " / ".join(bounds))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"],
                    help="source trees holding the homquant package (default: ./src)")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        print(json.dumps(fingerprints()))
        return 0
    runs, checks = zip(*(_run(src.resolve()) for src in args.src))
    same = True
    for name in runs[0]:
        hashes = [run.get(name, "-") for run in runs]
        same &= len(set(hashes)) == 1
        print("  ".join(hashes), name)
    if len(runs) > 1:
        print("identical" if same else "DIFFERENT")
        for name in checks[0]:
            texts = [check.get(name, "") for check in checks]
            if len(set(texts)) > 1:
                print(f"{name}:")
                for line in explain(texts):
                    print("  " + line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
