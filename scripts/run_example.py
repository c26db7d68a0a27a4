#!/usr/bin/env python3
"""Compare the benchmark closed loop with and without state quantization.

Runs the built-in three-state plant under the configuration's generator and
weight, as ``homquant simulate`` does, twice from the same configuration —
once with exact state feedback and once with the feedback evaluated on the
polar-spherical quantization of the state — then prints settling metrics for
both runs side by side and verifies that every quantized state the loop saw
lies on the radial grid {nu^i * xi0}.

Optionally exports both trajectories as CSV (same column layout as the
``homquant simulate`` subcommand).
"""

import argparse
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from homquant.cli import _write_trajectory_csv, parse_config
from homquant.dilation import make_dilation
from homquant.geometry import hom_norm_many
from homquant.quantizer import QuantizerParams
from homquant.simulation import HomFeedback, example_plant, settling_metrics, simulate

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example3d.cfg"
THRESHOLD = 1e-2


def run(cfg, plant, quantized: bool):
    fb = HomFeedback(gain=cfg.gain, norm_power=cfg.norm_power)
    quant = QuantizerParams(nu=cfg.nu, delta_angle=cfg.delta_angle, dim=3) if quantized else None
    return simulate(plant, fb, quant, cfg.x0, cfg.step, cfg.t_end)


def describe(name, traj):
    norms = np.linalg.norm(traj.states, axis=1)
    t_enter, overshoot = settling_metrics(traj, THRESHOLD)
    entered = f"{t_enter:.4f}" if t_enter is not None else "never"
    print(f"{name:10s} peak|x|={np.max(norms):.4f}  min|x|={np.min(norms):.3e}  "
          f"final|x|={norms[-1]:.3e}  enters {THRESHOLD:g}-ball at t={entered}  "
          f"overshoot={overshoot:.4f}")
    return overshoot


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    ap.add_argument("--step", type=float, help="override the integration step")
    ap.add_argument("--t-end", type=float, help="override the run length")
    ap.add_argument("--out-dir", type=Path,
                    help="write nominal.csv and quantized.csv here")
    args = ap.parse_args(argv)

    cfg = parse_config(args.config.read_text())
    if args.step is not None:
        cfg = replace(cfg, step=args.step)
    if args.t_end is not None:
        cfg = replace(cfg, t_end=args.t_end)
    print(f"step={cfg.step:g}  t_end={cfg.t_end:g}  nu={cfg.nu:g}  "
          f"delta_angle={cfg.delta_angle:.6f}")

    plant = example_plant(make_dilation(cfg.generator, cfg.weight))
    nominal = run(cfg, plant, quantized=False)
    quantized = run(cfg, plant, quantized=True)
    over_n = describe("nominal", nominal)
    over_q = describe("quantized", quantized)
    print(f"overshoot ratio quantized/nominal = {over_q / over_n:.4f}")

    # Every quantized state must sit on the radial grid of the quantizer.
    p = QuantizerParams(nu=cfg.nu, delta_angle=cfg.delta_angle, dim=3)
    mask = quantized.hom_norms > 0
    rs = hom_norm_many(plant.dilation, quantized.quantized_states[mask])
    levels = np.round(np.log(rs / p.xi0) / math.log(p.nu))
    off_grid = float(np.max(np.abs(rs - p.nu ** levels * p.xi0)))
    print(f"max distance of quantized states from the radial grid: {off_grid:.3e}")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        _write_trajectory_csv(str(args.out_dir / "nominal.csv"), nominal)
        _write_trajectory_csv(str(args.out_dir / "quantized.csv"), quantized)
        print(f"wrote {args.out_dir}/nominal.csv and {args.out_dir}/quantized.csv")


if __name__ == "__main__":
    main()
