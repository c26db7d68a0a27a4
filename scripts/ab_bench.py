#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, run by run.

    python3 scripts/ab_bench.py PARENT_ROOT CHANGE_ROOT --workload W --seed S

Runs ``perfbench/run.py --workload W --seed S --seconds 40 --trace 0`` of
each tree (40 s is ``run_seconds`` of ``BENCHMARK.json``) in ``--pairs``
pairs (default 10), alternating which tree runs first, and reads the JSON
object on the last line of each run.  For each end-to-end metric of
``BENCHMARK.json`` it prints every run's value, each tree's median and
quartiles, and the number of pairs the change won.  A gain holds where at
least 10 pairs ran, the change won at least 9 in 10 and its median is better
than the parent's by more than the parent's interquartile range.  Exits 1 if
any run failed or reported failed operations.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=3 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["returncode"] = done.returncode
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the tree compared against")
    ap.add_argument("change", type=Path, help="root of the changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = _run(roots[side], args.workload, args.seed, seconds)
            runs[side].append(r)
            bad = r["returncode"] != 0 or not r["correct"] or r["failed"] > 0
            ok &= not bad
            print(f"pair {i + 1} {side}: attempted {r['attempted']} failed {r['failed']}"
                  f"{' FAILED' if bad else ''}", file=sys.stderr, flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs")
    for name, unit, better in metrics:
        vals = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]]
                for side in runs}
        if any(v is None for side in vals for v in vals[side]):
            print(f"{name}: absent in some run")
            continue
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        p1, pm, p3 = statistics.quantiles(vals["parent"], n=4, method="inclusive")
        c1, cm, c3 = statistics.quantiles(vals["change"], n=4, method="inclusive")
        gain = won >= math.ceil(0.9 * args.pairs) and sign * (pm - cm) > p3 - p1
        verdict = ("needs at least 10 pairs" if args.pairs < 10
                   else "holds" if gain else "does not hold")
        print(f"{name} [{unit}, {better} is better]")
        for side in ("parent", "change"):
            print(f"  {side:6s} " + " ".join(f"{v:.4g}" for v in vals[side]))
        print(f"  parent median {pm:.4g} (quartiles {p1:.4g}-{p3:.4g}); "
              f"change median {cm:.4g} (quartiles {c1:.4g}-{c3:.4g}); "
              f"change won {won}/{args.pairs} pairs; gain {verdict}")
    if not ok:
        print("some runs failed or reported failed operations")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
