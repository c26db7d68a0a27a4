#!/usr/bin/env python3
"""Summarise the result files in ``perfbench_out/`` into ``BASELINE.md`` and
``baseline.json`` beside this script.

    python3 perfbench/baseline.py

Untraced runs give, per workload and end-to-end metric, the median and the
quartile spread over every seed run; the traced run of the default seed, 1,
gives the per-layer table.
"""

import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "perfbench_out"
WORKLOADS = ("loop", "check_all", "norm_batch")
TRACE_SEED = 1


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None, "n": len(values)}


def main():
    results = [json.loads(f.read_text()) for f in sorted(OUT.glob("result-*.json"))]
    summary = {"end_to_end": {}, "per_layer": {}, "provenance": None}
    lines = ["# Baseline results", ""]
    for w in WORKLOADS:
        runs = [r for r in results if r["workload"] == w and r["trace"] == 0]
        if len(runs) < 2:
            continue
        summary["provenance"] = runs[0]["provenance"]
        e2e = {m: _spread([r["result"]["metrics"][m]["value"] for r in runs])
               for m in runs[0]["result"]["metrics"]}
        for name in runs[0]["named"]:
            e2e[name] = _spread([r["named"][name]["value"] for r in runs])
        e2e["seeds"] = sorted(r["seed"] for r in runs)
        e2e["all_correct"] = all(r["result"]["correct"] for r in runs)
        summary["end_to_end"][w] = e2e
        traced = [r for r in results
                  if r["workload"] == w and r["trace"] == 1 and r["seed"] == TRACE_SEED]
        if traced:
            summary["per_layer"][w] = {k: v["value"] for k, v in
                                       traced[0]["result"]["metrics"].items()}

    prov = summary["provenance"] or {}
    lines += [f"Machine: {prov.get('nproc')} CPUs, {prov.get('cpu_model')}, caches "
              f"{prov.get('caches')}; Python {prov.get('python')}, numpy {prov.get('numpy')}, "
              f"scipy {prov.get('scipy')}, {prov.get('blas')}, BLAS thread variables "
              f"{prov.get('blas_thread_env') or 'unset'}; commit {prov.get('git_commit')}.", ""]
    lines += ["## End to end, untraced", "",
              "Median over the seeds run, with the quartiles and their distance as a share "
              "of the median.", "",
              "| Workload | Metric | Median | Q1 | Q3 | (Q3-Q1)/median | Runs |",
              "| --- | --- | --- | --- | --- | --- | --- |"]
    for w, e2e in summary["end_to_end"].items():
        for m, s in e2e.items():
            if isinstance(s, dict):
                spread = "-" if s["iqr_over_median"] is None else f"{s['iqr_over_median']:.3f}"
                lines.append(f"| {w} | {m} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                             f"| {spread} | {s['n']} |")
    seeds = "; ".join(f"{w}: {e['seeds']}" for w, e in summary["end_to_end"].items())
    lines += ["", f"Seeds: {seeds}.", "", f"## Per layer, traced run of seed {TRACE_SEED}", "",
              "| Metric | " + " | ".join(summary["per_layer"]) + " |",
              "| --- |" + " --- |" * len(summary["per_layer"])]
    names = next(iter(summary["per_layer"].values()), {})
    for m in names:
        cells = [summary["per_layer"][w].get(m) for w in summary["per_layer"]]
        lines.append(f"| {m} | " + " | ".join("absent" if c is None else f"{c:.6g}"
                                              for c in cells) + " |")
    (HERE / "BASELINE.md").write_text("\n".join(lines) + "\n")
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
