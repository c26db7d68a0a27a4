#!/usr/bin/env python3
"""Benchmark of the homquant package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from ``src/`` (nothing is installed), times a few cold
set-ups in fresh processes (``cold_setup.py``), builds the workload's inputs
from the seed, then repeats the workload's operation for
about ``S`` seconds, checking every output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics of the first traced one plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; lines before it name every
metric with its unit and give the provenance.  A result file (and, when
traced, the spans) is written to ``perfbench_out/``.  The exit status is 0
only when every output was correct.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
WORKLOADS = ("loop", "check_all", "norm_batch")
# Cold set-ups per run, each in a fresh process; setup_s is their median.
SETUP_REPEATS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import homquant from this checkout's ``src/``, or explain why not."""
    src = ROOT / "src"
    if not (src / "homquant" / "__init__.py").is_file():
        raise ImportError(f"no homquant package under {src}")
    sys.path.insert(0, str(src))
    import homquant
    if Path(homquant.__file__).resolve().parent != (src / "homquant").resolve():
        raise ImportError(f"homquant was imported from {homquant.__file__}, not from {src}")
    import homquant.cli  # noqa: F401


def _metric(value, unit):
    out = {"value": value, "unit": unit}
    if value is None:
        out["absent"] = True
    return out


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted, failed, messages=()):
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: max(0, 10 - len(self.messages))])


def _repeat(deadline, body):
    """Run ``body(i)`` for i = 0, 1, ... while another run is expected to end
    before ``deadline``; always at least once."""
    costs = []
    i = 0
    while True:
        t0 = perf_counter()
        body(i)
        costs.append(perf_counter() - t0)
        i += 1
        if perf_counter() + statistics.median(costs) > deadline:
            return i


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_setups(workload, seed, scratch):
    """Seconds from the start of a fresh process to the end of its set-up, for
    each of ``SETUP_REPEATS`` processes run one after another."""
    probe = Path(__file__).resolve().parent / "cold_setup.py"
    out = []
    for k in range(SETUP_REPEATS):
        workdir = scratch / f"cold{k}"
        workdir.mkdir()
        t0 = perf_counter()
        done = subprocess.run([sys.executable, str(probe), workload, str(seed), str(workdir)],
                              capture_output=True, text=True, check=True, timeout=120)
        out.append(float(done.stdout.splitlines()[-1]) - t0)
    return out


def run_untraced(wl, seconds, tally):
    """Returns the operation times and the peak resident set taken right
    after the first operation, before any output check has run."""
    durations, peak = [], []

    def body(i):
        elapsed, output = wl.op(i)
        if i == 0:
            peak.append(_rss_mb())
        tally.add(*wl.verify(output))
        durations.append(elapsed)

    _repeat(perf_counter() + seconds, body)
    return durations, peak[0]


def run_traced(wl, seconds, tally):
    from spans import Tracer, layer_metrics

    pairs, first = [], {}

    def body(i):
        untraced, output = wl.op(i)
        tally.add(*wl.verify(output))
        with Tracer(run_id=i) as tracer:
            traced, output = wl.op(i)
        tally.add(*wl.verify(output))
        pairs.append((untraced, traced))
        if i == 0:
            # Later traced runs only time the overhead; their spans are dropped.
            first["spans"] = tracer.spans()
            first.update(layer_metrics(first["spans"], tracer.missing))
            extras, attempted, failed = wl.layer_extras(output)
            first.update(extras)
            tally.add(attempted, failed, ["hom_quantize output off the radial grid"] if failed else [])

    _repeat(perf_counter() + seconds, body)
    first["trace.untraced_s"] = (statistics.median(u for u, _ in pairs), "s")
    first["trace.traced_s"] = (statistics.median(t for _, t in pairs), "s")
    first["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs), "s")
    first["trace.overhead_frac"] = (statistics.median(t / u - 1.0 for u, t in pairs), "ratio")
    spans = first.pop("spans")
    first["trace.spans"] = (len(spans), "count")
    return first, pairs, spans


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _START

    import workloads
    from provenance import provenance

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # The traced run reports no setup_s, so it starts no cold set-ups.
        setups = [] if args.trace else cold_setups(args.workload, args.seed, scratch)
        t0 = perf_counter()
        wl = workloads.make(args.workload, ROOT, scratch)
        wl.setup(args.seed)
        # This process's own set-up, for comparison with the cold ones.
        inprocess_setup_s = import_s + perf_counter() - t0

        tally = Tally()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "cold_setups_s": setups,
                  "inprocess_setup_s": inprocess_setup_s, "rss_after_setup_mb": _rss_mb()}
        if args.trace:
            layers, pairs, spans = run_traced(wl, args.seconds, tally)
            metrics = {k: _metric(v, u) for k, (v, u) in layers.items()}
            record["pairs_s"] = pairs
            from spans import write_spans
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            write_spans(spans_path, spans)
            record["spans_file"] = spans_path.name
            named = {}
        else:
            durations, peak_rss_mb = run_untraced(wl, args.seconds, tally)
            call_s = statistics.median(durations)
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "call_s": _metric(call_s, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
            record["calls_s"] = durations
            # The same measurement under the name each workload's users know it by.
            if args.workload == "check_all":
                named = {"check_s": _metric(call_s, "s")}
            else:
                rate = "states_per_s" if args.workload == "norm_batch" else "steps_per_s"
                named = {rate: _metric(wl.work_per_op / call_s, "1/s")}
            record["last_split_s"] = getattr(wl, "last_split", None)
        named["failed_frac"] = _metric(tally.failed / max(tally.attempted, 1), "ratio")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": max(tally.attempted, 1), "failed": tally.failed, "metrics": metrics}
    record.update(result=result, named=named, failures=tally.messages,
                  provenance=provenance(ROOT, args.seed))
    OUT.mkdir(exist_ok=True)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in {**named, **metrics}.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    for msg in tally.messages:
        print(f"FAILED: {msg}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
