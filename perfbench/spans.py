"""Span tracing of homquant's layers from outside the package.

Each layer's entry point is wrapped where its caller looks it up: a module
attribute such as ``homquant.simulation._solve`` (the name ``simulate``'s
stages call) or a ``Dilation`` method.  A wrapper records one span per call
(name, start, end, parent span, run id and an optional work count) into
arrays held in memory; nothing is written until the benchmark ends.  When an
entry point no longer exists the hook is skipped and the metrics that depend
only on it are reported as absent.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass

import numpy as np

BACKENDS = ("diag", "eig", "expm")
SUITES = ("dilation", "norm", "quantizer", "sector", "sim")


def _backend(args):
    return args[0]._mode


def _first_len(args, result):
    return len(args[1])


def _cols(args, result):
    return args[1].shape[1]


def _rows(args, result):
    return len(result)


# (module, attribute, span name or prefix, name suffix from args, work count)
MODULE_HOOKS = (
    ("homquant.cli", "main", "cli.main", None, None),
    ("homquant.cli", "simulate", "simulation.simulate", None, None),
    ("homquant.simulation", "simulate", "simulation.simulate", None, None),
    ("homquant.cli", "_example_drift", "simulation.drift", None, None),
    ("homquant.simulation", "_example_drift", "simulation.drift", None, None),
    ("homquant.simulation", "check_field_homogeneity", "simulation.plant_audit", None, None),
    ("homquant.cli", "run_suite", "suites", lambda args: args[0], _rows),
    ("homquant.geometry", "_solve", "geometry.solve", None, None),
    ("homquant.simulation", "_solve", "geometry.solve", None, None),
    ("homquant.quantizer", "_solve", "geometry.solve", None, None),
    ("homquant.geometry", "_solve_many", "geometry.solve_many", None, _cols),
    ("homquant.quantizer", "log_quantize", "quantizer.log_quantize", None, None),
    ("homquant.simulation", "log_quantize", "quantizer.log_quantize", None, None),
    ("homquant.quantizer", "spherical_quantize", "quantizer.spherical_quantize", None, None),
    ("homquant.simulation", "spherical_quantize", "quantizer.spherical_quantize", None, None),
    ("homquant.quantizer", "hom_quantize", "quantizer.hom_quantize", None, None),
    ("homquant.checks", "hom_quantize", "quantizer.hom_quantize", None, None),
    ("homquant.simulation", "hom_quantize", "quantizer.hom_quantize", None, None),
    ("homquant.checks", "sample_states", "checks.sample_states", None, None),
    ("homquant.checks", "_sample_off_boundary", "checks.off_boundary", None, _rows),
    # Called once per drawn direction that passed the radial margin, just
    # before the pole and angular-margin tests.
    ("homquant.checks", "to_spherical", "checks.angular_test", None, None),
    ("homquant.checks", "check_quantizer_discrete_homogeneity", "checks.discrete_homogeneity",
     None, None),
    ("homquant.checks", "check_hom_sector", "checks.hom_sector", None, None),
)

# (Dilation method, span prefix, work count); the suffix is the backend.
METHOD_HOOKS = (
    ("apply", "dilation.apply", None),
    ("apply_each", "dilation.apply_each", _first_len),
)


@dataclass
class Spans:
    """Spans of one traced run as parallel arrays."""

    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    run_id: np.ndarray
    count: np.ndarray

    def __len__(self):
        return len(self.start)


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self, run_id: int = 0):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._count = array("q")
        self._stack: list[int] = []
        self.run_id = run_id
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, prefix, suffix_of, count_of):
        ids, ident = {}, self._id
        fixed = ident(prefix) if suffix_of is None else -1
        names, starts, ends = self._name, self._start, self._end
        parents, counts, stack = self._parent, self._count, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed
            if nid < 0:
                key = suffix_of(args)
                nid = ids.get(key)
                if nid is None:
                    nid = ids[key] = ident(f"{prefix}.{key}")
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            counts.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count_of is not None:
                counts[idx] = count_of(args, result)
            return result

        return traced

    def __enter__(self):
        for modname, attr, prefix, suffix_of, count_of in MODULE_HOOKS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, prefix, suffix_of, count_of))
        from homquant.dilation import Dilation
        for attr, prefix, count_of in METHOD_HOOKS:
            fn = Dilation.__dict__.get(attr)
            if fn is None or "_mode" not in getattr(Dilation, "__dataclass_fields__", {}):
                self.missing.add(f"Dilation.{attr}")
                continue
            self._saved.append((Dilation, attr, fn))
            setattr(Dilation, attr, self._wrap(fn, prefix, _backend, count_of))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def spans(self) -> Spans:
        n = len(self._start)
        return Spans(list(self.names), np.array(self._name, dtype=np.int32),
                     np.array(self._start, dtype=float), np.array(self._end, dtype=float),
                     np.array(self._parent, dtype=np.int32),
                     np.full(n, self.run_id, dtype=np.int32),
                     np.array(self._count, dtype=np.int64))


def self_times(sp: Spans) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = sp.end - sp.start
    child = np.zeros(len(sp))
    has = sp.parent >= 0
    np.add.at(child, sp.parent[has], dur[has])
    return dur - child


def layer_metrics(sp: Spans, missing: set[str]) -> dict[str, tuple[float | None, str]]:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``.

    A layer that was not reached reads 0; a metric whose every entry point is
    gone reads ``None`` (absent).
    """
    own = self_times(sp)
    dur = sp.end - sp.start
    ids = {name: i for i, name in enumerate(sp.names)}

    def sel(name):
        return sp.name_id == ids[name] if name in ids else np.zeros(len(sp), dtype=bool)

    def calls(name):
        return int(np.sum(sel(name)))

    def self_s(name):
        return float(np.sum(own[sel(name)]))

    def child_calls(child, parent_name):
        mask = sel(child)
        par = sp.parent[mask]
        return int(np.sum(sel(parent_name)[par[par >= 0]]))

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls("geometry.solve")
    applies_in_solve = sum(child_calls(f"dilation.apply.{b}", "geometry.solve") for b in BACKENDS)
    solve_many = calls("geometry.solve_many")
    iters = sum(child_calls(f"dilation.apply_each.{b}", "geometry.solve_many") for b in BACKENDS)
    sim = sel("simulation.simulate")
    drift = sel("simulation.drift")
    drift_in_sim = drift & (sp.parent >= 0)
    drift_in_sim[drift_in_sim] = sim[sp.parent[drift_in_sim]]
    tested = child_calls("checks.angular_test", "checks.off_boundary")
    accepted = int(np.sum(sp.count[sel("checks.off_boundary")]))

    m: dict[str, tuple[float | None, str]] = {
        "geometry.solve.calls": (solves, "count"),
        "geometry.solve.self_s": (self_s("geometry.solve"), "s"),
        "geometry.solve.apply_per_call": (ratio(applies_in_solve, solves), "ratio"),
    }
    for b in BACKENDS:
        name = f"dilation.apply.{b}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.us_per_call"] = (ratio(self_s(name), calls(name)) * 1e6, "us")
    for q in ("log_quantize", "spherical_quantize", "hom_quantize"):
        m[f"quantizer.{q}.calls"] = (calls(f"quantizer.{q}"), "count")
        m[f"quantizer.{q}.self_s"] = (self_s(f"quantizer.{q}"), "s")
    m.update({
        "simulation.simulate.self_s": (self_s("simulation.simulate"), "s"),
        "simulation.drift.calls": (int(np.sum(drift_in_sim)), "count"),
        "simulation.drift.self_s": (float(np.sum(own[drift_in_sim])), "s"),
        "simulation.plant_audit_s": (float(np.sum(dur[sel("simulation.plant_audit")])), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "geometry.solve_many.calls": (solve_many, "count"),
        "geometry.solve_many.cols": (int(np.sum(sp.count[sel("geometry.solve_many")])), "count"),
        "geometry.solve_many.self_s": (self_s("geometry.solve_many"), "s"),
        "geometry.solve_many.iters_per_call": (ratio(iters, solve_many), "ratio"),
    })
    for b in BACKENDS:
        name = f"dilation.apply_each.{b}"
        m[f"{name}.cols"] = (int(np.sum(sp.count[sel(name)])), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for c in ("sample_states", "discrete_homogeneity", "hom_sector"):
        m[f"checks.{c}.self_s"] = (self_s(f"checks.{c}"), "s")
    m["checks.off_boundary.accept_ratio"] = (ratio(accepted, tested), "ratio")
    for name in SUITES:
        m[f"suites.{name}.s"] = (float(np.sum(dur[sel(f"suites.{name}")])), "s")
    m["suites.properties"] = (int(sum(np.sum(sp.count[sel(f"suites.{name}")])
                                      for name in SUITES)), "count")

    for metric, hooks in _SOURCES.items():
        if all(h in missing for h in hooks):
            for key in [k for k in m if k.startswith(metric)]:
                m[key] = (None, m[key][1])
    if _ACCEPT_NEEDS & missing:
        m["checks.off_boundary.accept_ratio"] = (None, "ratio")
    return m


# Entry points each metric family is measured at; a family is absent only
# when all of them are gone.
_SOURCES = {
    "geometry.solve.": ("homquant.geometry._solve", "homquant.simulation._solve",
                        "homquant.quantizer._solve"),
    "dilation.apply.": ("Dilation.apply",),
    "dilation.apply_each.": ("Dilation.apply_each",),
    "quantizer.log_quantize.": ("homquant.quantizer.log_quantize",
                                "homquant.simulation.log_quantize"),
    "quantizer.spherical_quantize.": ("homquant.quantizer.spherical_quantize",
                                      "homquant.simulation.spherical_quantize"),
    "quantizer.hom_quantize.": ("homquant.quantizer.hom_quantize", "homquant.checks.hom_quantize",
                                "homquant.simulation.hom_quantize"),
    "simulation.simulate.": ("homquant.cli.simulate", "homquant.simulation.simulate"),
    "simulation.drift.": ("homquant.cli._example_drift", "homquant.simulation._example_drift"),
    "simulation.plant_audit_s": ("homquant.simulation.check_field_homogeneity",),
    "cli.self_s": ("homquant.cli.main",),
    "geometry.solve_many.": ("homquant.geometry._solve_many",),
    "checks.sample_states.": ("homquant.checks.sample_states",),
    "checks.discrete_homogeneity.": ("homquant.checks.check_quantizer_discrete_homogeneity",),
    "checks.hom_sector.": ("homquant.checks.check_hom_sector",),
    "suites.": ("homquant.cli.run_suite",),
}
# The acceptance ratio needs both of its entry points.
_ACCEPT_NEEDS = {"homquant.checks._sample_off_boundary", "homquant.checks.to_spherical"}


def write_spans(path, sp: Spans) -> None:
    """Write one traced run's spans to an ``.npz`` file."""
    np.savez_compressed(path, names=np.array(sp.names), name_id=sp.name_id, start=sp.start,
                        end=sp.end, parent=sp.parent, run_id=sp.run_id, count=sp.count)
