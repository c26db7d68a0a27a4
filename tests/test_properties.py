"""The property registry behind ``homquant check``, one test case per property.

Each case evaluates the property directly at the CLI's default seed, so a
property that raises shows its traceback, and asserts its bound and a
wall-clock budget.
"""

import time

import pytest

from homquant.suites import PROPERTIES, SUITE_NAMES, run_suite

SEED = 42


@pytest.mark.parametrize("prop", PROPERTIES, ids=[p.name for p in PROPERTIES])
def test_property(prop):
    t0 = time.perf_counter()
    residual = prop.fn(SEED, None)
    elapsed = time.perf_counter() - t0
    assert residual <= prop.bound, f"{prop.name}: residual {residual:.6e} > bound {prop.bound:.6e}"
    assert elapsed < 5.0


def test_registry_names():
    """45 distinct names in the five suites that ``check --suite`` accepts."""
    names = [p.name for p in PROPERTIES]
    assert len(names) == len(set(names)) == 45
    assert SUITE_NAMES == ("dilation", "norm", "quantizer", "sector", "sim")


def test_property_residual_does_not_depend_on_evaluation_order():
    """Every property draws from its own generators, so evaluating it alone,
    in reverse registry order, reproduces the residual its suite reports."""
    in_suite = {r.name: r.residual for r in run_suite("dilation", SEED)}
    alone = {p.name: float(p.fn(SEED, None))
             for p in reversed(PROPERTIES) if p.suite == "dilation"}
    assert alone == in_suite
