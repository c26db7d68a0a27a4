"""The side-by-side explanation of ``scripts/fingerprint.py`` on synthetic ``check`` outputs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)

BEFORE = ("PASS norm.a 1.000000e-13 1.000000e-12\n"
          "PASS norm.b 0.000000e+00 1.000000e-09\n"
          "FAIL sim.c 2.000000e-01 1.000000e-01\n")


def test_identical_outputs_explain_nothing():
    assert fingerprint.explain([BEFORE, BEFORE]) == []


def test_each_changed_property_gets_status_residual_and_bound():
    after = BEFORE.replace("PASS norm.a 1.000000e-13", "PASS norm.a 3.000000e-13").replace(
        "FAIL sim.c 2.000000e-01", "PASS sim.c 5.000000e-02")
    assert fingerprint.explain([BEFORE, after]) == [
        "norm.a  PASS 1.000000e-13  PASS 3.000000e-13  bound 1.000000e-12",
        "sim.c  FAIL 2.000000e-01  PASS 5.000000e-02  bound 1.000000e-01",
    ]


def test_changed_bound_and_missing_property():
    after = BEFORE.replace("norm.b 0.000000e+00 1.000000e-09", "norm.b 0.000000e+00 1.000000e-10")
    after += "PASS sim.d 0.000000e+00 0.000000e+00\n"
    assert fingerprint.explain([BEFORE, after]) == [
        "norm.b  PASS 0.000000e+00  PASS 0.000000e+00  bound 1.000000e-09 / 1.000000e-10",
        "sim.d  - -  PASS 0.000000e+00  bound - / 0.000000e+00",
    ]
