"""Reference mathematics and output checks for the homquant benchmark.

Everything here is independent of the package under test: the dilation
exponentials are closed forms, the homogeneous norm is a plain bisection and
the nominal loop is re-integrated with scipy's DOP853.  Each check returns a
list of failure messages (empty means the output is correct), so a caller can
count failed operations and print why they failed.

Bounds are the ones the package's own property suites use.  scipy's
integrate and optimize modules are imported inside the checks that use them,
so that they are not loaded before the first timed operation.
"""

from __future__ import annotations

import math
import re

import numpy as np

# --- dilations used by the benchmark -------------------------------------

DIAG321 = np.diag([3.0, 2.0, 1.0])
WEIGHT_P = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]])
ROTATE2 = np.array([[2.0, -1.5], [1.0, 1.0]])
JORDAN2 = np.array([[1.0, 1.0], [0.0, 1.0]])

# ROTATE2 = 1.5 I + K with K @ K = -1.25 I, so exp(sK) = cos(ws) I + sin(ws)/w K.
_ROT_OMEGA = math.sqrt(1.25)

# Bounds shared with homquant.suites.
DEFINING_EQUATION_TOL = 1e-12   # norm.defining_equation
HOMOGENEITY_TOL = 1e-7          # norm.homogeneity
STRAIGHTEN_TOL = 1e-8           # norm.straighten_roundtrip
RADIAL_GRID_TOL = 1e-9          # sim.quantized_norm_grid / quantizer.output_norm_grid
# Relative distance of the RK4 final state (h = 1e-4) from DOP853 at
# rtol 1e-13; the observed distance is 2e-14 to 4e-14.
NOMINAL_FINAL_TOL = 1e-9
# Relative slack on radial-cell membership of the quantized state.
CELL_SLACK = 1e-9
# Relative error allowed in the recorded homogeneous norm; the package's
# solve stops within 5e-13 of the unit sphere.
HNORM_TOL = 1e-9


def expm_apply(generator: np.ndarray, s, cols: np.ndarray) -> np.ndarray:
    """Column ``j`` of the result is ``exp(s[j] * generator) @ cols[:, j]``.

    Closed forms for the three generators the benchmark uses; any other
    generator is refused.
    """
    s = np.asarray(s, dtype=float)
    if np.array_equal(generator, DIAG321):
        return np.exp(np.outer([3.0, 2.0, 1.0], s)) * cols
    if np.array_equal(generator, ROTATE2):
        x0, x1 = cols
        kx = np.array([0.5 * x0 - 1.5 * x1, x0 - 0.5 * x1])
        ws = _ROT_OMEGA * s
        return np.exp(1.5 * s) * (np.cos(ws) * cols + np.sin(ws) / _ROT_OMEGA * kx)
    if np.array_equal(generator, JORDAN2):
        return np.exp(s) * (cols + s * np.array([cols[1], np.zeros_like(cols[1])]))
    raise ValueError("no closed-form exponential for this generator")


def weighted_norms(weight: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``sqrt(x' P x)`` of each column."""
    return np.sqrt(np.einsum("ij,ij->j", cols, weight @ cols))


def ref_hom_norms(generator, weight, cols: np.ndarray) -> np.ndarray:
    """Homogeneous norms of the columns by bisection on ``s`` (zero columns give 0)."""
    lo = np.full(cols.shape[1], -60.0)
    hi = np.full(cols.shape[1], 60.0)
    # 64 halvings of a width-120 bracket reach below one ulp of s.
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        big = weighted_norms(weight, expm_apply(generator, -mid, cols)) > 1.0
        lo = np.where(big, mid, lo)
        hi = np.where(big, hi, mid)
    r = np.exp(0.5 * (lo + hi))
    return np.where(np.any(cols != 0.0, axis=0), r, 0.0)


# --- trajectory CSV --------------------------------------------------------

def parse_csv(text: str, n: int, m: int, rows: int) -> tuple[np.ndarray, list[str]]:
    """Parse a ``homquant simulate`` CSV and check that it round-trips through ``%.17g``.

    Returns the numeric table (``rows`` x ``2n+m+2``) and the failures.
    """
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"q{i+1}" for i in range(n)]
              + [f"u{i+1}" for i in range(m)] + ["hnorm"])
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    failures = []
    if not lines or lines[0] != ",".join(header):
        failures.append("csv header mismatch")
        return np.empty((0, len(header))), failures
    body = lines[1:]
    if len(body) != rows:
        failures.append(f"csv has {len(body)} rows, expected {rows}")
    table = np.empty((len(body), len(header)))
    for k, line in enumerate(body):
        tokens = line.split(",")
        if len(tokens) != len(header):
            failures.append(f"csv row {k} has {len(tokens)} fields")
            return table[:k], failures
        for j, tok in enumerate(tokens):
            try:
                v = float(tok)
            except ValueError:
                failures.append(f"csv row {k} field {j} is not a number: {tok!r}")
                return table[:k], failures
            if f"{v:.17g}" != tok:
                failures.append(f"csv row {k} field {j} does not round-trip: {tok!r}")
                return table[:k], failures
            table[k, j] = v
    return table, failures


def check_rows_finite(table: np.ndarray) -> list[str]:
    bad = ~np.all(np.isfinite(table), axis=1)
    return [f"{int(np.sum(bad))} non-finite rows"] if np.any(bad) else []


def check_times(times: np.ndarray, h: float) -> list[str]:
    expected = np.arange(len(times)) * h
    return [] if np.array_equal(times, expected) else ["time column is not k*h"]


def check_hnorm_column(states: np.ndarray, hnorm: np.ndarray) -> list[str]:
    """The recorded homogeneous norm matches the reference norm of the state."""
    ref = ref_hom_norms(DIAG321, np.eye(3), states.T)
    err = np.abs(hnorm - ref) / np.maximum(ref, 1e-300)
    worst = float(np.max(err)) if len(err) else 0.0
    return [] if worst <= HNORM_TOL else [f"hnorm column off by {worst:.3e} relative"]


# --- closed loop -----------------------------------------------------------

def loop_rhs(gain: np.ndarray, norm_power: float):
    """Right-hand side of the nominal benchmark loop, written from the plant's definition."""
    from scipy.optimize import brentq

    g = np.array([3.0, 2.0, 1.0])
    gain = np.asarray(gain, dtype=float).reshape(-1)

    def rhs(_t, x):
        x1, x2, x3 = x
        drift = np.array([x2 * x3 * x3 + x2 * x2, x1, x2 + x3 * x3])
        if not np.any(x):
            return drift

        def excess(s):
            y = np.exp(-s * g) * x
            return math.log(math.sqrt(float(y @ y)))

        s = brentq(excess, -60.0, 60.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        u = math.exp(norm_power * s) * float(gain @ (np.exp(-s * g) * x))
        return drift + np.array([u, 0.0, 0.0])

    return rhs


def check_nominal_final(x0, final, t_end: float, gain, norm_power: float) -> list[str]:
    """The final RK4 state agrees with DOP853 at tight tolerance."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(loop_rhs(gain, norm_power), (0.0, t_end), np.asarray(x0, dtype=float),
                    method="DOP853", rtol=1e-13, atol=1e-16)
    if not sol.success:
        return [f"reference integration failed: {sol.message}"]
    ref = sol.y[:, -1]
    err = float(np.linalg.norm(np.asarray(final) - ref) / np.linalg.norm(ref))
    return [] if err <= NOMINAL_FINAL_TOL else [f"final state off DOP853 by {err:.3e} relative"]


def radial_levels(q_states: np.ndarray, nu: float, xi0: float,
                  generator=DIAG321, weight=np.eye(3)) -> tuple[np.ndarray, np.ndarray]:
    """Reference norms of the quantized rows, their fractional radial level
    ``log(r / xi0) / log(nu)``, and each level's distance in log-radius from
    the nearest grid level (zero rows give norm 0 and distance 0)."""
    rq = ref_hom_norms(generator, weight, q_states.T)
    live = rq > 0
    t = np.zeros_like(rq)
    t[live] = (np.log(rq[live]) - math.log(xi0)) / math.log(nu)
    return rq, t, np.abs(t - np.round(t)) * abs(math.log(nu))


def check_quantized_rows(states: np.ndarray, q_states: np.ndarray,
                         nu: float, xi0: float) -> list[str]:
    """Every quantized row lies on the radial grid ``nu^i * xi0`` and in the
    radial cell that contains the state it quantizes."""
    failures = []
    rq, _, off_grid = radial_levels(q_states, nu, xi0)
    live = rq > 0
    if np.any(off_grid > RADIAL_GRID_TOL):
        failures.append(f"quantized norm off the radial grid by {float(np.max(off_grid)):.3e}")
    delta = (1.0 - nu) / (1.0 + nu)
    r = ref_hom_norms(DIAG321, np.eye(3), states[live].T)
    value = rq[live]
    outside = (r < value / (1.0 + delta) * (1.0 - CELL_SLACK)) | \
              (r >= value / (1.0 - delta) * (1.0 + CELL_SLACK))
    if np.any(outside):
        failures.append(f"{int(np.sum(outside))} states outside their radial cell")
    return failures


def symbol_counts(q_states: np.ndarray, nu: float, xi0: float) -> tuple[int, int]:
    """``(cell_switches, levels_visited)`` of a recorded quantized trajectory.

    A switch is a recorded row whose quantized state differs from the row
    before it: one new symbol sent by the loop.
    """
    switches = int(np.sum(np.any(q_states[1:] != q_states[:-1], axis=1)))
    rq, t, _ = radial_levels(q_states, nu, xi0)
    levels = np.unique(np.round(t[rq > 0]))
    return switches, int(len(levels))


# --- check --suite all -----------------------------------------------------

_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) (\S+) (\S+)$")


def check_suite_output(rc: int, text: str) -> tuple[int, list[str]]:
    """Parse ``homquant check`` output.  Returns the property count and the failures."""
    failures = [] if rc == 0 else [f"check exited with {rc}"]
    lines = text.splitlines()
    if not lines:
        return 0, failures + ["check printed no properties"]
    names = set()
    for line in lines:
        m = _CHECK_LINE.match(line)
        if m is None:
            failures.append(f"unparsable line {line!r}")
            continue
        verdict, name, residual, bound = m.groups()
        try:
            ok = float(residual) <= float(bound)
        except ValueError:
            ok = False
        if verdict != "PASS" or not ok or name in names:
            failures.append(f"property {name} did not pass: {line!r}")
        names.add(name)
    return len(lines), failures


# --- batched norm and straightening ---------------------------------------

def check_norm_batch(generator, weight, xs: np.ndarray, rho: np.ndarray,
                     norms: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Per-state pass mask for ``hom_norm_many`` / ``phi_many`` outputs.

    ``xs`` were built as ``exp(ln(rho) G) u`` with ``|u|_P = 1``, so their
    homogeneous norms are ``rho``.
    """
    cols = xs.T
    with np.errstate(divide="ignore", invalid="ignore"):
        units = expm_apply(generator, -np.log(norms), cols)
        defining = np.abs(weighted_norms(weight, units) - 1.0)
        homogeneity = np.abs(norms - rho) / rho
        straighten = weighted_norms(weight, phis.T - norms * units) / norms
    ok = (defining <= DEFINING_EQUATION_TOL) & (homogeneity <= HOMOGENEITY_TOL) \
        & (straighten <= STRAIGHTEN_TOL)
    return ok & np.all(np.isfinite(phis), axis=1) & np.isfinite(norms)
