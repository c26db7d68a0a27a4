"""Straight-line Python-float kernels of the scalar norm solve, the closed loop
and the polar angles of the spherical quantizer.

Two templates, ``_TEMPLATE`` (the Newton core, the RK4 stage and update) and
``_POLAR``, cover every state size ``n`` and input count ``m``.  Each is
rendered, compiled and cached on its first use at a size, never at import: a
line holding ``{i}`` (``{j}``) is repeated for each coordinate (input), one
holding ``{r}`` for ``r`` from ``n-1`` down to ``1``, and ``<<sep item>>``
joins ``item`` over ``{l}`` in ``1..m`` (or, where it holds no ``{l}``, over
``{k}`` in ``1..n``) with ``sep``, one of ``,``, ``+`` and ``and``.  ``{n}`` is
``n``; an index may carry an offset, as in ``{r+1}``, and a line or join item
naming an index below 1 is left out.  Lines tagged ``# floats`` build the
Newton core of a diagonal generator under the identity weight, on Python
floats; lines tagged ``# arrays`` build it for every other dilation, through
:meth:`~homquant.dilation.Dilation.unit_residual`.  The source is registered
in :mod:`linecache` under a pseudo-filename, so a traceback through the
kernel shows its lines.  Each sum runs in coordinate order, so where numpy's
dot product formed it before, the last bit can differ.
"""

from __future__ import annotations

import functools
import linecache
import re
from math import atan2, exp, floor, inf, isfinite, log, nan, sqrt, tau

from numpy import array, asarray, ndarray

from .errors import NoConvergenceError, NonFiniteInputError, NotOnSphereError

_TEMPLATE = '''\
def make_newton(geometry, d, lam, floor):
    """geometry._solve's Newton core for the dilation d: newton(d, x, s0) -> (s, y) or None.
    It holds no reference to d, which can then be collected."""
    <<, lam{k}>>, = lam  # floats
    eta_min, eta_max = d.eta_min, d.eta_max
    # Stop at half the tolerance so the residual recomputed from exp(s) by a
    # caller stays within _REL_TOL despite the extra roundoff.
    norm_min, log_max, tol = geometry._NORM_MIN, geometry._LOG_MAX, 0.5 * geometry._REL_TOL

    def newton(d, x, s0):
        if isinstance(x, ndarray):  # floats
            x = x.tolist()  # floats
        <<, x{k}>>, = x  # floats
        nrm = sqrt(<<+ x{k} * x{k}>>)  # floats
        x = asarray(x, dtype=float)  # arrays
        nrm = d.weighted_norm(x)  # arrays
        if not norm_min <= nrm < inf:
            return None
        t = log(nrm)
        if t >= 0:
            lo, hi = t / eta_max, t / eta_min
        else:
            lo, hi = t / eta_min, t / eta_max
            if lo < floor:
                return None
        s = s0 if s0 is not None and lo < s0 < hi else 0.5 * (lo + hi)
        residual = d.unit_residual(x)  # arrays
        max_iter = geometry._MAX_ITER
        for _ in range(max_iter):
            # s stays in [lo, hi], so every -s*lam_i is below geometry._LOG_SAFE.
            y{i} = exp(-s * lam{i}) * x{i}  # floats
            yy{i} = y{i} * y{i}  # floats
            q = <<+ yy{k}>>  # floats
            qg = <<+ lam{k} * yy{k}>>  # floats
            y, q, qg = residual(s)  # arrays
            g = sqrt(q)
            if abs(g - 1.0) <= tol:
                break
            if g > 1.0:
                lo = s
            else:
                hi = s
            try:
                # Newton step on log|exp(-s*G) x|_P.  Far from the root of a huge
                # state q can underflow to 0 (log and division raise) or overflow
                # to inf (the step is NaN); the bisection below takes over.
                s_next = s + 0.5 * log(q) / (qg / q)
            except (ValueError, ZeroDivisionError):
                s_next = nan
            if not (lo < s_next < hi):
                s_next = 0.5 * (lo + hi)
                if not lo < s_next < hi:
                    # No float lies strictly inside the bracket, so s is as near
                    # the root as floats get.
                    break
            s = s_next
        else:
            raise NoConvergenceError(f"homogeneous norm solve did not reach "
                                     f"rel_tol={geometry._REL_TOL} in {max_iter} iterations")
        return (s, [<<, y{k}>>]) if s <= log_max else None  # floats
        return (s, y.tolist()) if s <= log_max else None  # arrays
    return newton


def make_stage(solve, d, drift, gain, b, kappa, encode):
    """stage(x, s0) -> (xdot, x_hat, u, s) of xdot = drift(x) + B u under the exact feedback,
    or under encode(s, y) -> (x_hat, u, B u), or None at the origin, if it is given."""
    rows = iter(gain.tolist())
    <<, g{j}_{k}>>, = next(rows)
    rows = iter(b.tolist())
    <<, b{i}_{l}>>, = next(rows)
    no_control, no_push = (0.0,) * len(gain), (0.0,) * len(b)

    def stage(x, s0):
        # hom_norm is exp(s), and s is -inf at the origin, where solve gives None.
        root = solve(d, x, s0)
        if root is None:
            s, x_hat, u, push = -inf, x, no_control, no_push
        elif encode is None:
            s, y = root
            <<, y{k}>>, = y
            e = exp(s * kappa)
            u{j} = e * (<<+ g{j}_{k} * y{k}>>)
            x_hat, u, push = x, (<<, u{l}>>,), (<<, <<+ b{k}_{l} * u{l}>>>>,)
        else:
            s, y = root
            x_hat, u, push = encode(s, y) or (x, no_control, no_push)
        <<, p{k}>>, = push
        # A list of Python floats is read as it is, any other result through numpy.
        f = drift(array(x))
        <<, f{k}>>, = f if type(f) is list else asarray(f, dtype=float).tolist()
        if not (<<and type(f{k}) is float>>):
            <<, f{k}>>, = asarray(f, dtype=float).tolist()
        return (<<, f{k} + p{k}>>,), x_hat, u, s
    return stage


def rk4(stage, x, steps, h, states, qstates, controls, norms):
    """Append steps + 1 rows of fixed-step RK4 from x, or fewer, up to the origin, to
    the flat float buffers states, qstates, controls and norms."""
    half, sixth = 0.5 * h, h / 6.0
    # Each stage's solve starts at the previous stage's root, moved by half a
    # step's change of s at k2 and k4; a NaN guess starts cold.
    guess, s1_last = nan, None
    for step in range(steps + 1):
        (<<, k1_{k}>>,), x_hat, u, s1 = stage(x, guess)
        r = exp(s1)
        <<, u{l}>>, = u
        # A float product can still make the control infinite without raising:
        # check it entry by entry, with no sum that could overflow, and never
        # record a partially poisoned row.
        if not (<<and isfinite(u{l})>>):
            raise NonFiniteInputError("control has a NaN or infinite entry")
        states.extend(x)
        qstates.extend(x_hat)
        controls.extend(u)
        norms.append(r)
        if step == steps or r == 0.0:
            return  # at r == 0 the origin is reached
        ds = 0.0 if s1_last is None else 0.5 * (s1 - s1_last)
        s1_last = s1
        <<, x{k}>>, = x
        (<<, k2_{k}>>,), _, _, s2 = stage((<<, x{k} + half * k1_{k}>>,), s1 + ds)
        (<<, k3_{k}>>,), _, _, s3 = stage((<<, x{k} + half * k2_{k}>>,), s2)
        (<<, k4_{k}>>,), _, _, guess = stage((<<, x{k} + h * k3_{k}>>,), s3 + ds)
        x = (<<, x{k} + sixth * (k1_{k} + 2.0 * k2_{k} + 2.0 * k3_{k} + k4_{k})>>,)
'''

_POLAR = '''\
def polar(w, step, tol):
    """The radius and angles of the coordinates w (floats or a float array) as to_spherical
    defines them, if step is None; else the grid indices floor(a/step + 1/2) of the angles
    a, or NotOnSphereError where the radius is not within tol of 1."""
    if isinstance(w, ndarray):
        w = w.tolist()
    <<, w{k}>>, = w
    # Each tail magnitude is the root of one running sum of squares from the last coordinate.
    t{n} = w{n} * w{n}
    t{r} = t{r+1} + w{r} * w{r}
    a{r-1} = atan2(sqrt(t{r}), w{r-1})
    last = atan2(w{n}, w{n-1})
    a{n-1} = last + tau if last < 0 else last
    if step is None:
        return sqrt(t1), [<<, a{k-1}>>]
    # A NaN radius fails the check too.
    if not abs(sqrt(t1) - 1.0) <= tol:
        raise NotOnSphereError("spherical quantizer input must be on the weighted unit sphere")
    return [<<, floor(a{k-1} / step + 0.5)>>]
'''

_JOIN = re.compile(r"<<(,|\+|and) ((?:(?!<<|>>).)*)>>")
_INDEX = re.compile(r"\{([a-z])([+-]\d+)?\}")
_TAGS = ("  # floats", "  # arrays")


def _subst(text: str, var: str, value: int) -> str | None:
    """``text`` with each ``{var}`` or ``{var+c}`` made the index ``value + c``;
    ``None`` where one falls below 1."""
    offsets = [int(mt[2] or 0) for mt in _INDEX.finditer(text) if mt[1] == var]
    if value + min(offsets, default=0) < 1:
        return None
    return _INDEX.sub(lambda mt: str(value + int(mt[2] or 0)) if mt[1] == var else mt[0], text)


def _names(text: str) -> set[str]:
    """The index variables that ``text`` names."""
    return {mt[1] for mt in _INDEX.finditer(text)}


def _render(template: str, n: int, m: int, floats: bool) -> str:
    repeats = {"i": range(1, n + 1), "j": range(1, m + 1), "r": range(n - 1, 0, -1), "n": (n,)}

    def join(mt: re.Match) -> str:
        sep, item = mt[1], mt[2]
        var, count = ("l", m) if "l" in _names(item) else ("k", n)
        items = (_subst(item, var, c) for c in range(1, count + 1))
        return (", " if sep == "," else f" {sep} ").join(x for x in items if x is not None)

    lines = []
    for line in template.splitlines():
        if line.endswith(_TAGS[floats]):
            continue
        line = line.removesuffix(_TAGS[not floats])
        # Innermost joins first: a join may hold one.
        while (joined := _JOIN.sub(join, line)) != line:
            line = joined
        out, names = [line], _names(line)
        for var, values in repeats.items():
            if var in names:
                out = [y for x in out for c in values if (y := _subst(x, var, c)) is not None]
        lines += out
    return "\n".join(lines) + "\n"


def _compile(source: str, filename: str, **names) -> dict:
    """Namespace of ``source``, run under ``filename``, which :mod:`linecache` then holds."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"ndarray": ndarray, **names}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@functools.cache
def kernel(n: int, m: int, floats: bool) -> dict:
    """Namespace of the kernel for ``n`` states and ``m`` inputs: ``make_newton``
    (on Python floats if ``floats``, else on arrays), ``make_stage`` and ``rk4``."""
    return _compile(_render(_TEMPLATE, n, m, floats),
                    f"<homquant kernel n={n} m={m}{'' if floats else ' arrays'}>",
                    array=array, asarray=asarray, exp=exp, inf=inf, isfinite=isfinite, log=log,
                    nan=nan, sqrt=sqrt, NoConvergenceError=NoConvergenceError,
                    NonFiniteInputError=NonFiniteInputError)


@functools.cache
def polar(n: int):
    """The polar kernel ``polar(w, step, tol)`` of ``n`` coordinates."""
    return _compile(_render(_POLAR, n, 0, True), f"<homquant polar n={n}>",
                    atan2=atan2, floor=floor, sqrt=sqrt, tau=tau,
                    NotOnSphereError=NotOnSphereError)["polar"]
