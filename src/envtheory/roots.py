"""Bracketed scalar root finding without scipy.

``scan`` is the one place a root search samples: the solver's stationarity
passes, a sweep block's first pass and the critical-coupling profile scan
each scale ``log_grid`` to their own centre through it.
``sign_change_brackets`` finds the sign changes of a function sampled on a
grid, or on one grid per row, and hands back each bracket with the two
samples at its ends.  ``brentq`` is a step-for-step
port of the Brent routine behind ``scipy.optimize.brentq`` (inverse
quadratic interpolation, secant and bisection steps on a sign-change
bracket).  It takes the same steps, returns the same float and raises the
same errors, so the solve path needs numpy only and skips the cost of
importing ``scipy.optimize``.  It also takes the endpoint values a scan
already holds and hands back the value at its root with the root, so a
level polished from a scan evaluates no point twice.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

_RTOL_MIN = 4.0 * sys.float_info.epsilon


def brentq(
    f,
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = _RTOL_MIN,
    maxiter: int = 100,
    *,
    fa: float | None = None,
    fb: float | None = None,
) -> tuple[float, float]:
    """(root, f(root)) for a root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Converged when half the bracket is below (xtol + rtol |x|) / 2.  Raises
    ValueError for endpoints of the same sign, bad tolerances or a NaN value
    of ``f``, and RuntimeError when ``maxiter`` iterations do not converge.

    ``fa`` and ``fb`` are f(a) and f(b) when the caller already holds them:
    ``f`` is then not called at that endpoint, and the value passes the same
    NaN and sign checks an evaluated one does.  f(root) is the value ``f``
    gave (or ``fa``/``fb`` held) at the returned root, so a caller that
    needs it does not evaluate the root again.
    """
    if maxiter < 0:
        raise ValueError(f"maxiter must be >= 0, got {maxiter}")
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")

    def fx(x: float, known: float | None = None) -> float:
        value = float(f(x) if known is None else known)
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre, fa), fx(xcur, fb)
    if fpre == 0.0:
        xcur, fcur = xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate (secant)
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate (inverse quadratic)
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to inf or nan here, which fails the step test: a bisection
                stry = math.inf
            limit = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@functools.lru_cache(maxsize=32)
def log_grid(decades: float, per_decade: int) -> np.ndarray:
    """``per_decade`` samples a decade over ``decades`` decades centred on 1, cached and read-only.

    ``scan`` around a centre c samples ``c * log_grid(decades, per_decade)``.
    """
    half = decades / 2.0
    unit = np.logspace(-half, half, int(round(per_decade * decades)) + 1)
    unit.flags.writeable = False
    return unit


def sign_change_brackets(grid, values):
    """Consecutive-point brackets of a sampled function with opposite signs, in grid order.

    Each bracket is (lo, hi, f_lo, f_hi): its two grid points and the
    function's samples there, so a polish can start from values the scan
    already holds.  A sample that is exactly zero is its own zero-width
    bracket; a NaN or infinite sample breaks the run, so no bracket spans it.
    Returns the list of brackets, with float entries.  2-D input is one scan
    per row: the result is then one bracket list per row.
    """
    x = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    neg = v < 0.0
    zero = v == 0.0
    live = np.isfinite(v) & ~zero
    # pair[..., i]: samples i-1 and i are both live and differ in sign; that bracket starts at i-1
    pair = np.zeros(v.shape, dtype=bool)
    pair[..., 1:] = live[..., 1:] & live[..., :-1] & (neg[..., 1:] != neg[..., :-1])
    hit = pair | zero
    end = hit.ravel().nonzero()[0]  # row-major order
    start = end - pair.reshape(-1)[end]
    xs, vs = x.reshape(-1), v.reshape(-1)
    brackets = list(zip(xs[start].tolist(), xs[end].tolist(), vs[start].tolist(), vs[end].tolist()))
    if v.ndim == 1:
        return brackets
    stops = np.cumsum(np.count_nonzero(hit, axis=-1)).tolist()
    return [brackets[lo:hi] for lo, hi in zip([0] + stops[:-1], stops)]


def scan(f, centre, decades: float, per_decade: int):
    """(values, brackets): ``f`` sampled on ``centre * log_grid(decades, per_decade)``, and its sign changes.

    The grid is formed and ``f`` evaluated under one ``np.errstate(all="ignore")``,
    so a grid or a sample past the float range warns nothing; the values are
    floats.  A column of centres, shape (k, 1), gives one grid row per centre;
    ``f`` then returns 2-D values, one row per point, and the brackets are one
    list per row of values (see ``sign_change_brackets``).
    """
    with np.errstate(all="ignore"):
        grid = centre * log_grid(decades, per_decade)
        values = np.asarray(f(grid), dtype=float)
    if values.ndim > 1:
        grid = np.broadcast_to(grid, values.shape)  # points that share one centre share its grid row
    return values, sign_change_brackets(grid, values)
