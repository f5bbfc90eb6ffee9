"""Bracketed scalar root finding without scipy.

``sign_change_brackets`` finds the sign changes of a function sampled on a
grid, or on one grid per row; the solver's stationarity scans and the
critical-coupling profile scan all use it.  ``brentq`` is a step-for-step
port of the Brent routine behind ``scipy.optimize.brentq`` (inverse
quadratic interpolation, secant and bisection steps on a sign-change
bracket).  It takes the same steps, returns the same float and raises the
same errors, so the solve path needs numpy only and skips the cost of
importing ``scipy.optimize``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_RTOL_MIN = 4.0 * sys.float_info.epsilon


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL_MIN, maxiter: int = 100) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Converged when half the bracket is below (xtol + rtol |x|) / 2.  Raises
    ValueError for endpoints of the same sign, bad tolerances or a NaN value
    of ``f``, and RuntimeError when ``maxiter`` iterations do not converge.
    """
    if maxiter < 0:
        raise ValueError(f"maxiter must be >= 0, got {maxiter}")
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")

    def fx(x: float) -> float:
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
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
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate (secant)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
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


def sign_change_brackets(grid, values):
    """Consecutive-point brackets of a sampled function with opposite signs, in grid order.

    A sample that is exactly zero is its own zero-width bracket; a NaN or
    infinite sample breaks the run, so no bracket spans it.  Returns
    (brackets, overall_sign) with float endpoints; overall_sign summarizes the
    scan when no bracket exists (+1 all positive, -1 all negative, 0
    otherwise), counting ±inf samples and ignoring NaN ones.  2-D input is one
    scan per row: the result is then a list of bracket lists and a list of
    signs, one per row.
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
    end = np.nonzero(hit)  # one index array per axis, in row-major order
    start = end[:-1] + (end[-1] - pair[end],)
    brackets = list(zip(x[start].tolist(), x[end].tolist()))
    # +1 all positive, -1 all negative, 0 for both signs or none
    saw_pos, saw_neg = (v > 0.0).any(axis=-1), neg.any(axis=-1)
    if v.ndim == 1:
        return brackets, int(saw_pos) - int(saw_neg)
    stops = np.cumsum(np.count_nonzero(hit, axis=-1)).tolist()
    rows = [brackets[lo:hi] for lo, hi in zip([0] + stops[:-1], stops)]
    return rows, np.subtract(saw_pos, saw_neg, dtype=int).tolist()
