"""Brent's root finder on a bracket, ported from scipy's C ``brentq``.

:func:`brentq` follows scipy's ``Zeros/brentq.c`` line for line, with the
checks of its Python wrapper, so it returns the same root after the same
calls of ``f``. Importing it costs nothing, where ``scipy.optimize`` pulls in
``scipy.linalg`` and most of a second of start-up.
"""

from __future__ import annotations

import math
import sys

__all__ = ["brentq"]

_RTOL = 4 * sys.float_info.epsilon


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL,
           maxiter: int = 100) -> float:
    """A zero of ``f`` on ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    The returned ``x0`` lies within ``xtol + rtol |x0|`` of a sign change.
    Raises ``ValueError`` for ``xtol <= 0``, ``rtol < 4 eps``, ends of the
    same sign or a NaN value of ``f``, and ``RuntimeError`` when ``maxiter``
    iterations do not converge, as ``scipy.optimize.brentq`` does.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def fx(x):
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gets inf or nan here, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
