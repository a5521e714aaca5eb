"""[M^-1]_00 of a tridiagonal matrix as a backward continued fraction.

M has the diagonal d_k = x - (u + k v) + i (y + k h) and the off-diagonal
products q (k+1) at level k.  One backward recurrence in real arithmetic
gives the same bits for one point (floats) as for a whole grid (arrays).  It
uses numpy only and keeps no state: any model can call it, with no import
cycle, and keep its own per-level tables.
"""

import numpy as np

_CACHED_LEVELS = 2048


def _levels(size: int, u: float, v: float, y: float, h: float, q: float):
    """The per-level constants, top level first: (u + k v, y + k h) at
    k = size - 1, then one row (q (k+1), u + k v, y + k h) for each level k
    below it, as Python floats (numpy's elementwise products and sums round
    as the scalar ones do), at 140 bytes a level.  They do not depend on the
    point, so a caller's table dict keeps them for a run of lone points."""
    top = float(size - 1)
    k = np.arange(top, 0.0, -1.0)
    below = k - 1.0
    return ((u + top*v, y + top*h),
            tuple(zip((q*k).tolist(), (u + below*v).tolist(),
                      (y + below*h).tolist())))


def fraction(levels: int, num: float, x, u: float, v: float, y: float,
             h: float, q: float, tables: dict):
    """num [M^-1]_00 over `levels` levels: a complex for a float x, or an
    array for an array x, whose pass runs with numpy's floating-point
    warnings off (the caller checks it for nan or inf).  `tables`, a dict
    that the caller keeps for one set of constants ({} for none), holds up
    to four of their per-level tables by level count, each of at most
    _CACHED_LEVELS levels, so that a lookup hashes no constant."""
    table = tables.get(levels)
    if table is None:
        table = _levels(levels, u, v, y, h, q)
        if levels <= _CACHED_LEVELS and len(tables) < 4:
            tables[levels] = table
    if isinstance(x, float):
        return _backward(num, x, *table)
    with np.errstate(all="ignore"):
        return _backward(num, x, *table)


def _backward(num, x, top, rows):
    """num/g_0 from g_(n-1) = d_(n-1) and g_k = d_k - q (k+1)/g_(k+1), over
    a `_levels` table (top, rows).  One backward pass; the complex division
    is spelt out, so that floats and arrays round alike."""
    gr, gi = x - top[0], top[1]
    for qk, a, b in rows:
        s = qk/(gr*gr + gi*gi)
        gr, gi = x - a - s*gr, b + s*gi
    s = num/(gr*gr + gi*gi)
    return complex(s*gr, -s*gi) if isinstance(s, float) else s*gr - 1j*(s*gi)
