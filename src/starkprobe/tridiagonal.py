"""[M^-1]_00 of a tridiagonal matrix as a backward continued fraction.

M has the diagonal d_k = x - (u + k v) + i (y + k h) and the off-diagonal
products q (k+1) at level k.  One backward recurrence in real arithmetic
gives the same bits for one point (floats) as for a whole grid (arrays).  It
uses numpy only, so any model can call it without an import cycle.
"""

import functools
from typing import Optional

import numpy as np

_CACHED_LEVELS = 2048


@functools.lru_cache(maxsize=8)
def _levels(size: int, u: float, v: float, y: float, h: float, q: float):
    """The per-level constants, top level first: (u + k v, y + k h) at
    k = size - 1, then one row (q (k+1), u + k v, y + k h) for each level k
    below it, as Python floats (numpy's elementwise products and sums round
    as the scalar ones do).  They do not depend on the point, so a run of
    lone points forms them once; the cache keeps tables of up to
    _CACHED_LEVELS levels, at 140 bytes a level."""
    top = float(size - 1)
    k = np.arange(top, 0.0, -1.0)
    below = k - 1.0
    return ((u + top*v, y + top*h),
            tuple(zip((q*k).tolist(), (u + below*v).tolist(),
                      (y + below*h).tolist())))


def fraction(levels: int, num: float, x, u: float, v: float, y: float,
             h: float, q: float, tables: Optional[dict] = None):
    """num [M^-1]_00 over `levels` levels: a complex for a float x, or an
    array for an array x, whose pass runs with numpy's floating-point
    warnings off (the caller checks it for nan or inf).  `tables`, a dict
    that a caller keeps for one set of constants, holds up to four of their
    per-level tables by level count, so that a lookup hashes no constant."""
    if isinstance(x, float):
        return _backward(levels, num, x, u, v, y, h, q, tables)
    with np.errstate(all="ignore"):
        return _backward(levels, num, x, u, v, y, h, q, tables)


def _backward(levels, num, x, u, v, y, h, q, tables):
    """num/g_0 from g_(n-1) = d_(n-1) and g_k = d_k - q (k+1)/g_(k+1), each
    level's d_k and q (k+1) read from `_levels`.  One backward pass; the
    complex division is spelt out, so that floats and arrays round alike."""
    table = tables.get(levels) if tables else None
    if table is None:
        cached = levels <= _CACHED_LEVELS
        table = (_levels if cached else _levels.__wrapped__)(levels, u, v, y, h, q)
        if cached and tables is not None and len(tables) < 4:
            tables[levels] = table
    (a, b), rows = table
    gr, gi = x - a, b
    for qk, a, b in rows:
        s = qk/(gr*gr + gi*gi)
        gr, gi = x - a - s*gr, b + s*gi
    s = num/(gr*gr + gi*gi)
    return complex(s*gr, -s*gi) if isinstance(s, float) else s*gr - 1j*(s*gi)
