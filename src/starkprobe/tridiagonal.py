"""[M^-1]_00 of a tridiagonal matrix as a backward continued fraction, and
how a truncation of it is run, checked, grown and capped.

M has the diagonal d_k = x - (u + k v) + i (y + k h) and the off-diagonal
products q (k+1) at level k.  One backward recurrence in real arithmetic
gives the same bits for one point (floats) as for a whole grid (arrays).  It
uses numpy only, raises standard exceptions only and keeps no state: any
model can call it, with no import cycle, and keep its own `Block`.
"""

import cmath
import math

import numpy as np

_CACHED_LEVELS = 2048
MAX_FOCK = 20000        # the most levels a truncation holds, read per call
TOLERANCE = 1e-13       # the change at which a sized truncation stops


class Block:
    """The constants u, v, y, h, q after x, and `rows`, the per-level table
    of the most levels read so far, up to _CACHED_LEVELS."""

    def __init__(self, u: float, v: float, y: float, h: float, q: float):
        self.u, self.v, self.y, self.h, self.q = u, v, y, h, q
        self.rows = ()


def _levels(size: int, u: float, v: float, y: float, h: float, q: float):
    """One row (q (k+1), u + k v, y + k h) for each level k of `size`, top
    level first, as Python floats at 140 bytes a level; numpy's elementwise
    products and sums round as the scalar ones do, so the last M rows are
    the table of M levels."""
    k = np.arange(float(size), 0.0, -1.0)
    below = k - 1.0
    return tuple(zip((q*k).tolist(), (u + below*v).tolist(),
                     (y + below*h).tolist()))


def fraction(levels: int, num: float, x, block: Block):
    """num [M^-1]_00 over `levels` levels of `block`: a complex for a float
    x, or an array for an array x, whose pass runs with numpy's warnings
    off; ArithmeticError once the pass leaves the floats."""
    rows = block.rows
    if levels > len(rows):
        rows = _levels(levels, block.u, block.v, block.y, block.h, block.q)
        if levels <= _CACHED_LEVELS:
            block.rows = rows
    rows = rows[len(rows) - levels:]    # the whole table is not copied
    if isinstance(x, float):
        value = _backward(num, x, rows)
        if cmath.isfinite(value):
            return value
    else:
        with np.errstate(all="ignore"):
            value = _backward(num, x, rows)
        if np.isfinite(value).all():
            return value
    raise ArithmeticError("continued fraction is not finite")


def grown(levels: int) -> int:
    """The levels that check a truncation, and that a sized one grows to."""
    return math.ceil(1.5*levels)


def check(levels: int, value, num: float, x, block: Block):
    """(the pass over grown(levels) levels, the worst relative change of
    `value`, over `levels`, against it); a check of 0 raises as a pass."""
    bigger = fraction(grown(levels), num, x, block)
    with np.errstate(all="ignore"):
        change = float(np.max(abs(value - bigger)/abs(bigger), initial=0.0))
    if not math.isfinite(change):
        raise ArithmeticError("continued fraction is not finite")
    return bigger, change


def sized(levels: int, num: float, x, block: Block):
    """(levels, value, change) grown from `levels` levels, each check's pass
    the next truncation, until the change is at most TOLERANCE or the next
    size passes MAX_FOCK (where the change returned stays above it)."""
    value = fraction(levels, num, x, block)
    while True:
        bigger, change = check(levels, value, num, x, block)
        if change <= TOLERANCE or grown(levels) > MAX_FOCK:
            return levels, value, change
        levels, value = grown(levels), bigger


def _backward(num, x, rows):
    """num/g_0 from g_(n-1) = d_(n-1) and g_k = d_k - q (k+1)/g_(k+1), over
    the rows of a `_levels` table.  One backward pass; the complex division
    is spelt out, so that floats and arrays round alike."""
    rows = iter(rows)
    _, a, b = next(rows)    # the top level's q (k+1) couples to no level
    gr, gi = x - a, b
    for qk, a, b in rows:
        s = qk/(gr*gr + gi*gi)
        gr, gi = x - a - s*gr, b + s*gi
    s = num/(gr*gr + gi*gi)
    return complex(s*gr, -s*gi) if isinstance(s, float) else s*gr - 1j*(s*gi)
