"""Complex special functions used by the analytic spectra.

Lambert W (cavity poles), the complete elliptic integral K (line
constants) and the exponential integrals E_n (incoherent response).
Everything here is pure and thread-safe, and scalar except the scaled
exponential integral `expint_scaled`, which also takes an array of
arguments, with one order for all or an array of orders broadcast against
them.  Its arguments run in three branches: the power series one argument
at a time (small |z|), one vectorised Lentz continued fraction, and an
8-term asymptotic series in one pass (|z| >= 128(n + 8)); each argument's
value is the same whichever others share the call, and a lone argument (a
scalar or an array of one) takes the same code.  Branch conventions:
Lambert W follows the standard multivalued indexing (branch 0 real on
z >= -1/e); the exponential integrals use the principal branch with the
cut along the negative real axis.  `expint1_scaled_lanes` takes e^z E_1(z)
of an array in array passes only.  Only the exponential integrals import
numpy; Lambert W and K run on the standard library alone.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

EULER_GAMMA = 0.5772156649015328606

_SERIES_RTOL = 1e-15      # relative term cutoff for all power series
# E_1(z) = -gamma - log z + sum_(k>=1) (-1)^(k+1) z^k/(k k!) (DLMF 6.6.2): 40
# terms reach 4^40/(40 40!) = 4e-26 at |z| = 4
_EIN_COEFS = tuple((-1.0)**(k + 1)/(k*math.factorial(k)) for k in range(1, 41))
_LAMBERT_RTOL = 1e-14     # relative step that ends a Lambert W iteration


class ConvergenceError(ArithmeticError):
    """Iteration or series failed to converge; message carries diagnostics."""


def _check_finite(value: complex, where: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConvergenceError(f"{where}: non-finite result {value!r}")
    return value


# ---------------------------------------------------------------------------
# Lambert W

def _lambert_seed(branch: int, z: complex) -> complex:
    if branch == 0 and abs(z) < 0.3:
        # Taylor about 0
        return z*(1.0 - z + 1.5*z*z)
    if branch in (0, -1) and abs(z + 1.0/math.e) < 0.25:
        # series about the branch point, p = +-sqrt(2(e z + 1))
        p = cmath.sqrt(2.0*(math.e*z + 1.0))
        if branch == -1:
            p = -p
        return -1.0 + p - p*p/3.0 + 11.0*p**3/72.0
    if branch == 0 and abs(z) < 4.0:
        return cmath.log(1.0 + z)   # principal-branch mid-range seed
    ln1 = cmath.log(z) + 2j*math.pi*branch
    if abs(ln1) < 1e-8:
        return z
    return ln1 - cmath.log(ln1)


def _branch_index(w: complex, z: complex) -> int:
    # w e^w = z implies w + log w - Log z in 2*pi*i*Z
    return round((w + cmath.log(w) - cmath.log(z)).imag/(2.0*math.pi))


def lambert_w(branch: int, z: complex) -> complex:
    """Lambert W on the given branch, Halley iteration.

    Residual |w e^w - z| <= 1e-12 max(1, |z|) is guaranteed or a
    ConvergenceError is raised with the last residual.
    """
    z = complex(z)
    if z == 0:
        if branch == 0:
            return 0j
        raise ValueError(f"W_{branch}(0) diverges")
    w = _lambert_seed(branch, z)
    for attempt in range(4):
        for _ in range(80):
            ew = cmath.exp(w)
            f = w*ew - z
            if f == 0:
                break
            df = ew*(w + 1.0)
            step = f/(df - f*(w + 2.0)/(2.0*(w + 1.0)))
            w -= step
            if abs(step) <= _LAMBERT_RTOL*max(1.0, abs(w)):
                break
        if branch in (0, -1) and abs(w + 1.0) < 1e-6:
            break  # branch point w = -1 shared by branches 0 and -1
        if _branch_index(w, z) == branch:
            break
        # converged onto a neighbouring branch: shift and retry
        w += 2j*math.pi*(branch - _branch_index(w, z))
    residual = abs(w*cmath.exp(w) - z)
    if residual > 1e-12*max(1.0, abs(z)):
        raise ConvergenceError(
            f"lambert_w(branch={branch}, z={z!r}) residual {residual:.3e}")
    return _check_finite(w, "lambert_w")


def lambert_w_log(branch: int, log_z: complex) -> complex:
    """Lambert W of exp(log_z); safe when exp(log_z) would overflow."""
    ln1 = log_z + 2j*math.pi*branch
    w = ln1 - cmath.log(ln1)
    for _ in range(200):
        # solve w + log w = ln1
        step = (w + cmath.log(w) - ln1)/(1.0 + 1.0/w)
        w -= step
        if abs(step) <= _LAMBERT_RTOL*max(1.0, abs(w)):
            return _check_finite(w, "lambert_w_log")
    raise ConvergenceError(f"lambert_w_log(branch={branch}) no convergence")


# ---------------------------------------------------------------------------
# Complete elliptic integral of the first kind, modulus convention K(k)

def elliptic_k(k: float) -> float:
    """K(k) by the arithmetic-geometric mean; k is the modulus, not m=k^2."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_k requires 0 <= k < 1, got {k}")
    return elliptic_k_from_complement(math.sqrt((1.0 - k)*(1.0 + k)))


def elliptic_k_from_complement(kp: float) -> float:
    """K(k) from the complementary modulus kp = sqrt(1 - k^2), 0 < kp <= 1,
    full precision where k is too close to 1 to carry kp."""
    if kp < 1e-6:
        # K(k) ~ ln(4/k') as k -> 1
        return math.log(4.0/kp)
    a, b = 1.0, kp
    for _ in range(60):
        if abs(a - b) <= 2e-16*a:
            break
        a, b = 0.5*(a + b), math.sqrt(a*b)
    return math.pi/(2.0*a)


# ---------------------------------------------------------------------------
# Exponential integrals E_n

def expint_scaled(n, z):
    """e^z E_n(z) without the exponential over/underflow, n >= 1.

    z is a scalar (a complex comes back) or an array (an array of the same
    shape comes back).  n is an integer or an integer array broadcast
    against z, each element taking its own order.  The arguments split
    three ways, by |z| and the order: |z| <= 12 or so takes the power
    series (DLMF 8.19.8), one argument at a time; |z| >= 128(n + 8) takes
    the first 8 terms of the asymptotic series (DLMF 8.20), whose first
    omitted term is below 128^-8 = 1.4e-17 relative, all together in one
    pass; every other argument runs through one vectorised Lentz continued
    fraction, each leaving it as it converges.  So an argument's value is
    the same, to the bit, whichever others share the call, none included.
    A lane of the fraction that goes non-finite or reaches the iteration
    cap is retaken by the series where Re z < 0 and e^z is a normal double,
    and elsewhere by the scalar continued fraction and, where that fails
    too, the asymptotic series.  A non-finite result, or an argument that
    no branch answers, raises ConvergenceError; an order below 1, or n = 1
    at z = 0, ValueError.
    """
    import numpy as np
    zs = np.asarray(z, dtype=complex)
    each_n = np.ndim(n) > 0
    if each_n:
        zs, n = np.broadcast_arrays(zs, np.asarray(n))
        n = n.ravel()
    if (np.any(n < 1) if each_n else n < 1):
        raise ValueError(f"expint_scaled needs orders n >= 1, got {n!r}")
    flat = zs.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # np.abs may differ from abs() in the last bit: take the candidates for
    # the series generously and decide each one with the scalar rule
    absz = np.abs(flat)
    fraction = absz > 12.5
    for i in (~fraction).nonzero()[0]:
        zi, ni = complex(flat[i]), (int(n[i]) if each_n else n)
        if zi == 0:
            if ni == 1:
                raise ValueError("expint_scaled: E_1(z) diverges at z = 0")
            out[i] = 1.0/(ni - 1)
        elif abs(zi) <= (6.0 if zi.real > 0 else 12.0):
            # the series cancellation grows like e^|Re z| on the right half
            # plane, so hand over to the fraction earlier there
            out[i] = _expint_scaled_series(ni, zi)
        else:
            fraction[i] = True
    lanes = fraction.nonzero()[0]
    far = absz[lanes] >= 128.0*((n[lanes] if each_n else n) + 8)
    far, lanes = lanes[far], lanes[~far]
    if far.size:
        out[far] = _expint_scaled_asymptotic_lanes(n[far] if each_n else n, flat[far])
    if lanes.size:
        out[lanes], stalled = _expint_scaled_cf_lanes(
            n[lanes] if each_n else n, flat[lanes])
        lanes = lanes[stalled]
    # a lane where the array recurrence stalled or went non-finite lies near
    # the cut: the series takes it while e^z is a normal double, else the
    # scalar recurrence, which floors c and d, and then the asymptotic series
    for i in lanes:
        zi, ni = complex(flat[i]), (int(n[i]) if each_n else n)
        if zi.real < 0 and math.exp(zi.real) >= 2.0**-1022:
            out[i] = _expint_scaled_series(ni, zi)
            continue
        try:
            out[i] = _expint_scaled_cf(ni, zi)
        except (ConvergenceError, ZeroDivisionError):   # z + n = 0 on the cut
            out[i] = _expint_scaled_asymptotic(ni, zi)
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def expint1_scaled_lanes(z: np.ndarray) -> np.ndarray:
    """e^z E_1(z) for an array z, each element alone, in array passes.

    Where |z| + |Re z| <= 4 the power series (its terms cancel at most
    e^4-fold there), on the rest of the right half-plane the continued
    fraction at a fixed depth of 64, and elsewhere `expint_scaled`.  On a
    grid over their regions the series is within 4.7e-15 of mpmath and
    the fraction within 2.8e-16.  `expint_scaled` would take its power
    series, one argument at a time, out to |z| = 6 on the right
    half-plane, where the terms cancel e^(2 Re z)-fold (1.2e-10 at
    |z| = 6), and its Lentz fraction needs 53 steps at z = 2.
    """
    import numpy as np
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z) + np.abs(z.real) <= 4.0
    right = ~small & (z.real > 0)
    rest = (~small & ~right).nonzero()[0]
    with np.errstate(all="ignore"):     # a non-finite z raises below
        if small.any():
            out[small] = _expint1_scaled_series_lanes(z[small])
        if right.any():
            out[right] = _expint1_scaled_cf_fixed(z[right])
    if rest.size:
        out[rest] = expint_scaled(1, z[rest])
    bad = ~np.isfinite(out)
    if bad.any():
        raise ConvergenceError(f"expint1_scaled_lanes: non-finite result at z = {z[bad][0]!r}")
    return out


def _expint1_scaled_series_lanes(z: np.ndarray) -> np.ndarray:
    # DLMF 6.6.2 times e^z, the sum by Horner's rule, elementwise
    import numpy as np
    total = _EIN_COEFS[-1]*z
    for c in reversed(_EIN_COEFS[:-1]):
        total = (total + c)*z
    return np.exp(z)*(-EULER_GAMMA - np.log(z) + total)


def _expint1_scaled_cf_fixed(z: np.ndarray) -> np.ndarray:
    # 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(...)))), the fraction of
    # `_expint_scaled_cf` at n = 1, evaluated from level 64 down; at
    # Re z > 0, |z| + Re z > 4 it has settled by level 48
    h = z + 129.0
    for i in range(64, 0, -1):
        h = (z + (2*i - 1)) - (i*i)/h
    return 1.0/h


def _expint_scaled_series(n: int, z: complex) -> complex:
    # DLMF 8.19.8 with e^z folded into every term; stable near the cut
    # because the dominant terms do not alternate there.
    harmonic = 0.0    # H_(n-1) in psi(n): 3.12's `sum` would round otherwise
    for k in range(1, n):
        harmonic += 1.0/k
    term = cmath.exp(z)  # e^z (-z)^k / k!, k = 0
    s = 0j
    log_part = 0j
    kmax = n + int(abs(z)) + 45 + int(8.0*math.sqrt(abs(z)))
    for k in range(kmax):
        if k == n - 1:
            log_part = term*((harmonic - EULER_GAMMA) - cmath.log(z))
        else:
            s += term/(1.0 - n + k)
        term *= -z/(k + 1)
    return _check_finite(log_part - s, "expint_scaled")


def _expint_scaled_asymptotic(n: int, z: complex) -> complex:
    # e^z E_n(z) ~ (1/z) sum_k (-1)^k (n)_k / z^k, truncated at the smallest
    # term; ConvergenceError where the cut's jump that it leaves out,
    # pi |z|^(n-1) e^(Re z)/(n-1)!, is not below 2^-52 of its value
    total = term = 1.0 + 0j
    best, out = abs(term), total
    for k in range(1, 400):
        term *= -(n + k - 1.0)/z
        if abs(term) > best:
            break
        total += term
        best, out = abs(term), total
        if abs(term) < _SERIES_RTOL*abs(total):
            break
    value = _check_finite(out/z, "expint_scaled")
    jump = (math.log(math.pi) + (n - 1)*math.log(abs(z)) + z.real
            - math.lgamma(n))
    if jump >= math.log(abs(value)) - 52.0*math.log(2.0):
        raise ConvergenceError(f"expint_scaled({n},{z}): the asymptotic "
                               "series leaves out the cut's jump")
    return value


def _expint_scaled_asymptotic_lanes(n, z: np.ndarray) -> np.ndarray:
    # (1/z) sum_{k<8} (-1)^k (n)_k / z^k by Horner, elementwise, for
    # |z| >= 128(n + 8): the first omitted term is below 128^-8 relative, so
    # no lane needs a convergence test.  n is one order or one per lane.
    # Out-of-place products only, which round alike at every array length.
    import numpy as np
    with np.errstate(all="ignore"):     # a non-finite z raises below
        w = 1.0/z
        total = 1.0 - (n + 6.0)*w
        for k in range(6, 0, -1):
            total = 1.0 - ((n + (k - 1.0))*w)*total
        out = total*w
    bad = ~np.isfinite(out)
    if bad.any():
        raise ConvergenceError(f"expint_scaled: non-finite result at z = {z[bad][0]!r}")
    return out


def _expint_scaled_cf(n: int, z: complex) -> complex:
    # Lentz continued fraction for e^z E_n(z); fails near the cut, in which
    # case the caller falls back to the asymptotic series.
    b = z + n
    tiny = 1e-300
    c, d, h = 1.0/tiny, 1.0/b, 1.0/b
    for i in range(1, 3000):
        a = -i*(n - 1.0 + i)
        b += 2.0
        d = 1.0/(a*d + b)
        c = b + a/c
        if c == 0:
            c = tiny
        if d == 0:
            d = tiny
        delta = c*d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return _check_finite(h, "expint_scaled")
    raise ConvergenceError(f"expint_scaled({n},{z}): continued fraction stalled")


def _expint_scaled_cf_lanes(n, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _expint_scaled_cf with one lane per element of z; a lane leaves the
    # recurrence once it has converged.  n is one order for every lane or an
    # array of one per lane.  The second result masks the lanes that stalled
    # or went non-finite, which the caller recomputes one at a time.  Nothing
    # floors c or d at tiny here: a c of 0, or a d of inf from a zero
    # denominator, turns the lane's h NaN for good, so it never converges
    # and leaves through that mask too, to the series or to the scalar
    # recurrence, which floors.  (A d of 0 would need a*d + b to overflow,
    # after a denominator below about 1e-300.)
    import numpy as np
    tiny = 1e-300
    each_n = np.ndim(n) > 0
    out = np.full(z.shape, np.nan, dtype=complex)
    lane = np.arange(z.size)
    c = np.full(z.shape, 1.0/tiny, dtype=complex)
    with np.errstate(all="ignore"):
        b = z + n
        d = 1.0/b
        h = d.copy()
        for i in range(1, 3000):
            a = -i*(n - 1.0 + i)
            b += 2.0
            d = 1.0/(a*d + b)
            c = b + a/c
            delta = c*d
            # not in place: numpy's in-place complex product on a one-element
            # array rounds unfused, unlike its other array products, which
            # would make a lane's value depend on how many lanes are left
            h = h*delta
            # the scalar test |delta - 1| < 1e-16, exactly: the doubles next
            # to 1 lie 2^-53 and 2^-52 away, both above 1e-16, so it holds
            # only where Re delta is 1, and there hypot(0, y) = |y|; a NaN
            # fails both
            done = (delta.real == 1.0) & (np.abs(delta.imag) < 1e-16)
            if np.count_nonzero(done):
                # integer indices: a boolean mask would be scanned per array
                hit = done.nonzero()[0]
                out[lane[hit]] = h[hit]
                keep = (~done).nonzero()[0]
                lane, b, c, d, h = lane[keep], b[keep], c[keep], d[keep], h[keep]
                if each_n:
                    n = n[keep]
                if not lane.size:
                    break
    return out, ~np.isfinite(out)
