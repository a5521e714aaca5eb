"""Complex special functions used by the analytic spectra.

Lambert W (cavity poles), the complete elliptic integral K (line
constants) and the exponential integrals E_n (incoherent response).
Everything here is pure and thread-safe, and scalar except the scaled
exponential integral `expint_scaled`, which also takes an array of
arguments, with one order for all or an array of orders broadcast against
them, and evaluates it elementwise in one pass.  Branch conventions:
Lambert W follows the standard multivalued indexing (branch 0 real on
z >= -1/e); the exponential integrals use the principal branch with the
cut along the negative real axis.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_SERIES_RTOL = 1e-15      # relative term cutoff for all power series


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


def lambert_w(branch: int, z: complex, tol: float = 1e-14) -> complex:
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
            if abs(step) <= tol*max(1.0, abs(w)):
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


def lambert_w_log(branch: int, log_z: complex, tol: float = 1e-14) -> complex:
    """Lambert W of exp(log_z); safe when exp(log_z) would overflow."""
    ln1 = log_z + 2j*math.pi*branch
    w = ln1 - cmath.log(ln1)
    for _ in range(200):
        # solve w + log w = ln1
        step = (w + cmath.log(w) - ln1)/(1.0 + 1.0/w)
        w -= step
        if abs(step) <= tol*max(1.0, abs(w)):
            return _check_finite(w, "lambert_w_log")
    raise ConvergenceError(f"lambert_w_log(branch={branch}) no convergence")


# ---------------------------------------------------------------------------
# Complete elliptic integral of the first kind, modulus convention K(k)

def elliptic_k(k: float) -> float:
    """K(k) by the arithmetic-geometric mean; k is the modulus, not m=k^2."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_k requires 0 <= k < 1, got {k}")
    kp2 = (1.0 - k)*(1.0 + k)
    if kp2 < 1e-12:
        # K(k) ~ ln(4/k') as k -> 1
        return math.log(4.0/math.sqrt(kp2))
    a, b = 1.0, math.sqrt(kp2)
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
    against z, each element taking its own order.  Arguments in the
    continued-fraction region run together through one vectorised Lentz
    recurrence.  Those that need the series, a lone argument and those where
    the fraction stalls go through the scalar helpers one at a time, with
    the values of a scalar call.  A non-finite result raises
    ConvergenceError; an order below 1, or n = 1 at z = 0, ValueError.
    """
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
    fraction = np.abs(flat) > 12.5
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
    if lanes.size > 1:
        out[lanes], stalled = _expint_scaled_cf_lanes(
            n[lanes] if each_n else n, flat[lanes])
        lanes = lanes[stalled]
    # a lone argument runs the scalar recurrence, at a tenth of the cost of
    # the array one, and so do the lanes where the array one stalled
    for i in lanes:
        zi, ni = complex(flat[i]), (int(n[i]) if each_n else n)
        try:
            out[i] = _expint_scaled_cf(ni, zi)
        except ConvergenceError:
            # near the branch cut the fraction stalls; the scaled series
            # covers moderate |z|, the asymptotic tail the rest (its
            # exponentially small branch term is below double precision for
            # n << |z|/log|z|).
            out[i] = (_expint_scaled_series(ni, zi) if abs(zi) <= 200.0
                      else _expint_scaled_asymptotic(ni, zi))
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _expint_scaled_series(n: int, z: complex) -> complex:
    # DLMF 8.19.8 with e^z folded into every term; stable near the cut
    # because the dominant terms do not alternate there.
    psi_n = -EULER_GAMMA + sum(1.0/k for k in range(1, n))
    term = cmath.exp(z)  # e^z (-z)^k / k!, k = 0
    s = 0j
    log_part = 0j
    kmax = n + int(abs(z)) + 45 + int(8.0*math.sqrt(abs(z)))
    for k in range(kmax):
        if k == n - 1:
            log_part = term*(psi_n - cmath.log(z))
        else:
            s += term/(1.0 - n + k)
        term *= -z/(k + 1)
    return _check_finite(log_part - s, "expint_scaled")


def _expint_scaled_asymptotic(n: int, z: complex) -> complex:
    # e^z E_n(z) ~ (1/z) sum_k (-1)^k (n)_k / z^k, truncated at the smallest term
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
    return _check_finite(out/z, "expint_scaled")


def _expint_scaled_cf(n: int, z: complex) -> complex:
    # Lentz continued fraction for e^z E_n(z); fails near the cut, in which
    # case the caller falls back to the series.
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
    # or went non-finite, which the caller replaces.
    tiny = 1e-300
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
            if np.count_nonzero(delta) < delta.size:
                # floor a vanishing c or d at tiny
                c[c == 0] = tiny
                d[d == 0] = tiny
                delta = c*d
            # not in place: numpy's in-place complex product on a one-element
            # array rounds unfused, unlike its other array products, which
            # would make a lane's value depend on how many lanes are left
            h = h*delta
            done = np.abs(delta - 1.0) < 1e-16
            if np.count_nonzero(done):
                out[lane[done]] = h[done]
                keep = ~done
                lane, b, c, d, h = lane[keep], b[keep], c[keep], d[keep], h[keep]
                if np.ndim(n):
                    n = n[keep]
                if not lane.size:
                    break
    return out, ~np.isfinite(out)
