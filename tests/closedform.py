"""Closed forms and published data the tests check the package against:
the 1F1 form of the coherent response (the dual path of its series), the
coherent, incoherent and thermal series themselves summed at 40 digits,
1F1 itself, Tricomi U (e^z E_n(z) = z^(n-1) U(n, n, z)), digamma and
gamma; the small-gap expansions of the resonator modes; and the published
line-constant table with the nominal CPW geometry."""

import cmath
import math

from starkprobe.cavity import CavityMode, ResonatorGeometry
from starkprobe.specfun import _SERIES_RTOL, ConvergenceError, _check_finite
from starkprobe.waveguide import CpwGeometry

_SERIES_MAX_TERMS = 10000


def coherent_response_closed(omega_p: float, qubit, params, beta: complex,
                             signal_omega=None) -> complex:
    """qubit_response_coherent at one point: chi e^-W 1F1(a; 1 + a; W)/D_0,
    a = -w0/w - W, w0 = D_0 - 4 chi^2 |beta|^2/w (W, w, D_0 of the series)."""
    chi, gc = qubit.chi, params.cavity.gamma_c
    omega = params.omega_c_star if signal_omega is None else signal_omega
    w = params.omega_c_star + 2.0*chi - omega - 0.5j*gc
    beta2 = abs(beta)**2
    big_w = 4.0*chi*chi*beta2/(w*w)
    w0 = omega_p - qubit.omega_q - 2.0*chi*beta2 + 1j*qubit.gamma_coh
    a = -w0/w - big_w
    return (chi*cmath.exp(-big_w)/(w0 + 4.0*chi*chi*beta2/w)
            *hyp1f1(a, 1.0 + a, big_w))


def coherent_series_mp(omega_p: float, qubit, params, beta: complex,
                       signal_omega=None, dps: int = 40) -> complex:
    """The coherent series chi e^-W sum_n W^n/n!/D_n of
    qubit_response_coherent at one point, summed with dps digits, every
    float input (omega_p, the qubit, the cavity, |beta|^2 as the package
    rounds it) taken as exact, so that no constant of the series is rounded
    before the sum."""
    import mpmath
    with mpmath.workdps(dps):
        chi, gc = mpmath.mpf(qubit.chi), mpmath.mpf(params.cavity.gamma_c)
        dressed = mpmath.mpf(params.omega_c_star)
        omega = dressed if signal_omega is None else mpmath.mpf(signal_omega)
        beta2 = mpmath.mpf(abs(beta)**2)
        pull = dressed - omega - 0.5j*gc
        w = 2*chi + pull
        big_w = 4*chi**2*beta2/w**2
        d_0 = (mpmath.mpf(omega_p) - qubit.omega_q - 2*chi*beta2
               + 1j*mpmath.mpf(qubit.gamma_coh) + 4*chi**2*beta2/w)
        weight, total = mpmath.exp(-big_w), mpmath.mpc(0)
        rtol = mpmath.mpf(10)**-(dps + 5)
        for n in range(_SERIES_MAX_TERMS):
            term = weight/(d_0 - n*w)
            total += term
            if n > abs(big_w) and abs(term) < rtol*abs(total):
                return complex(chi*total)
            weight *= big_w/(n + 1)
    raise ConvergenceError(f"coherent series: {_SERIES_MAX_TERMS} terms")


def _expint_scaled_mp(n: int, z, rtol):
    """e^z E_n(z) to rtol: the continued fraction
    1/(z + n - 1 n/(z + n + 2 - 2(n + 1)/(z + n + 4 - ...))) by modified
    Lentz, which converges in few steps for large |z|; mpmath.expint (slow,
    but good everywhere) where |z| < 50."""
    import mpmath
    if abs(z) < 50:
        return mpmath.exp(z)*mpmath.expint(n, z)
    tiny = mpmath.mpf(10)**-(2*mpmath.mp.dps)
    b = z + n
    c, d = 1/tiny, 1/b
    h = d
    for i in range(1, _SERIES_MAX_TERMS):
        a = -i*(n - 1 + i)
        b += 2
        d = 1/(a*d + b)
        c = b + a/c
        step = c*d
        h *= step
        if abs(step.real - 1) + abs(step.imag) < rtol:
            return h
    raise ConvergenceError(f"e^z E_n(z) fraction: {_SERIES_MAX_TERMS} steps")


def _geometric_sum_mp(term, ratio, rtol):
    """sum_n ratio^n term(n) for |term(n)| that do not grow, stopped where
    the geometric tail bound is below rtol of the total."""
    import mpmath
    total, weight = mpmath.mpc(0), mpmath.mpc(1)
    bound = rtol*(1 - abs(ratio))
    for n in range(_SERIES_MAX_TERMS):
        t = weight*term(n)
        total += t
        if abs(t) < bound*abs(total):
            return total
        weight *= ratio
    raise ConvergenceError(f"geometric series: {_SERIES_MAX_TERMS} terms")


def incoherent_series_mp(omega_p: float, qubit, params, nbar: float,
                         signal_omega=None, dps: int = 40) -> complex:
    """The incoherent series chi sum_n (k/c)^n e^(x_n) E_(n+1)(x_n)/(nbar B)
    of qubit_response_incoherent at one point, summed with dps digits from
    the same float inputs, taken as exact, as `coherent_series_mp` does, to
    a tail and e^x E_n(x) error below 10^(-dps/2) of the total."""
    import mpmath
    with mpmath.workdps(dps):
        chi, gc = mpmath.mpf(qubit.chi), mpmath.mpf(params.cavity.gamma_c)
        dressed = mpmath.mpf(params.omega_c_star)
        omega = dressed if signal_omega is None else mpmath.mpf(signal_omega)
        nbar = mpmath.mpf(nbar)
        pull = dressed - omega - 0.5j*gc
        w = 2*chi + pull
        k = 4*chi**2/w**2
        c = 1/nbar + k
        b = -(2*chi - 4*chi**2/w)
        base = (mpmath.mpf(omega_p) - qubit.omega_q
                + 1j*mpmath.mpf(qubit.gamma_coh))
        x0, shift = c*base/b, c*w/b      # the series' n step equals w
        rtol = mpmath.mpf(10)**-(dps//2)
        total = _geometric_sum_mp(
            lambda n: _expint_scaled_mp(n + 1, x0 - n*shift, rtol), k/c, rtol)
        return complex(chi*total/(nbar*b))


def thermal_series_mp(omega_p: float, qubit, params, flux: float,
                      tau_c: float, signal_omega=None, dps: int = 40) -> complex:
    """The thermal series chi sum_n prefactor rate^n/(omega_p - pole_n) of
    qubit_response_thermal at one point, summed with dps digits from the
    same float inputs, taken as exact, to a tail below 10^(-dps/2) of the
    total."""
    import mpmath
    with mpmath.workdps(dps):
        chi, gc = mpmath.mpf(qubit.chi), mpmath.mpf(params.cavity.gamma_c)
        flux, tau_c = mpmath.mpf(flux), mpmath.mpf(tau_c)
        dressed = mpmath.mpf(params.omega_c_star)
        omega = dressed if signal_omega is None else mpmath.mpf(signal_omega)
        wp = mpmath.mpf(omega_p)
        delta = omega - dressed
        nbar = (flux/tau_c)/(delta**2 + 1/tau_c**2)
        tau_p = tau_c/(1 + 1j*tau_c*(wp - omega))
        nbar_p = (flux/tau_p)/(delta**2 + 1/tau_p**2)
        s_root = mpmath.sqrt(gc**2/4 + gc*(2*nbar_p + 1)*1j*chi - chi**2)
        if s_root.real < 0:
            s_root = -s_root
        v = 1 + (1j*chi - gc/2 - s_root)/(gc*(1 + nbar_p))
        r1, q1 = gc/2 - s_root - 1j*chi, gc/2 + s_root - 1j*chi
        r2 = gc*(v - nbar/(1 + nbar))*(1 + nbar_p)
        q2 = r2 + 2*s_root
        rate = (r1/q1)*(r2/q2)
        pole0 = (mpmath.mpf(qubit.omega_q) - 1j*mpmath.mpf(qubit.gamma_coh)
                 - chi + 0.5j*gc)
        total = _geometric_sum_mp(
            lambda n: 1/(wp - pole0 + 1j*(2*n + 1)*s_root), rate,
            mpmath.mpf(10)**-(dps//2))
        return complex(chi*2*s_root*gc/(q1*q2)*total)


# ---------------------------------------------------------------------------
# Confluent hypergeometric 1F1 (Kummer M)

def hyp1f1(a: complex, b: complex, z: complex) -> complex:
    """1F1(a; b; z) by Taylor series, Kummer-transformed for Re z < 0."""
    a, b, z = complex(a), complex(b), complex(z)
    if b.imag == 0 and b.real <= 0 and b.real == round(b.real):
        raise ValueError(f"hyp1f1 pole: b={b} is a non-positive integer")
    if z.real < 0:
        # 1F1(a;b;z) = e^z 1F1(b-a;b;-z), avoids alternating cancellation
        return cmath.exp(z)*_hyp1f1_series(b - a, b, -z)
    return _hyp1f1_series(a, b, z)


def _hyp1f1_series(a: complex, b: complex, z: complex) -> complex:
    total = term = 1.0 + 0j
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n)/(b + n)*z/(n + 1)
        total += term
        if abs(term) < _SERIES_RTOL*abs(total):
            return _check_finite(total, "hyp1f1")
    raise ConvergenceError(
        f"hyp1f1({a},{b},{z}): {_SERIES_MAX_TERMS} terms, last |term|={abs(term):.3e}")


# ---------------------------------------------------------------------------
# Digamma (needed by the logarithmic Kummer U series)

def digamma(z: complex) -> complex:
    """psi(z) for complex z, recurrence plus asymptotic series."""
    z = complex(z)
    if z.imag == 0 and z.real == round(z.real) and z.real <= 0:
        raise ValueError(f"digamma pole at {z}")
    shift = 0j
    while z.real < 12.0:
        shift -= 1.0/z
        z += 1.0
    inv = 1.0/z
    inv2 = inv*inv
    tail = inv2*(1/12.0 - inv2*(1/120.0 - inv2*(1/252.0 - inv2*(1/240.0 - inv2/132.0))))
    return shift + cmath.log(z) - 0.5*inv - tail


def _gamma(z: complex) -> complex:
    # Lanczos, g = 7
    coeff = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
             771.32342877765313, -176.61502916214059, 12.507343278686905,
             -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    z = complex(z)
    if z.real < 0.5:
        return math.pi/(cmath.sin(math.pi*z)*_gamma(1.0 - z))
    z -= 1.0
    x = coeff[0] + sum(c/(z + i) for i, c in enumerate(coeff[1:], start=1))
    t = z + 7.5
    return math.sqrt(2.0*math.pi)*t**(z + 0.5)*cmath.exp(-t)*x


def _recip_gamma(z: complex) -> complex:
    z = complex(z)
    if z.imag == 0 and z.real == round(z.real) and z.real <= 0:
        return 0j  # 1/Gamma at the poles
    return 1.0/_gamma(z)


# ---------------------------------------------------------------------------
# Tricomi (Kummer) U

def kummer_u(a: complex, b: complex, z: complex) -> complex:
    """Tricomi U(a, b, z) for integer b >= 1, principal branch.

    Integer b is the only case the identity checks need (U(n, n, x) and the
    asymptotic tails); the logarithmic series DLMF 13.2.9 covers moderate
    |z| on any ray off the cut, the 2F0 asymptotic series covers large |z|.
    """
    a, z = complex(a), complex(z)
    if z == 0:
        raise ValueError("kummer_u: z = 0 is a branch point")
    n_b = complex(b)
    if n_b.imag != 0 or n_b.real != round(n_b.real) or n_b.real < 1:
        raise ValueError(f"kummer_u implemented for integer b >= 1, got {b}")
    if abs(z) > 38.0 + 2.0*abs(a):
        return _kummer_u_asymptotic(a, n_b.real, z)
    return _kummer_u_logseries(a, int(n_b.real), z)


def _kummer_u_asymptotic(a: complex, b: float, z: complex) -> complex:
    # U ~ z^-a 2F0(a, a-b+1; ; -1/z), truncated at the smallest term
    total = term = 1.0 + 0j
    best = abs(term)
    out = total
    for k in range(1, 400):
        term *= (a + k - 1.0)*(a - b + k)/(-z*k)
        if abs(term) > best:
            break
        total += term
        best, out = abs(term), total
        if abs(term) < _SERIES_RTOL*abs(total):
            break
    return _check_finite(out*z**(-a), "kummer_u")


def _kummer_u_logseries(a: complex, b: int, z: complex) -> complex:
    n = b - 1
    log_z = cmath.log(z)
    rg_an = _recip_gamma(a - n)
    total = 0j
    if rg_an != 0:
        s = 0j
        poch_a, poch_b, fact, zk = 1.0 + 0j, 1.0, 1.0, 1.0 + 0j
        for k in range(_SERIES_MAX_TERMS):
            term = poch_a/(poch_b*fact)*zk*(log_z + digamma(a + k)
                                            - digamma(1.0 + k) - digamma(n + 1.0 + k))
            s += term
            if k > 3 and abs(term) < _SERIES_RTOL*abs(s):
                break
            poch_a *= a + k
            poch_b *= n + 1 + k
            fact *= k + 1
            zk *= z
        else:
            raise ConvergenceError(f"kummer_u({a},{b},{z}): log series stalled")
        total += (-1.0)**(n + 1)/math.factorial(n)*rg_an*s
    if n >= 1:
        rg_a = _recip_gamma(a)
        if rg_a != 0:
            s = 0j
            poch, poch_low, fact, zk = 1.0 + 0j, 1.0, 1.0, 1.0 + 0j
            for k in range(n):
                s += poch/(poch_low*fact)*zk
                poch *= a - n + k
                if k < n - 1:
                    poch_low *= 1 - n + k
                fact *= k + 1
                zk *= z
            total += math.factorial(n - 1)*rg_a*z**(-n)*s
    return _check_finite(total, "kummer_u")


# ---------------------------------------------------------------------------
# Resonator modes at small gap capacitance

def small_gap_mode(geom: ResonatorGeometry, n: int) -> CavityMode:
    """Leading small-C expansion: shift -2C/(C'L) omega_n0 and width
    (4c/L)(n pi C/(L C'))^2; valid for C <~ 0.04 C'L."""
    ratio = geom.capacitance_ratio
    omega_0 = n*math.pi*geom.velocity/geom.length
    omega_n = omega_0*(1.0 - 2.0*ratio)
    gamma_n = 4.0*(geom.velocity/geom.length)*(n*math.pi*ratio)**2
    return CavityMode(n=n, omega_n=omega_n, gamma_n=gamma_n,
                      q_factor=omega_n/gamma_n)


def quality_factor_estimate(geom: ResonatorGeometry, n: int) -> float:
    """Closed form C'^2 L^2/(2 n pi C^2) = C'L/(2 omega_n0 Z C^2).

    This quotes the resonance over the half-width gamma_n/2, i.e. twice
    CavityMode.q_factor (which divides by the full width).
    """
    return 1.0/(2.0*n*math.pi*geom.capacitance_ratio**2)


# ---------------------------------------------------------------------------
# The published line-constant table of the reference CPW

TABLE_ROWS = {
    # columns: C' [F/m], v/c, eps_eff, L' [H/m], C_eff [F/m], Z, Z_static
    "two_half_planes": (1.55e-10, 0.398, 6.30, 8.32e-7, 0.84e-10, 99.4, 73.0),
    "eps2_eq_eps1":    (1.54e-10, 0.409, 5.99, 4.54e-7, 1.47e-10, 55.6, 54.3),
    "full":            (1.44e-10, 0.434, 5.30, 2.36e-7, 2.49e-10, 30.8, 40.5),
}

# the nominal fabrication gap of 6.6 um (k0 = 0.431), against the effective
# 7.5 um of presets.TABLE_GEOMETRY, shifts C', L', C_eff, Z and Z_static by
# 3.5-3.8%, v and eps_eff by under 0.1%
NOMINAL_GEOMETRY = CpwGeometry(w=10e-6, s=6.6e-6, h1=500e-6, h2=550e-9,
                               eps1_rel=11.6, eps2_rel=3.78)
