import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import lambertw as scipy_lambertw

from starkprobe import specfun
from starkprobe.specfun import (ConvergenceError, elliptic_k, expint_scaled,
                                lambert_w, lambert_w_log)

from closedform import _hyp1f1_series, digamma, hyp1f1, kummer_u

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# exact-rational helpers (independent oracles)

class QC:
    """Complex numbers with Fraction components, enough for series oracles."""

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return QC(self.re*other.re - self.im*other.im,
                  self.re*other.im + self.im*other.re)

    def __truediv__(self, other):
        norm = other.re*other.re + other.im*other.im
        return QC((self.re*other.re + self.im*other.im)/norm,
                  (self.im*other.re - self.re*other.im)/norm)

    def to_complex(self):
        return complex(self.re) + 1j*complex(self.im)


def hyp1f1_rational(a: QC, b: QC, z: QC, terms: int = 200) -> complex:
    total = QC(1)
    term = QC(1)
    for n in range(terms):
        nn = QC(n)
        term = term*(a + nn)/(b + nn)*z/QC(n + 1)
        total = total + term
    return total.to_complex()


# ---------------------------------------------------------------------------
# Lambert W

def test_lambert_trivial_values():
    assert lambert_w(0, 0) == 0
    assert abs(lambert_w(0, math.e) - 1.0) < 1e-14
    assert abs(lambert_w(-1, -1.0/math.e) + 1.0) < 1e-6


def test_lambert_residual_invariant():
    rng = np.random.default_rng(7)
    for branch in (-2, -1, 0, 1, 3):
        for _ in range(60):
            z = complex(rng.normal(scale=3.0), rng.normal(scale=3.0))
            if abs(z) < 1e-6:
                continue
            w = lambert_w(branch, z)
            assert abs(w*cmath.exp(w) - z) <= 1e-12*max(1.0, abs(z))


def test_lambert_branches_match_scipy():
    rng = np.random.default_rng(11)
    for branch in (-2, -1, 0, 1, 2):
        for _ in range(60):
            z = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
            if abs(z) < 1e-3 or abs(z + 1/math.e) < 1e-2:
                continue
            mine = lambert_w(branch, z)
            ref = complex(scipy_lambertw(z, branch))
            assert abs(mine - ref) < 1e-9*max(1.0, abs(ref))


def test_lambert_branch0_real_on_real_axis():
    for x in (-0.3, -0.05, 0.1, 1.0, 7.0):
        w = lambert_w(0, x)
        assert abs(w.imag) < 1e-14


def test_lambert_log_form_matches_direct():
    for branch, z in ((0, 5.0), (1, 40.0), (2, -30.0)):
        direct = lambert_w(branch, z)
        via_log = lambert_w_log(branch, cmath.log(complex(z)))
        assert abs(direct - via_log) < 1e-11*max(1.0, abs(direct))


def test_lambert_rejects_bad_zero():
    with pytest.raises(ValueError):
        lambert_w(1, 0.0)


# ---------------------------------------------------------------------------
# elliptic K

def test_elliptic_k_zero():
    assert abs(elliptic_k(0.0) - math.pi/2) < 1e-15


def test_elliptic_k_against_quadrature():
    k = 1.0/math.sqrt(2.0)
    ref, err = quad(lambda t: 1.0/math.sqrt(1.0 - (k*math.sin(t))**2),
                    0.0, math.pi/2, epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    assert abs(elliptic_k(k) - ref) < 1e-12


def test_elliptic_k_monotone():
    grid = np.linspace(0.0, 0.99, 100)
    vals = [elliptic_k(k) for k in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_elliptic_k_agm_crosscheck():
    for k in np.arange(0.0, 0.991, 0.1):
        a, b = 1.0, math.sqrt(1.0 - k*k)
        for _ in range(40):
            a, b = 0.5*(a + b), math.sqrt(a*b)
            if abs(a - b) < 1e-17:
                break
        assert abs(elliptic_k(k) - math.pi/(2.0*a)) < 1e-13


def test_elliptic_k_domain():
    with pytest.raises(ValueError):
        elliptic_k(1.0)
    with pytest.raises(ValueError):
        elliptic_k(-0.1)


# ---------------------------------------------------------------------------
# 1F1

def test_hyp1f1_at_zero():
    assert hyp1f1(0.3 - 0.2j, 1.7, 0.0) == 1.0


def test_hyp1f1_closed_form_identity():
    z = 0.3 + 0.4j
    assert abs(hyp1f1(1.0, 2.0, z) - (cmath.exp(z) - 1.0)/z) < 1e-14


def test_hyp1f1_against_rational_series():
    got = hyp1f1(-0.5 + 0.2j, 0.7 - 0.1j, 1.1 + 0.3j)
    ref = hyp1f1_rational(QC(Fraction(-1, 2), Fraction(1, 5)),
                          QC(Fraction(7, 10), Fraction(-1, 10)),
                          QC(Fraction(11, 10), Fraction(3, 10)))
    assert abs(got - ref) < 1e-13*abs(ref)


def test_hyp1f1_kummer_transformation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.5, 4), rng.uniform(-2, 2))
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        lhs = hyp1f1(a, b, z)
        rhs = cmath.exp(z)*hyp1f1(b - a, b, -z)
        assert abs(lhs - rhs) < 1e-10*max(1.0, abs(lhs))


def test_hyp1f1_transform_against_plain_series():
    # the public function transforms Re z < 0; check against the raw series
    a, b, z = 0.8 + 0.1j, 2.2 - 0.3j, -4.0 + 1.0j
    assert abs(hyp1f1(a, b, z) - _hyp1f1_series(a, b, z)) < 1e-11*abs(hyp1f1(a, b, z))


def test_hyp1f1_pole_rejected():
    with pytest.raises(ValueError):
        hyp1f1(1.0, -2.0, 0.5)


# ---------------------------------------------------------------------------
# Kummer U and exponential integrals

def test_kummer_u_e1_value():
    # U(1,1,1) = e E_1(1), E_1(1) by quadrature
    e1, err = quad(lambda t: math.exp(-t)/t, 1.0, np.inf,
                   epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    assert abs(kummer_u(1.0, 1, 1.0) - math.e*e1) < 1e-12


def test_kummer_u_leading_asymptotic_order():
    for z in (50.0, 100.0):
        val = abs(kummer_u(1.0, 1, z)*z)
        assert abs(val - 1.0) < 2.5/z


def test_kummer_expint_identity_single():
    y = 0.8
    lhs = expint_scaled(2, y)
    rhs = y**(2 - 1)*kummer_u(2.0, 2, y)
    assert abs(lhs - rhs) < 1e-12*abs(lhs)


def test_kummer_expint_identity_grid():
    # grid avoids 6 < |y| < 45 where the independent log-series evaluation
    # of U carries e^|y| double-precision cancellation
    ys = [0.4, 1.3, 0.9 + 0.8j, 2.5 - 1.2j, 5.0 + 0.3j, 4.0 - 2.0j,
          50.0 + 5.0j, 70.0 - 10.0j]
    for n in range(1, 7):
        for y in ys:
            y = complex(y)
            lhs = expint_scaled(n, y)
            rhs = y**(n - 1)*kummer_u(float(n), n, y)
            assert abs(lhs - rhs) <= 1e-10*max(abs(lhs), 1e-30), (n, y)


def test_expint_at_zero():
    assert abs(expint_scaled(4, 0.0) - 1.0/3.0) < 1e-15


def test_expint_scaled_domain():
    # orders below 1 are refused, scalar or array, and so is E_1 at its pole
    for n in (0, -2, np.array([3, 0]), np.array([[1], [-1]])):
        with pytest.raises(ValueError, match="n >= 1"):
            expint_scaled(n, 1.0)
    with pytest.raises(ValueError, match="diverges at z = 0"):
        expint_scaled(1, 0.0)
    with pytest.raises(ValueError, match="diverges at z = 0"):
        expint_scaled(np.array([2, 1]), np.zeros(2))
    assert expint_scaled(2, 0.0) == 1.0
    # a non-finite argument far out, in the asymptotic branch
    with pytest.raises(ConvergenceError, match="non-finite result"):
        expint_scaled(1, np.array([complex(np.nan, np.inf), 2000.0]))
    assert np.array_equal(expint_scaled(np.array([2, 3, 5]), 0.0),
                          [1.0, 0.5, 0.25])


def test_expint_recurrence():
    # E_3 = (e^-z - z E_2)/2, times e^z
    z = 0.5 + 0.5j
    lhs = expint_scaled(3, z)
    rhs = (1.0 - z*expint_scaled(2, z))/2.0
    assert abs(lhs - rhs) < 1e-13*abs(lhs)


def test_expint_small_x_log_limit():
    x = 1e-4
    e1 = math.exp(-x)*expint_scaled(1, x)
    assert abs(e1 + EULER_GAMMA + math.log(x)) < 1e-3


def test_expint_scaled_near_cut_continuity():
    # continuous approach to the cut from below, large |z|
    base = expint_scaled(3, -40.0 - 1e-3j)
    closer = expint_scaled(3, -40.0 - 1e-6j)
    assert abs(base - closer) < 1e-3*abs(base)


def test_expint_scaled_against_quadrature_near_cut():
    # e^z E_2(z) at Re z < 0 equals e^z int_1^inf e^(-zt)/t^2 dt continued;
    # compare against the P-integral style identity
    # int_0^inf e^(-c u)/(A + B u) du = e^(x)/B E_1(x), x = cA/B
    c, A, B = 1.7, 2.3 - 0.9j, -1.1
    ref_re, _ = quad(lambda u: (math.exp(-c*u)/(A + B*u)).real, 0, np.inf,
                     limit=300)
    ref_im, _ = quad(lambda u: (math.exp(-c*u)/(A + B*u)).imag, 0, np.inf,
                     limit=300)
    x = c*A/B
    got = expint_scaled(1, x)/B
    assert abs(got - (ref_re + 1j*ref_im)) < 1e-10


def _expint_scaled_scalar(n, z):
    """e^z E_n(z) by the scalar helpers alone, in the order `expint_scaled`
    takes them: the series where it picks it, else the scalar continued
    fraction in place of the array one; where that fails, the series while
    Re z < 0 and e^z is a normal double, else the asymptotic series."""
    if z == 0:
        return 1.0/(n - 1)
    if abs(z) <= (6.0 if z.real > 0 else 12.0):
        return specfun._expint_scaled_series(n, z)
    try:
        return specfun._expint_scaled_cf(n, z)
    except (ConvergenceError, ZeroDivisionError):
        pass
    if z.real < 0 and math.exp(z.real) >= 2.0**-1022:
        return specfun._expint_scaled_series(n, z)
    return specfun._expint_scaled_asymptotic(n, z)


def test_expint_scaled_array_matches_scalar():
    # the array branches against the scalar helpers, a second implementation
    rng = np.random.default_rng(7)
    z = rng.uniform(-60.0, 60.0, 300) + 1j*rng.uniform(-60.0, 60.0, 300)
    # zero, series lanes, the fraction at Re z > 0 inside |z| <= 12, stalls
    # near the cut handed to the series, and z + n = 0 on the cut
    z = np.concatenate([z, [0.0, 3.0 + 1.0j, -5.0 + 0.5j, 7.0 + 2.0j,
                            -40.0 - 1e-3j, -40.0 - 1e-6j, -20.0]])
    for n in (1, 2, 5, 20):
        zn = z[z != 0] if n == 1 else z      # E_1 diverges at 0
        got = expint_scaled(n, zn.reshape(-1, 1))
        assert got.shape == (zn.size, 1)
        one = np.array([_expint_scaled_scalar(n, complex(x)) for x in zn])
        assert np.all(np.abs(got.ravel() - one) <= 1e-13*np.abs(one)), n
    # stalls at |z| > 200, where the series answers while e^z is normal
    for n, x in ((250, -251.0 - 1e-9j), (400, -401.0 - 1e-3j)):
        with pytest.raises(ConvergenceError, match="stalled"):
            specfun._expint_scaled_cf(n, x)
        assert expint_scaled(n, np.array([x]))[0] == _expint_scaled_scalar(n, x)
    assert isinstance(expint_scaled(3, 2.0 + 1.0j), complex)


def test_expint_scaled_array_order_matches_scalar_order():
    # an array of orders gives every element the value a call with its order
    # alone gives it: bit for bit, in the series, in the fraction and at a
    # stall near the cut
    rng = np.random.default_rng(11)
    z = rng.uniform(-60.0, 60.0, (6, 40)) + 1j*rng.uniform(-60.0, 60.0, (6, 40))
    z[:, :8] *= 0.1
    z[0, 8] = -40.0 - 1e-6j
    n = rng.integers(1, 5, z.shape)
    got = expint_scaled(n, z)
    assert got.shape == z.shape
    for m in np.unique(n):
        assert np.array_equal(got[n == m], expint_scaled(int(m), z)[n == m]), m
    for j, i in zip(*(np.abs(z) <= 6.0).nonzero()):
        assert got[j, i] == expint_scaled(int(n[j, i]), complex(z[j, i]))
    # one order per row, as the incoherent series asks for a block of terms
    orders = np.arange(3, 9)[:, None]
    block = expint_scaled(orders, z)
    for j in range(z.shape[0]):
        assert np.array_equal(block[j], expint_scaled(int(orders[j, 0]), z[j])), j


def test_expint_scaled_lanes_are_independent():
    # an argument's value must not depend on which others share the call,
    # bit for bit, down to none: the subsets mix series lanes, fraction
    # lanes, which leave the recurrence as they converge, and asymptotic
    # lanes, down to one lane of a kind in a call and to one argument, and
    # every argument is also called alone as a complex and as a 0-d array
    rng = np.random.default_rng(23)
    # |z| from 1 to 1e6 at |arg z| < 3: the series below |z| = 12, then the
    # fraction, converging after 2 (large |z|) to several hundred (near the
    # cut) iterations, and the asymptotic series from |z| = 128(n + 8) on
    z = (np.geomspace(1.0, 1e6, 160)
         * np.exp(1j*rng.uniform(-3.0, 3.0, 160)))
    z = np.append(z, -40.0 - 1e-6j)          # stalls: the scalar fallback
    for n in (3, 700, rng.integers(1, 40, z.size),
              rng.integers(1, 701, z.size)):
        full = expint_scaled(n, z)
        # a pair puts each lane into a call with only one of its kind
        sizes = [*rng.integers(1, z.size, 25), *[2]*10, *[1]*10]
        for size in sizes:
            pick = np.sort(rng.choice(z.size, size, replace=False))
            got = expint_scaled(n[pick] if np.ndim(n) else n, z[pick])
            assert np.array_equal(got.view(float), full[pick].view(float)), size
        orders = np.broadcast_to(n, z.shape)
        for arg in (complex, np.array):
            alone = np.array([expint_scaled(int(m), arg(x))
                              for m, x in zip(orders, z)])
            assert np.array_equal(alone.view(float), full.view(float)), arg


def test_expint_scaled_asymptotic_branch_against_mpmath():
    # from |z| = 128(n + 8) on, an array call sums 8 terms of the asymptotic
    # series: good to 1e-15 just inside that boundary, in both half-planes
    # and up to the branch cut, and within 1e-15 of the continued fraction
    # just outside it (compared as z e^z E_n(z), which moves by about
    # 1/128th of the 2e-15 step across the boundary)
    mpmath = pytest.importorskip("mpmath")
    edge = math.pi - 1e-8
    theta = np.concatenate([np.linspace(-edge, edge, 17), [-3.0, 3.0]])
    with mpmath.workdps(30):
        for n in (1, 2, 7, 40, 700):
            bound = 128.0*(n + 8)
            inside = bound*(1.0 + 1e-15)*np.exp(1j*theta)
            outside = bound*(1.0 - 1e-15)*np.exp(1j*theta)
            assert np.all(np.abs(inside) >= bound) and np.all(np.abs(outside) < bound)
            got = expint_scaled(n, np.concatenate([inside, outside]))
            ref = np.array([complex(mpmath.exp(z)*mpmath.expint(n, z))
                            for z in map(complex, inside)])
            far, near = inside*got[:theta.size], outside*got[theta.size:]
            assert np.all(np.abs(got[:theta.size] - ref) <= 1e-15*np.abs(ref)), n
            assert np.all(np.abs(far - near) <= 1e-15*np.abs(near)), n


def test_expint_scaled_stalls_against_mpmath():
    # where the fraction stalls near the cut, past |z| = 200 as well, the
    # series answers while e^z is a normal double; the asymptotic series
    # answers only where the cut's jump it leaves out is below 2^-52 of its
    # value, which no stall has met (it is the jump that stalls the
    # fraction), and elsewhere the call raises, naming n and z
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        def ref(n, z):
            return complex(mpmath.exp(z)*mpmath.expint(n, z))
        for n, z in ((250, -251.0 - 1e-9j), (400, -401.0 - 1e-3j)):
            for got in (expint_scaled(n, z), expint_scaled(n, np.array([z]))[0]):
                assert abs(got - ref(n, z)) <= 1e-14*abs(ref(n, z)), (n, z)
        for n, z in ((1000, -1001.0 - 1e-9j), (600, -800.0 - 1e-9j)):
            with pytest.raises(ConvergenceError,
                               match=rf"expint_scaled\({n},\({z.real:g}"):
                expint_scaled(n, z)
        # the asymptotic series where the jump is negligible, and its refusal
        for n, z in ((5, -800.0 - 1e-9j), (1, -2000.0 + 0j), (3, -1e4 - 1j)):
            got = specfun._expint_scaled_asymptotic(n, z)
            assert abs(got - ref(n, z)) <= 1e-15*abs(ref(n, z)), (n, z)
        with pytest.raises(ConvergenceError, match="leaves out the cut's jump"):
            specfun._expint_scaled_asymptotic(250, -251.0 - 1e-9j)


def _refuse_scalar_helpers(monkeypatch) -> list:
    """The scalar fraction and asymptotic series, each raising if called;
    the list keeps the names of those called."""
    calls = []

    def refuse(name):
        def helper(n, z):
            calls.append(name)
            raise AssertionError(f"{name}({n}, {z}) called")
        return helper
    for name in ("_expint_scaled_cf", "_expint_scaled_asymptotic"):
        monkeypatch.setattr(specfun, name, refuse(name))
    return calls


def test_expint_scaled_stalls_take_the_series_or_are_refused(monkeypatch):
    # the four stalls of the test above: where e^z is a normal double the
    # series answers, elsewhere the call raises, naming n, z and the stall,
    # alone and in an array; neither scalar helper is called
    calls = _refuse_scalar_helpers(monkeypatch)
    for n, z in ((250, -251.0 - 1e-9j), (400, -401.0 - 1e-3j)):
        assert cmath.isfinite(expint_scaled(n, z))
        assert cmath.isfinite(expint_scaled(n, np.array([20.0, z]))[1])
    for n, z in ((1000, -1001.0 - 1e-9j), (600, -800.0 - 1e-9j)):
        for arg in (z, np.array([20.0, z])):
            with pytest.raises(ConvergenceError,
                               match=rf"^expint_scaled\({n},\({z.real:g}.* "
                                     r"stalled or left the floats"):
                expint_scaled(n, arg)
    assert not calls


@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 1.0),
                               complex(30.0, math.nan)])
def test_expint_scaled_refuses_a_nan_argument(z, monkeypatch):
    # a nan argument is not in the series' reach, so it reaches the fraction,
    # leaves it as a lane that never converges, and is refused by name
    calls = _refuse_scalar_helpers(monkeypatch)
    named = re.escape(f"expint_scaled(3,{complex(z)}): ")
    for arg in (z, np.array([2.0, z, 30.0])):
        with pytest.raises(ConvergenceError, match=named):
            expint_scaled(3, arg)
    assert not calls


def test_expint_scaled_stalls_near_the_cut_skip_the_scalar_fraction(monkeypatch):
    # a lane that the array fraction leaves near the cut goes straight to the
    # series, without a second, scalar fraction (which stalled again after
    # 3000 steps on most of them): alone, and on a fig4 incoherent sweep
    mpmath = pytest.importorskip("mpmath")
    from starkprobe.detector import Incoherent, sweep
    from starkprobe.presets import FIGURES
    fractions, stalls = [], []
    real_cf, real_series = specfun._expint_scaled_cf, specfun._expint_scaled_series

    def series(n, z):
        value = real_series(n, z)
        if abs(z) > 12.5:                   # beyond the series' own lanes
            stalls.append((n, z, value))
        return value

    monkeypatch.setattr(specfun, "_expint_scaled_cf",
                        lambda n, z: fractions.append((n, z)) or real_cf(n, z))
    monkeypatch.setattr(specfun, "_expint_scaled_series", series)
    expint_scaled(1, np.array([-24.0 - 0.64j]))
    fp = FIGURES["fig4"]
    sweep(fp.system(), Incoherent(nbar=1.0), fp.probe_grid_default(201))
    assert not fractions
    assert stalls[0][:2] == (1, -24.0 - 0.64j) and len(stalls) > 20
    with mpmath.workdps(40):
        for n, z, value in stalls[::len(stalls)//20]:
            ref = complex(mpmath.exp(z)*mpmath.expint(n, z))
            assert abs(value - ref) <= 1e-13*abs(ref), (n, z)


@pytest.mark.parametrize("n", [13, 20])
def test_expint_scaled_where_the_fraction_divides_by_zero(n):
    # at z = -n on the cut the fraction's first denominator z + n is 0: the
    # series answers with the limit from above, as a float, a complex or in
    # an array, where a ZeroDivisionError escaped
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = complex(mpmath.exp(-n)*mpmath.expint(n, mpmath.mpc(-n, 0)))
    if n == 13:
        assert ref == -0.051458591315855604 - 0.34538611277983405j
    got = [expint_scaled(n, -float(n)), expint_scaled(n, complex(-n)),
           *expint_scaled(n, np.array([-float(n), 1.0])[:1]),
           *expint_scaled(np.array([n]), np.array([-n + 0j]))]
    for value in got:
        assert abs(value - ref) <= 1e-15*abs(ref), value


@pytest.mark.xfail(strict=True, reason="expint_scaled's series branch (Re z > 0, "
                   "|z| <= 6) loses up to 1.2e-10 relative accuracy (n = 8, "
                   "z = 6 e^(-i pi/12)); the continued fraction is good to "
                   "1e-15 there")
def test_expint_scaled_series_branch_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for n in (1, 4, 8, 12):
            for r in (0.5, 2.0, 4.0, 6.0):
                for theta in np.linspace(-0.5*math.pi, 0.5*math.pi, 13)[1:-1]:
                    z = r*cmath.exp(1j*theta)
                    ref = complex(mpmath.exp(z)*mpmath.expint(n, z))
                    worst = max(worst, abs(expint_scaled(n, z) - ref)/abs(ref))
    assert worst < 1e-13


def _e1_grid():
    # both sides of the boundary |z| + |Re z| = 4 between the series and the
    # fraction, out to |z| = 1e3, both half-planes, up to the branch cut
    r = np.concatenate([np.linspace(0.05, 6.0, 24), [1.99, 2.01, 3.99, 4.01],
                        [8.0, 32.0, 1e3]])
    theta = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 31)
    return (r[:, None]*np.exp(1j*theta[None, :])).ravel()


def test_expint1_scaled_lanes_against_mpmath():
    # the power series where |z| + |Re z| <= 4, the fraction at depth 64 on
    # the rest of the right half-plane, expint_scaled on the rest of the
    # left; expint_scaled's own series is off by up to 1.2e-10 there (above)
    mpmath = pytest.importorskip("mpmath")
    z = _e1_grid()
    got = specfun.expint1_scaled_lanes(z)
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.exp(x)*mpmath.expint(1, x))
                        for x in map(complex, z)])
    err = np.abs(got - ref)/np.abs(ref)
    small = np.abs(z) + np.abs(z.real) <= 4.0
    assert err[small].max() <= 1e-14, z[small][err[small].argmax()]
    right = ~small & (z.real > 0)
    assert err[right].max() <= 1e-15, z[right][err[right].argmax()]
    assert err[~small & ~right].max() <= 1e-13


def test_expint1_scaled_lanes_are_independent():
    # each argument has the bits it has alone, and those of expint_scaled
    # where that takes it
    z = _e1_grid()
    full = specfun.expint1_scaled_lanes(z)
    rng = np.random.default_rng(5)
    for size in (*rng.integers(2, z.size, 10), 1):
        pick = np.sort(rng.choice(z.size, size, replace=False))
        got = specfun.expint1_scaled_lanes(z[pick])
        assert np.array_equal(got.view(float), full[pick].view(float)), size
    rest = (np.abs(z) + np.abs(z.real) > 4.0) & (z.real <= 0)
    assert np.array_equal(full[rest], expint_scaled(1, z[rest]))


# ---------------------------------------------------------------------------
# Digamma

def test_digamma_reflection():
    z = 0.3 + 0.7j
    lhs = digamma(1.0 - z) - digamma(z)
    rhs = math.pi/cmath.tan(math.pi*z)
    assert abs(lhs - rhs) < 1e-12*abs(rhs)


def test_digamma_recurrence():
    z = 2.3 - 1.1j
    assert abs(digamma(z + 1.0) - digamma(z) - 1.0/z) < 1e-13
