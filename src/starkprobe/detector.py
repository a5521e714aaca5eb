"""Probe transmission of a dispersively coupled transmon array.

A weak probe at omega_p scans across the qubit frequencies while a signal
field (vacuum, coherent, incoherent or thermal) populates the cavity.
Every qubit adds a probe-normalised linear response R_j(omega_p); the
transmission assembles the two rotating branches

    S21 = sum(+-) -i gc/2 / (omega_p -+ omega_c* + i gc/2)
        + i gc/2 R_j(omega_p) / (omega_p - omega_c + i gc/2)
        + i gc/2 conj(R_j(-omega_p)) / (omega_p + omega_c + i gc/2)

with omega_c* = omega_c - sum_j chi_j the ground-state-dressed cavity
frequency.  R depends on the signal state through the in-cavity photon
statistics; the photon-number sidebands sit at omega_j + 2 chi_j n.

Each R is a series summed per probe point.  For incoherent and thermal
light, a point far from every sideband (the counter-rotating branch sits
about 2 omega_j away) is summed in closed form from the series' expansion
in its inverse detuning, where 24 terms of it settle to 2^-56; for a long
incoherent series, so is a point that recedes from every sideband, with
the pole that stalls that expansion taken out.  `sweep` refuses a spectrum
that is not passive.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import warnings
from dataclasses import dataclass, field, replace
from itertools import accumulate, count, islice, repeat
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import FINITE, NON_NEGATIVE, NON_ZERO, POSITIVE, check_values
from .specfun import ConvergenceError, expint1_scaled_lanes, expint_scaled

# series truncation: stop once the last 3 terms each fall below
# _TERM_RTOL of the accumulated magnitude; hard cap _TERM_CAP
_TERM_RTOL = 1e-12
_TERM_CAP = 5000
# while few lanes remain, a series takes a block of terms per array pass:
# at most _BLOCK_ROWS terms and _BLOCK_CELLS terms x lanes (101 lanes: 40),
# else one term at a time where that budget is below _BLOCK_MIN_ROWS.  A
# lane's last block computes terms past its stop.  A comb on a grid of few
# points adds its sidebands in blocks of the same budget.
_BLOCK_ROWS = 64
_BLOCK_CELLS = 4096
_BLOCK_MIN_ROWS = 8
# a lane far from every pole is summed in closed form where the expansion
# in its detuning settles within _FAR_TERMS terms: the last below _FAR_RTOL
# of the sum
_FAR_TERMS = 24
_FAR_RTOL = 2.0**-56
# the most sidebands a comb's table may hold
_SIDEBAND_CAP = 100000


def _warn(message: str) -> None:
    """Warn at the first caller outside the module that warns, such as that
    of `sweep`."""
    frame, level = sys._getframe(1), 2
    home = frame.f_globals["__name__"]
    while frame.f_back is not None and frame.f_globals["__name__"] == home:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


# ---------------------------------------------------------------------------
# Parameter containers

@dataclass(frozen=True)
class QubitParams:
    omega_q: float        # rad/s
    chi: float            # rad/s, per-photon Stark shift
    gamma: float          # rad/s, decay into non-line channels
    gamma_phi: float      # rad/s, pure dephasing

    def __post_init__(self):
        check_values(vars(self), omega_q=FINITE, chi=NON_ZERO,
                     gamma=NON_NEGATIVE, gamma_phi=NON_NEGATIVE)

    @property
    def gamma_coh(self) -> float:
        """Coherence decay gamma/2 + gamma_phi entering every line width."""
        return 0.5*self.gamma + self.gamma_phi


@dataclass(frozen=True)
class CavityParams:
    omega_c: float        # rad/s
    gamma_c: float        # rad/s

    def __post_init__(self):
        check_values(vars(self), omega_c=FINITE, gamma_c=POSITIVE)


@dataclass(frozen=True)
class SystemParams:
    cavity: CavityParams
    qubits: tuple[QubitParams, ...]

    # dressed cavity frequency omega_c - sum_j chi_j, set from the above
    omega_c_star: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        chis = 0.0        # left to right, as `specfun` sums psi(n)
        for qubit in self.qubits:
            chis += qubit.chi
        object.__setattr__(self, "omega_c_star", self.cavity.omega_c - chis)


# Signal states.  Each owns its in-cavity (nbar, beta), its bound per-qubit
# response and its comb sidebands (weight, cavity-induced width): Poisson
# weights for coherent light, geometric (Bose) ones for incoherent and
# thermal light, with a count of them that a comb table surely exceeds.

def _lorentzian_fill(sig, params: SystemParams, half_width):
    """(delta, flux, nbar) of a flux J filling a Lorentzian line of half
    width h: nbar = h J/(delta^2 + h^2) with delta = omega - omega_c*, so
    nbar = J/h on resonance; a state given by nbar gets the flux that
    yields it.  The cavity's line has h = gc/2, thermal light's own
    h = 1/tau_c; h may be a complex array, giving nbar per element.
    """
    delta = signal_frequency(sig, params) - params.omega_c_star
    lor = delta*delta + half_width*half_width
    flux = sig.flux if sig.flux is not None else sig.nbar*lor/half_width
    return delta, flux, half_width*flux/lor


def _bose_weight(n: int, nbar: float) -> float:
    """Geometric photon-number weight nbar^n/(nbar + 1)^(n+1)."""
    return math.exp(n*math.log(nbar) - (n + 1)*math.log(nbar + 1.0))


def _bose_min_sidebands(nbar: float) -> float:
    """Sidebands a Bose table surely exceeds: the N at which the tail
    (nbar/(nbar + 1))^N is 2e-10.  Near the cap the table's running sum
    overshoots the exact weight by a few 1e-12 (it reaches 1 - 1e-10 up to
    nbar 4350, the exact tail up to 4342), far less than the margin."""
    return math.log(2e-10)/-math.log1p(1.0/nbar)


@dataclass(frozen=True)
class Coherent:
    flux: Optional[float] = None     # photons/s
    nbar: Optional[float] = None     # in-cavity mean photon number
    signal_omega: Optional[float] = None

    def __post_init__(self):
        _check_signal(self)

    def photon_number(self, params: SystemParams) -> tuple[float, complex]:
        """(nbar, beta), beta real positive at zero detuning."""
        gc = params.cavity.gamma_c
        delta, flux, nbar = _lorentzian_fill(self, params, 0.5*gc)
        return nbar, 1j*math.sqrt(0.5*gc*flux)/(delta + 0.5j*gc)

    def response(self, params: SystemParams) -> Callable:
        """R(omega_p, qubit) in this field, each qubit's constants kept."""
        _, beta = self.photon_number(params)
        omega = signal_frequency(self, params)
        constants: dict = {}
        return lambda wp, q: qubit_response_coherent(wp, q, params, beta, omega,
                                                     constants)

    def sideband(self, n: int, nbar: float, gamma_c: float) -> tuple[float, float]:
        return (math.exp(-nbar + n*math.log(nbar) - math.lgamma(n + 1)),
                0.5*(n + nbar)*gamma_c)

    def min_sidebands(self, nbar: float) -> float:
        """Sidebands the comb table surely exceeds: the Poisson mean."""
        return nbar


@dataclass(frozen=True)
class Vacuum(Coherent):
    """The zero-photon coherent state."""
    flux: Optional[float] = field(default=None, init=False)
    nbar: Optional[float] = field(default=0.0, init=False)


@dataclass(frozen=True)
class Incoherent:
    flux: Optional[float] = None
    nbar: Optional[float] = None
    signal_omega: Optional[float] = None

    def __post_init__(self):
        _check_signal(self)

    def photon_number(self, params: SystemParams) -> tuple[float, None]:
        return _lorentzian_fill(self, params, 0.5*params.cavity.gamma_c)[2], None

    def response(self, params: SystemParams) -> Callable:
        """R(omega_p, qubit) in this light, each qubit's constants kept."""
        nbar, _ = self.photon_number(params)
        if nbar == 0:
            return Vacuum(signal_omega=self.signal_omega).response(params)
        omega = signal_frequency(self, params)
        constants: dict = {}
        return lambda wp, q: qubit_response_incoherent(wp, q, params, nbar,
                                                       omega, constants)

    def sideband(self, n: int, nbar: float, gamma_c: float) -> tuple[float, float]:
        return _bose_weight(n, nbar), 0.5*n*gamma_c

    min_sidebands = staticmethod(_bose_min_sidebands)


@dataclass(frozen=True)
class Thermal:
    tau_c: float                     # s, signal coherence time
    flux: Optional[float] = None
    nbar: Optional[float] = None
    signal_omega: Optional[float] = None

    def __post_init__(self):
        _check_signal(self, tau_c=POSITIVE)

    def photon_number(self, params: SystemParams) -> tuple[float, None]:
        """nbar from the signal's own Lorentzian line, of half width
        h = 1/tau_c (`_lorentzian_fill`), so nbar = tau_c J on resonance.

        Warns where gamma_c tau_c > 0.1, outside the short-coherence regime
        that the thermal photon number, response and sidebands assume; the
        response kernel does not warn again.
        """
        gc = params.cavity.gamma_c
        if self.tau_c*gc > 0.1:
            _warn(f"gamma_c tau_c = {self.tau_c*gc:.3f} > 0.1: thermal "
                  "model assumes a short coherence time")
        return _lorentzian_fill(self, params, 1.0/self.tau_c)[2], None

    def response(self, params: SystemParams) -> Callable:
        _, flux, _ = _lorentzian_fill(self, params, 1.0/self.tau_c)
        omega = signal_frequency(self, params)
        return lambda wp, q: qubit_response_thermal(wp, q, params, flux,
                                                    self.tau_c, omega)

    def sideband(self, n: int, nbar: float, gamma_c: float) -> tuple[float, float]:
        return _bose_weight(n, nbar), ((2.0*nbar + 1.0)*n + nbar)*gamma_c

    min_sidebands = staticmethod(_bose_min_sidebands)


SignalState = Union[Vacuum, Coherent, Incoherent, Thermal]


def _check_signal(sig, **rules):
    if (sig.flux is None) == (sig.nbar is None):
        raise ValueError("give exactly one of flux or nbar")
    check_values(vars(sig), flux=NON_NEGATIVE, nbar=NON_NEGATIVE,
                 signal_omega=FINITE, **rules)


@dataclass(frozen=True)
class Spectrum:
    omega_p: np.ndarray
    s21: np.ndarray
    components: Optional[dict] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        omega = np.asarray(self.omega_p, dtype=float)
        s21 = np.asarray(self.s21, dtype=complex)
        if omega.shape != s21.shape:
            raise ValueError("grid and S21 arrays differ in length")
        if omega.size > 1 and not np.all(np.diff(omega) > 0):
            raise ValueError("probe grid must be strictly increasing")
        object.__setattr__(self, "omega_p", omega)
        object.__setattr__(self, "s21", s21)


# ---------------------------------------------------------------------------
# Photon statistics inside the cavity

def signal_frequency(sig: SignalState, params: SystemParams) -> float:
    """Signal carrier frequency; defaults to the dressed cavity frequency."""
    return params.omega_c_star if sig.signal_omega is None else sig.signal_omega


def cavity_photon_number(sig: SignalState, params: SystemParams
                         ) -> tuple[float, Optional[complex]]:
    """(nbar, beta) in the cavity; only the coherent states carry beta."""
    return sig.photon_number(params)


# ---------------------------------------------------------------------------
# Per-qubit probe responses (all normalised by the probe amplitude)
#
# Each kernel takes omega_p as a scalar or as an array of probe points and
# sums its series for all points at once, one "lane" per point; a scalar
# comes back as a complex.

class _Lanes:
    """Running sums of one series per probe point.

    A lane stops once three consecutive terms each fall below _TERM_RTOL of
    its running total and then leaves the active set, so the per-term work
    follows the points still summing; `active` holds their grid indices and
    `lane` the kernel's per-lane arrays.  A kernel may first `settle` the
    lanes it sums in closed form; `run` then adds the terms of the rest one
    per array pass (`add`) or, while few lanes are left, a block of terms
    per pass (`add_block`), with the same sums, and scales every lane once.
    The cell budget alone decides between the two, so the few terms left
    before the series' expected end take one short block.
    A grid of one point, 0-d or not, is summed by the same code as any
    other, so a lone point gets the bits it has on any grid.
    """

    def __init__(self, omega_p):
        self.grid = np.asarray(omega_p, dtype=float)
        size = self.grid.size
        self.active = np.arange(size)
        self.total = np.zeros(size, dtype=complex)
        # whether the last term and the one before were small
        self.small1 = self.small2 = np.zeros(size, dtype=bool)
        self.out = np.empty(size, dtype=complex)
        self.lane: dict = {}

    def run(self, terms: Callable, factors, end: int, scale: float,
            state: str, cap: str, stop_from: float = 0.0):
        """The finished sums times scale, in the grid's shape (a complex for
        a 0-d grid).

        terms(n, f) is term n of the active lanes with f the next item of
        `factors`; for a block, n is a column of indices and f has one row
        per index.  A lane may stop from term `stop_from` on, and `end` is
        where the series should stop.  Lanes still summing after _TERM_CAP
        terms raise ConvergenceError(cap), or name a lane gone non-finite.
        """
        n, end = 0, min(end, _TERM_CAP)
        while self.active.size:
            if n == _TERM_CAP:
                bad = self.active[~np.isfinite(self.total)]
                raise (_not_finite(state, self.grid.flat[bad[0]]) if bad.size
                       else ConvergenceError(cap))
            # the cell budget picks a block or one term; a block stops at
            # `end`, at most _TERM_CAP, and past it one term at a time
            rows = min(_BLOCK_ROWS, _BLOCK_CELLS//self.active.size)
            rows = min(rows, end - n) if rows >= _BLOCK_MIN_ROWS else 1
            if rows <= 1:
                self.add(terms(n, next(factors)), n >= stop_from)
                n += 1
            else:
                ns = np.arange(n, n + rows)
                f = np.array(list(islice(factors, rows))).reshape(rows, -1)
                self.add_block(terms(ns[:, None], f), ns >= stop_from)
                n += rows
        values = self.out*scale
        bad = (~np.isfinite(values)).nonzero()[0]
        if bad.size:
            raise _not_finite(state, self.grid.flat[bad[0]])
        if self.grid.ndim == 0:
            return complex(values[0])
        return values.reshape(self.grid.shape)

    def add(self, term, stop: bool = True) -> None:
        """Add one term per active lane and retire the converged lanes."""
        self.total += term
        if not stop:
            return
        small = np.abs(term) < _TERM_RTOL*np.maximum(np.abs(self.total), 1e-300)
        done = small & self.small1 & self.small2
        self.small1, self.small2 = small, self.small1
        self.settle(done, self.total)

    def settle(self, done: np.ndarray, sums: np.ndarray) -> None:
        """Finish the active lanes where `done` holds with their entries of
        `sums` (unscaled, one per active lane) and retire them."""
        if np.count_nonzero(done):
            hit = done.nonzero()[0]
            self.out[self.active[hit]] = sums[hit]
            self._retire(done)

    def add_block(self, terms: np.ndarray, stop: np.ndarray) -> None:
        """`add` for one row of terms after another, in one array pass.

        terms has one row per series term and one column per active lane,
        stop[j] is `add`'s flag for row j.  The sums and the rows at which
        the lanes stop are those of successive `add` calls.
        """
        totals = np.add.accumulate(np.concatenate((self.total[None], terms)))[1:]
        self.total = totals[-1]
        checked = stop.nonzero()[0]
        if not checked.size:
            return
        small = (np.abs(terms[checked])
                 < _TERM_RTOL*np.maximum(np.abs(totals[checked]), 1e-300))
        flags = np.concatenate((self.small2[None], self.small1[None], small))
        done = flags[2:] & flags[1:-1] & flags[:-2]
        self.small1, self.small2 = flags[-1], flags[-2]
        finished = done.any(axis=0)
        if not np.count_nonzero(finished):
            return
        # a lane keeps its total at the first row where it stopped
        lanes = finished.nonzero()[0]
        first = checked[done[:, lanes].argmax(axis=0)]
        self.out[self.active[lanes]] = totals[first, lanes]
        self._retire(finished)

    def _retire(self, done: np.ndarray) -> None:
        keep = (~done).nonzero()[0]     # one index gathers every array
        self.active, self.total, self.small1, self.small2 = (
            self.active[keep], self.total[keep], self.small1[keep],
            self.small2[keep])
        self.lane.update({key: values[keep] for key, values in self.lane.items()})


def _not_finite(state: str, omega_p: float) -> ConvergenceError:
    return ConvergenceError(f"{state} response is not finite at "
                            f"omega_p = {float(omega_p):.17g} rad/s")


def _geometric_end(decay) -> int:
    """Term where decay^n drops below _TERM_RTOL, three terms on (or _TERM_CAP)."""
    return (3 + int(math.log(_TERM_RTOL)/math.log(decay)) if 0 < decay < 1
            else _TERM_CAP)


def _incoherent_denominator(ratio: complex, gap: complex, shift: complex,
                            count: int) -> list:
    """The first `count` Taylor coefficients of D(t) = 1 + t - ratio e^(shift t):
    gap (1 - ratio, formed without cancellation), 1 - ratio shift, and
    -ratio shift^j/j!."""
    denom, power = [gap, 1.0 - ratio*shift], -ratio*shift
    for j in range(2, count):
        power *= shift/j
        denom.append(power)
    return denom


def _reciprocal(coefs: list) -> list:
    """The Taylor coefficients of 1/a(t), as many as a(t) has."""
    out = [1.0/coefs[0]]
    for m in range(1, len(coefs)):
        out.append(-sum(map(operator.mul, coefs[1:m + 1], reversed(out)))/coefs[0])
    return out


def _deflate(coefs: list, t0: complex) -> list:
    """The Taylor coefficients of (a(t) - a(t0))/(t - t0), each the next one
    of a(t) plus t0 times the one after it: run from the top down, the
    recurrence does not divide by a small t0."""
    return list(accumulate(reversed(coefs[1:]), lambda b, a: a + t0*b))[::-1]


def _horner(coefs: list, t: complex) -> complex:
    total = 0j
    for a in reversed(coefs):
        total = total*t + a
    return total


def _watson_coefficients(coefs: list) -> list:
    """m! coefs_m: the numerators of the Watson series sum_m m! coefs_m/x0^(m+1)."""
    return [math.factorial(m)*a for m, a in enumerate(coefs)]


def _watson(coef: list, x0: np.ndarray):
    """(tail, total): sum_m coef_m/x0^(m+1) by one Horner pass in 1/x0, with
    coef from `_watson_coefficients`, and the size of its last term."""
    u = 1.0/x0
    total = coef[-1]*u
    for a in reversed(coef[:-1]):
        total = (total + a)*u
    return abs(coef[-1])*np.abs(u)**len(coef), total


def _incoherent_far(x0: np.ndarray, coef: list):
    """(far, sums): sum_n ratio^n e^(x_n) E_(n+1)(x_n), x_n = x0 - n shift,
    at large |x0|, and the lanes where that expansion settles.

    The sum is int_0^inf e^(-x0 t)/D(t) dt with D(t) = 1 + t -
    ratio e^(shift t), so by Watson's lemma it is sum_m m! F_m/x0^(m+1),
    with F_m the Taylor coefficients of 1/D(t).  `coef` holds the m! F_m,
    formed once per series (`_IncoherentSeries`), and each lane takes one
    Horner pass in 1/x0.
    """
    with np.errstate(all="ignore"):     # a lane gone non-finite is not far
        tail, total = _watson(coef, x0)
        far = tail < _FAR_RTOL*np.abs(total)
    return far, total


def _pole_constants(ratio: complex, gap: complex, shift: complex
                    ) -> Optional[tuple]:
    """(t0, slope, coef) of `_incoherent_pole`: the zero t0 of D nearest 0,
    D'(t0) = 1 - shift (1 + t0) and the Watson numerators of the rest; None
    where Newton's method from -gap/(1 - ratio shift) finds no zero, or
    |shift t0| > 1.  gap is 1 - ratio, formed without cancellation."""
    # twice the Watson terms: the backward divisions start far past them
    denom = _incoherent_denominator(ratio, gap, shift, 2*_FAR_TERMS + 1)
    t0 = _nearest_zero(denom, -denom[0]/denom[1])
    if t0 is None or abs(shift*t0) > 1.0:
        return None
    rest = _deflate(_reciprocal(_deflate(denom, t0)), t0)[:_FAR_TERMS]
    return t0, 1.0 - shift*(1.0 + t0), _watson_coefficients(rest)


def _incoherent_pole(x0: np.ndarray, shift: complex, pole: Optional[tuple]):
    """(settled, sums): `_incoherent_far`'s sum where |ratio| is near 1,
    on the lanes whose arguments x_n recede from 0 (Re(x0 conj(shift)) < 0);
    pole holds `_pole_constants`.

    Near |ratio| = 1 the zero t0 of D nearest 0 comes close to it, and the
    Watson series stalls.  Taken out exactly, the pole contributes
    e^(-x0 t0) E_1(-x0 t0)/D'(t0), with D'(t0) = 1 - shift (1 + t0); the
    rest, 1/D(t) - 1/(D'(t0)(t - t0)), is regular out to the next zero and
    is summed by Watson's lemma as before.  Its coefficients R_m come from
    D(t) = (t - t0) Q(t) and 1/Q(t) = P(t) = P(t0) + (t - t0) R(t), both
    divisions run from the top down.  A receding lane settles where the
    Watson series does; on a lane that approaches a pole (a sideband on
    the near side) the same expansion settles to a wrong value.  Where
    pole is None, no lane settles.
    """
    settled = (x0.real*shift.real + x0.imag*shift.imag) < 0
    sums = np.zeros(x0.shape, dtype=complex)
    if pole is None or not settled.any():
        return np.zeros(x0.shape, dtype=bool), sums
    t0, slope, coef = pole
    lanes = settled.nonzero()[0]
    with np.errstate(all="ignore"):     # a lane gone non-finite does not settle
        tail, total = _watson(coef, x0[lanes])
        total = total + expint1_scaled_lanes(-x0[lanes]*t0)/slope
        settled[lanes] = tail < _FAR_RTOL*np.abs(total)
    sums[lanes] = total
    return settled, sums


def _nearest_zero(coefs: list, t: complex) -> Optional[complex]:
    """The zero of the power series `coefs` that Newton's method reaches
    from t within _FAR_TERMS steps, or None."""
    slope = [j*a for j, a in enumerate(coefs)][1:]
    for _ in range(_FAR_TERMS):
        step = _horner(coefs, t)/_horner(slope, t)
        t -= step
        # a few units in the last place: the steps then hop between
        # neighbouring doubles
        if abs(step) <= 2.0**-50*abs(t):
            return t
    return None


def _thermal_far(a: np.ndarray, step: np.ndarray, rate: np.ndarray):
    """(far, sums): sum_n rate^n/(a + n step) where |step| << |a|, and the
    lanes where that expansion settles.

    With y = -step/a the sum is the Euler transform
    (1/a) sum_k k! rate^k/(1 - rate)^(k+1) y^k/prod_(i<=k) (1 - i y), whose
    terms follow T_k = T_(k-1) k g/(1 - k y) with g = rate y/(1 - rate).
    """
    with np.errstate(all="ignore"):
        y = -step/a
        g = rate*y/(1.0 - rate)
        term = total = 1.0/(1.0 - rate)
        for k in range(1, _FAR_TERMS):
            term = term*g/(1.0/k - y)
            total = total + term
        far = np.abs(term) < _FAR_RTOL*np.abs(total)
    return far, total/a


def _cmul(x, y):
    """x*y formed from real parts, unfused.

    numpy's array complex multiply may fuse the products (FMA) and round the
    last bit differently from a scalar product; the expint series amplifies
    such a bit ten-thousandfold.
    """
    return (x.real*y.real - x.imag*y.imag) + 1j*(x.real*y.imag + x.imag*y.real)


class _CoherentSeries:
    """The coherent series of one qubit in one system and field, all but the
    probe point: W, the n step, the length it should stop near and, for a
    lone point, its first _BLOCK_ROWS Poisson weights and multiples of the
    step.  A bound response keeps one per qubit."""

    def __init__(self, qubit: QubitParams, params: SystemParams,
                 beta: complex, signal_omega: Optional[float]):
        chi, gc = qubit.chi, params.cavity.gamma_c
        omega = params.omega_c_star if signal_omega is None else signal_omega
        w = params.omega_c_star + 2.0*chi - omega - 0.5j*gc
        beta2 = abs(beta)**2
        big_w = 4.0*chi*chi*beta2/(w*w)
        if not cmath.isfinite(big_w):
            raise ConvergenceError(f"coherent response: W = {big_w} is not finite")
        self.chi, self.big_w = chi, big_w
        # D_0 - omega_p, in the order the terms are added
        self.offsets = (qubit.omega_q, 2.0*chi*beta2, 1j*qubit.gamma_coh,
                        4.0*chi*chi*beta2/w)
        self.step = 2.0*chi + (params.omega_c_star - omega - 0.5j*gc)
        # the weights fall off past term |W|; the series stops near the term
        # where they drop below _TERM_RTOL of the largest, three terms on
        end, drop = int(abs(big_w)), 1.0
        while drop >= _TERM_RTOL and end < _TERM_CAP:
            end += 1
            drop *= abs(big_w)/end
        self.end = end + 3
        self.named = f"nbar={beta2:.3g}, |W|={abs(big_w):.3g}"
        self.cap = "coherent response series cap: " + self.named
        weights = np.array(list(islice(self.weights(), _BLOCK_ROWS)))
        steps = np.arange(_BLOCK_ROWS)*self.step
        # a lone point tests its stop from term ceil(|W|) on, and divides
        # the rows past `end` (> ceil(|W|)) only if it must; its divisors
        # D_n have Im D_n >= Im D_0 at any omega_p (Im step = -gc/2), so
        # within these bounds, and for an omega_p that is not nan, no D_n is
        # 0 and no term leaves the floats
        self.first = math.ceil(min(abs(big_w), _BLOCK_ROWS))
        head = min(self.end, _BLOCK_ROWS)
        self.blocks = ((weights[:head], steps[:head], self.first),
                       (weights[head:], steps[head:], 0))
        low = self.base(0.0).imag
        self.bounded = (1e-300 < low < 1e300 and abs(steps[-1]) < 1e300
                        and np.abs(weights).max() < 1e300*low)

    def weights(self):
        """e^-W W^n/n! for n = 0, 1, ... as amp*exp(logscale), amp rescaled
        into logscale before it overflows; ConvergenceError where exp does."""
        big_w = self.big_w
        amp, logscale = 1.0 + 0j, -big_w
        try:
            scale = cmath.exp(logscale)
            for n in count(1):
                yield amp*scale
                amp *= big_w/n
                if abs(amp) > 1e250:
                    logscale += math.log(abs(amp))
                    amp /= abs(amp)
                    scale = cmath.exp(logscale)
        except OverflowError:
            raise ConvergenceError("coherent response Poisson weights "
                                   "overflow: " + self.named) from None

    def base(self, omega_p):
        """D_0 at omega_p, a float or an array."""
        omega_q, shift, width, pull = self.offsets
        return omega_p - omega_q - shift + width + pull

    def lone(self, omega_p: float) -> Optional[complex]:
        """The response at one probe point from the first _BLOCK_ROWS terms,
        added one by one as Python complex numbers under `_Lanes.add`'s
        stopping rule, with `run`'s bits; None where they do not stop the
        series, the sum is not finite or a divisor could be 0 (a series out
        of its bounds, or a nan point)."""
        if not self.bounded or math.isnan(omega_p):
            return None
        base = self.base(omega_p)
        total, quiet = 0j, 0       # quiet: the run of small terms, 3 stops
        for weights, steps, first in self.blocks:
            terms = (weights/(base - steps)).tolist()
            for term in terms[:first]:
                total += term
            for term in terms[first:]:
                total += term
                size = abs(total)
                if abs(term) < _TERM_RTOL*(1e-300 if size < 1e-300 else size):
                    quiet += 1
                    if quiet == 3:
                        value = total*self.chi
                        return value if cmath.isfinite(value) else None
                else:
                    quiet = 0
        return None


def _kept(constants: Optional[dict], series: type, qubit: QubitParams, *args):
    """series(qubit, *args), kept in a bound response's `constants` by the
    qubit's identity, which hashes no field; the entry keeps the qubit."""
    if constants is None:
        return series(qubit, *args)
    entry = constants.get(id(qubit))
    if entry is None:
        entry = constants[id(qubit)] = (qubit, series(qubit, *args))
    return entry[1]


def qubit_response_coherent(omega_p, qubit: QubitParams,
                            params: SystemParams, beta: complex,
                            signal_omega: Optional[float] = None,
                            constants: Optional[dict] = None):
    """Probe-normalised dipole response with a coherent field beta.

    Series form: chi e^-W sum_n W^n/n! / D_n with
    W = 4 chi^2 |beta|^2 / w^2,  w = omega_c* + 2 chi - omega - i gc/2,
    D_n = omega_p - omega_j - 2 chi(|beta|^2 + n)
          - n (omega_c* - omega - i gc/2) + i gamma_coh
          + 4 chi^2 |beta|^2 / w.
    `constants` keeps each qubit's `_CoherentSeries` (`_kept`); a lone
    point sums a precomputed block of terms and takes the general path
    only where that block falls short.
    """
    series = _kept(constants, _CoherentSeries, qubit, params, beta, signal_omega)
    # a float goes to `lone` as it is, an array of one point as its item
    grid = (None if isinstance(omega_p, float)
            else np.asarray(omega_p, dtype=float))
    point = (float(omega_p) if grid is None
             else grid.item() if grid.size == 1 else None)
    if point is not None:
        value = series.lone(point)
        if value is not None:
            return (value if grid is None or grid.ndim == 0
                    else np.full(grid.shape, value))
    lanes = _Lanes(omega_p)
    lanes.lane["base"] = series.base(lanes.grid.ravel())
    step = series.step
    with np.errstate(divide="ignore", invalid="ignore"):
        return lanes.run(lambda n, weight: weight/(lanes.lane["base"] - n*step),
                         series.weights(), series.end, series.chi,
                         "coherent", series.cap, stop_from=abs(series.big_w))


def _incoherent_constants(chi: float, nbar: float, w: complex):
    """(k, c, B) of the incoherent series: k = 4 chi^2/w^2, c = 1/nbar + k,
    B = -(2 chi - 4 chi^2/w)."""
    k = 4.0*chi*chi/(w*w)
    return k, 1.0/nbar + k, -(2.0*chi - 4.0*chi*chi/w)


class _IncoherentSeries:
    """The incoherent series of one qubit in one system and field, all but
    the probe point: k/c, c, B and the n step, the length it should stop
    near, the far lanes' Watson numerators and, for the receding lanes, c
    and B with w as the step and the pole's constants (None for a series
    within _BLOCK_ROWS terms).  A bound response keeps one per qubit."""

    def __init__(self, qubit: QubitParams, params: SystemParams, nbar: float,
                 signal_omega: Optional[float]):
        chi, gc = qubit.chi, params.cavity.gamma_c
        omega = params.omega_c_star if signal_omega is None else signal_omega
        self.step = step = 2.0*chi + (params.omega_c_star - omega - 0.5j*gc)
        # w equals step; the series and the far lanes form it at the scale of
        # omega_c* (7e-13 relative rounding on fig3) and keep those bits
        k, c, b = _incoherent_constants(
            chi, nbar, params.omega_c_star + 2.0*chi - omega - 0.5j*gc)
        self.ratio, self.c, self.b, self.scale = k/c, c, b, nbar*b
        self.far = _watson_coefficients(_reciprocal(_incoherent_denominator(
            k/c, 1.0/(nbar*c), c*step/b, _FAR_TERMS)))
        # the terms fall off about like |k/c|^n; no block of a short series
        # (fig4: 5 terms) reaches past this
        self.end = _geometric_end(abs(k/c))
        # w as step: that rounding would cost the receding lanes up to 1.1e-13
        pk, pc, pb = _incoherent_constants(chi, nbar, step)
        self.receding = (pc, pb, pc*step/pb, nbar*pb)
        self.pole = (_pole_constants(pk/pc, 1.0/(nbar*pc), pc*step/pb)
                     if self.end > _BLOCK_ROWS else None)
        self.cap = f"incoherent response series cap at nbar={nbar:.3g}"


def qubit_response_incoherent(omega_p, qubit: QubitParams,
                              params: SystemParams, nbar: float,
                              signal_omega: Optional[float] = None,
                              constants: Optional[dict] = None):
    """Probe-normalised response for an incoherent (phase-less) field.

    Gaussian-weighted integral of the coherent response over |beta|^2,
    carried out exactly term by term:

        chi sum_n (1/nbar) (k/c)^n e^(x_n) E_(n+1)(x_n) / B,
        k = 4 chi^2/w^2,  c = 1/nbar + k,  B = -(2 chi - 4 chi^2/w),
        x_n = c (omega_p - omega_j + i gamma_coh - n step)/B,

    with w, step as in the coherent series.  The product e^x E_(n+1)(x)
    equals x^n U(n+1, n+1, x) and is evaluated in scaled form.

    A lane far from every pole (the counter-rotating branch at the
    presets' nbar) takes the sum in closed form instead: with
    s = c step/B the series is int_0^inf e^(-x_0 t)/(1 + t - (k/c) e^(s t)) dt,
    whose Watson expansion in 1/x_0 (`_incoherent_far`) has coefficients
    shared by every lane.  A lane is far when the expansion's 24th term is
    below 2^-56 of its sum, a test of that lane alone, so its value does
    not depend on the lanes beside it.  Where the series would run past
    _BLOCK_ROWS terms (|k/c| > 0.64), the lanes whose x_n recede from 0
    take the same expansion with the pole nearest 0 taken out
    (`_incoherent_pole`), under the same test; every other lane sums the
    series.  `constants` keeps each qubit's `_IncoherentSeries` (`_kept`),
    so that both branches and many lone points form them once.
    """
    if nbar <= 0:
        raise ValueError("incoherent response needs nbar > 0")
    series = _kept(constants, _IncoherentSeries, qubit, params, nbar,
                   signal_omega)
    lanes = _Lanes(omega_p)
    base = lanes.grid.ravel() - qubit.omega_q + 1j*qubit.gamma_coh
    pole = (base == 0).nonzero()[0]
    if pole.size:
        # x_0 = 0, where e^x E_1(x) diverges
        raise _not_finite("incoherent", lanes.grid.flat[pole[0]])
    lanes.lane["base"] = base
    c, b_coef, scale, step = series.c, series.b, series.scale, series.step
    far, sums = _incoherent_far(_cmul(base, c)/b_coef, series.far)
    lanes.settle(far, sums/scale)
    if series.pole is not None:
        pc, pb, shift, pole_scale = series.receding
        settled, sums = _incoherent_pole(_cmul(base[~far], pc)/pb, shift,
                                         series.pole)
        lanes.settle(settled, sums/pole_scale)
    # (k/c)^n
    ratios = accumulate(repeat(series.ratio), operator.mul, initial=1.0 + 0j)

    def terms(n, ratio):
        x = _cmul(lanes.lane["base"] - n*step, c)/b_coef
        return ratio*expint_scaled(n + 1, x)/scale

    return lanes.run(terms, ratios, series.end, qubit.chi, "incoherent",
                     series.cap)


def qubit_response_thermal(omega_p, qubit: QubitParams,
                           params: SystemParams, flux: float, tau_c: float,
                           signal_omega: Optional[float] = None):
    """Probe-normalised response for a short-coherence (thermal) field.

    Bose factor nbar from the signal's line of half width 1/tau
    (`_lorentzian_fill`); the probe sideband sees the softened nbar_p from
    the same line at the complex half width 1/tau_p = (1 + i tau (omega_p -
    omega))/tau.  With
    S = sqrt(gc^2/4 + gc (2 nbar_p + 1) i chi - chi^2) (Re S >= 0) the
    response is a geometric double series over the poles
    omega_p^(n) = omega_j - i gamma_coh - i(2n+1) S - chi + i gc/2.

    Far from every pole (|S| small against omega_p - omega_p^(0), as on the
    counter-rotating branch) a lane takes the Euler transform of its series
    instead (`_thermal_far`), where its 24th term is below 2^-56 of its
    sum; every other lane sums the series.
    """
    # the state checks flux, tau_c and signal_omega
    line = Thermal(tau_c, flux=flux, signal_omega=signal_omega)
    chi, gc = qubit.chi, params.cavity.gamma_c
    omega = signal_frequency(line, params)
    lanes = _Lanes(omega_p)
    lane = lanes.lane
    wp = lane["wp"] = lanes.grid.ravel()
    nbar = _lorentzian_fill(line, params, 1.0/tau_c)[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        nbar_p = _lorentzian_fill(line, params,
                                  (1.0 + 1j*tau_c*(wp - omega))/tau_c)[2]
        s_root = np.sqrt(0.25*gc*gc + gc*(2.0*nbar_p + 1.0)*1j*chi - chi*chi)
        s_root = np.where(s_root.real < 0, -s_root, s_root)   # decaying poles
        v = 1.0 + (1j*chi - 0.5*gc - s_root)/(gc*(1.0 + nbar_p))
        r1 = 0.5*gc - s_root - 1j*chi
        q1 = 0.5*gc + s_root - 1j*chi
        r2 = gc*(v - nbar/(1.0 + nbar))*(1.0 + nbar_p)
        q2 = r2 + 2.0*s_root
        # one geometric factor f = (r1 r2/(q1 q2))^n, a running product:
        # |r1/q1| alone can exceed 1 and overflow long before f decays
        lane.update(s_root=s_root, prefactor=2.0*s_root*gc/(q1*q2),
                    rate=(r1/q1)*(r2/q2), f=np.ones(wp.shape, dtype=complex))
        pole0 = qubit.omega_q - 1j*qubit.gamma_coh
        # omega_p - omega_p^(0), with omega_p - omega_j formed first
        far, sums = _thermal_far(
            (wp - qubit.omega_q) + (chi + 1j*(qubit.gamma_coh - 0.5*gc))
            + 1j*s_root, 2j*s_root, lane["rate"])
        lanes.settle(far, lane["prefactor"]*sums)

        def factors():            # the next f, formed before lanes retire
            while True:
                f = lane["f"]
                lane["f"] = f*lane["rate"]
                yield f

        def terms(n, f):
            pole = pole0 - 1j*(2*n + 1)*lane["s_root"] - chi + 0.5j*gc
            return lane["prefactor"]/(lane["wp"] - pole)*f

        end = _geometric_end(np.abs(lane["rate"]).max(initial=0.0))
        return lanes.run(terms, factors(), end, chi, "thermal",
                         f"thermal response series cap at nbar={nbar:.3g}")


def response_function(params: SystemParams, sig: SignalState
                      ) -> Callable[[float, QubitParams], complex]:
    """Bind a signal state into the per-qubit response R(omega_p, qubit).

    omega_p is a probe frequency or an array of them, as for the kernels.
    Everything that depends on the state and the system only is formed
    here; a coherent or incoherent binding keeps each qubit's series
    constants from the first call on, so that both rotating branches and
    many lone probe points pay for them once.  A state replaced by
    `dataclasses.replace` binds anew.
    """
    return sig.response(params)


# ---------------------------------------------------------------------------
# Transmission assembly

def s21_signal(omega, params: SystemParams):
    """Transmission seen by the signal beam itself (near cavity resonance).

    omega is a frequency or an array of them; `s21_probe` takes this as its
    cavity term.
    """
    gc = params.cavity.gamma_c
    wcs = params.omega_c_star
    return (-0.5j*gc/(omega - wcs + 0.5j*gc)
            - 0.5j*gc/(omega + wcs + 0.5j*gc))


def s21_probe(omega_p, params: SystemParams, sig: SignalState,
              parts: Optional[dict] = None):
    """Probe transmission at omega_p for the given signal state.

    omega_p is one probe frequency (a complex comes back) or an array of
    them, evaluated in one pass: the signal state is bound once, and each
    distinct qubit's response is evaluated once and added once per qubit,
    in qubit order.  The responses are probe-normalised (linear response),
    so no probe amplitude enters.  When `parts` is a dict it receives the
    cavity term and one entry per qubit.
    """
    wp = np.asarray(omega_p, dtype=float)
    gc = params.cavity.gamma_c
    omega_c = params.cavity.omega_c
    respond = response_function(params, sig)
    cavity_term = s21_signal(wp, params)
    total = cavity_term
    if parts is not None:
        parts["cavity"] = cavity_term
    terms: dict = {}
    for idx, q in enumerate(params.qubits):
        if q not in terms:
            sigma_co = respond(wp, q)      # co-rotating
            sigma_counter = np.conj(respond(-wp, q))
            terms[q] = (0.5j*gc*sigma_co/(wp - omega_c + 0.5j*gc)
                        + 0.5j*gc*sigma_counter/(wp + omega_c + 0.5j*gc))
        total = total + terms[q]
        if parts is not None:
            parts[f"qubit_{idx}"] = terms[q]
    return total if wp.ndim else complex(total)


def comb_spectrum(omega_p, params: SystemParams, sig: SignalState,
                  nbar: Optional[float] = None):
    """Well-resolved-limit comb approximation of the probe transmission.

    -i gc/(2(omega_p - omega_c)) plus, per qubit and photon number n, a
    pole at omega_j + 2 chi n of weight P(n) gc chi/(2(omega_j - omega_c))
    and width Gamma_cav(n) + gamma_coh, as the signal state gives them,
    up to a total weight of 1 - 1e-10, else ConvergenceError: before the
    first sideband where the state's `min_sidebands` passes _SIDEBAND_CAP,
    or once the table holds _SIDEBAND_CAP sidebands; valid for gc << chi.
    It also needs 2 chi n/|omega_j - omega_c| small, unwarned: the full
    model weighs sideband n by about 1/(omega_j + 2 chi n - omega_c), so its
    fig1 coherent peaks n = 1, 2, 3 are 0.981, 0.962, 0.952 of the comb's.
    omega_p is a scalar or an array of probe points; the sideband table is
    built once, and a lone point is summed as a one-point grid, with the
    grid's bits.  A grid of few points takes _BLOCK_CELLS // points
    sidebands per array pass, where at least _BLOCK_MIN_ROWS fit, and adds
    them in order, with the bits of one sideband at a time.  nbar is the
    signal's in-cavity photon number when the caller already has it from
    `cavity_photon_number`.
    """
    grid = np.asarray(omega_p, dtype=float)
    wp = np.atleast_1d(grid)
    gc = params.cavity.gamma_c
    omega_c = params.cavity.omega_c
    if nbar is None:
        nbar, _ = cavity_photon_number(sig, params)
    min_chi = min((abs(q.chi) for q in params.qubits), default=math.inf)
    if gc > 0.2*min_chi:
        _warn(f"comb approximation needs gamma_c << chi (ratio {gc/min_chi:.2f})")
    sidebands = [(1.0, 0.0)]     # without photons every state is the vacuum
    if nbar > 0:
        needed = sig.min_sidebands(nbar)
        if needed > _SIDEBAND_CAP:
            raise ConvergenceError(
                f"comb sideband table cap: {_SIDEBAND_CAP} sidebands fall "
                f"short of a weight of 1 - 1e-10 at nbar={nbar:.3g}, which "
                f"needs more than {needed:.4g}")
        sidebands, cumulative = [], 0.0
        while cumulative < 1.0 - 1e-10:
            if len(sidebands) == _SIDEBAND_CAP:
                raise ConvergenceError(
                    f"comb sideband table cap: {_SIDEBAND_CAP} sidebands "
                    f"cover a weight of {cumulative:.10f}, short of 1 - 1e-10,"
                    f" at nbar={nbar:.3g}")
            sidebands.append(sig.sideband(len(sidebands), nbar, gc))
            cumulative += sidebands[-1][0]
    total = -0.5j*gc/(wp - omega_c)
    # a grid of few points takes `rows` sidebands per array pass
    rows = _BLOCK_CELLS//max(wp.size, 1)
    if rows >= _BLOCK_MIN_ROWS:
        weights, widths = np.array(sidebands).T[:, :, None]
        index = np.arange(len(sidebands))[:, None]
    for q in params.qubits:
        amp = 0.5j*gc*q.chi/(q.omega_q - omega_c)
        if rows < _BLOCK_MIN_ROWS:
            for n, (p_n, width) in enumerate(sidebands):
                total += amp*p_n/(wp - (q.omega_q + 2.0*q.chi*n
                                        - 1j*(width + q.gamma_coh)))
            continue
        for i in range(0, len(sidebands), rows):
            block = amp*weights[i:i + rows]/(
                wp - (q.omega_q + 2.0*q.chi*index[i:i + rows]
                      - 1j*(widths[i:i + rows] + q.gamma_coh)))
            # the running total joins the first row, and the rows add up in
            # order, as one sideband at a time does (a pairwise sum would not)
            block[0] += total
            total = np.add.accumulate(block, axis=0)[-1]
    return total if grid.ndim else complex(total[0])


# ---------------------------------------------------------------------------
# Sweeps and figures of merit

def sweep(params: SystemParams, sig: SignalState, omega_p_grid: Sequence[float],
          model: str = "full", with_components: bool = False) -> Spectrum:
    """Evaluate S21 over a probe grid; model is "full" or "comb".

    The whole grid goes through `s21_probe` (or `comb_spectrum`) in one
    call, with the series form of every response.  with_components adds the
    cavity term and one column per qubit to the full model.  A passive
    device transmits at most 1 within the rotating-wave approximation, and
    the counter-rotating cavity and qubit terms add at most gc/2/|omega_p +
    omega_c*| each; a full-model spectrum past 1 + gc/|omega_p + omega_c*|
    anywhere raises ConvergenceError naming the state, nbar and the worst
    point.  It marks a series that has lost its digits (fig3 coherent light
    at nbar 1000: |S21| of order 1e24).
    """
    if model not in ("full", "comb"):
        raise ValueError(f"unknown model {model!r}")
    if model == "comb" and with_components:
        raise ValueError("the comb model has no per-term components")
    grid = np.asarray(omega_p_grid, dtype=float)
    # the one photon-number lookup of a sweep, and so its one validity warning
    nbar, _ = cavity_photon_number(sig, params)
    components = {} if with_components else None
    if model == "comb":
        values = comb_spectrum(grid, params, sig, nbar)
    else:
        values = s21_probe(grid, params, sig, parts=components)
    state = type(sig).__name__.lower()
    if model == "full":
        # |S21| - 1 against the counter-rotating terms' gc/|omega_p + omega_c*|
        mags = np.abs(np.ravel(values))
        excess = (mags - 1.0)*np.abs(grid.ravel() + params.omega_c_star)
        if np.max(excess, initial=0.0) > params.cavity.gamma_c:
            worst = excess.argmax()
            raise ConvergenceError(
                f"{state} spectrum is not passive at nbar={nbar:.3g}: |S21| "
                f"= {mags[worst]:.3g} at omega_p = {grid.flat[worst]:.17g} rad/s")
    meta = {
        "model": model,
        "state": state,
        "nbar": nbar,
        "signal_omega_rad_s": signal_frequency(sig, params),
        "omega_c_rad_s": params.cavity.omega_c,
        "omega_c_star_rad_s": params.omega_c_star,
        "gamma_c_rad_s": params.cavity.gamma_c,
        "qubits": [{"omega_q_rad_s": q.omega_q, "chi_rad_s": q.chi,
                    "gamma_rad_s": q.gamma, "gamma_phi_rad_s": q.gamma_phi}
                   for q in params.qubits],
    }
    if isinstance(sig, Thermal):
        meta["tau_c_s"] = sig.tau_c
    return Spectrum(omega_p=grid, s21=values, components=components, meta=meta)


def figure_of_merit(spec_signal: Spectrum, spec_vacuum: Spectrum) -> np.ndarray:
    """Pointwise |S21_signal| / |S21_vacuum| on identical grids."""
    if not np.array_equal(spec_signal.omega_p, spec_vacuum.omega_p):
        raise ValueError("figure_of_merit requires identical probe grids")
    return np.abs(spec_signal.s21)/np.abs(spec_vacuum.s21)


def detuning_error(params: SystemParams, sig: SignalState,
                   detunings: Sequence[float],
                   omega_p_grid: Sequence[float]) -> dict[float, np.ndarray]:
    """Relative |S21| error against the zero-detuning spectrum.

    For each detuning d the signal is moved to omega_c* + d, keeping the
    flux or nbar it was given (given nbar, its flux grows with |d|), and
    e(omega_p) = ||S21(d)| - |S21(0)|| / |S21(0)| is returned.  The two
    magnitudes agree to about 1e-8, so e carries about 8 significant digits:
    a relative change of S21 in its last bit moves e 1e8 times as much.
    """
    gc = params.cavity.gamma_c
    for d in detunings:
        if abs(d) > gc:
            _warn(f"detuning {d:.3g} exceeds gamma_c")
    mags = {}
    for d in dict.fromkeys([0.0, *detunings]):     # one sweep per detuning
        shifted = replace(sig, signal_omega=params.omega_c_star + d)
        mags[d] = np.abs(sweep(params, shifted, omega_p_grid).s21)
    return {d: np.abs(mags[d] - mags[0.0])/mags[0.0] for d in detunings}
