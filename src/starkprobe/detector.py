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
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cavity import ResonatorGeometry, resonances
from .specfun import ConvergenceError, expint_scaled
from .waveguide import WaveguideParams

E_CHARGE = 1.602176634e-19
HBAR = 1.054571817e-34

# series truncation: stop once the last 3 terms each fall below
# _TERM_RTOL of the accumulated magnitude; hard cap _TERM_CAP
_TERM_RTOL = 1e-12
_TERM_CAP = 5000
# while few lanes remain, a series takes a block of terms per array pass:
# at most _BLOCK_ROWS terms and _BLOCK_CELLS terms x lanes, and one term at
# a time where a block would be shorter than _BLOCK_MIN_ROWS.  A lane's last
# block computes terms past its stop.
_BLOCK_ROWS = 64
_BLOCK_CELLS = 1024
_BLOCK_MIN_ROWS = 8


# ---------------------------------------------------------------------------
# Parameter containers

@dataclass(frozen=True)
class QubitParams:
    omega_q: float        # rad/s
    chi: float            # rad/s, per-photon Stark shift
    gamma: float          # rad/s, decay into non-line channels
    gamma_phi: float      # rad/s, pure dephasing

    def __post_init__(self):
        if self.chi == 0:
            raise ValueError("chi must be non-zero")
        if self.gamma < 0 or self.gamma_phi < 0:
            raise ValueError("decay rates must be non-negative")

    @property
    def gamma_coh(self) -> float:
        """Coherence decay gamma/2 + gamma_phi entering every line width."""
        return 0.5*self.gamma + self.gamma_phi


@dataclass(frozen=True)
class CavityParams:
    omega_c: float        # rad/s
    gamma_c: float        # rad/s

    def __post_init__(self):
        if self.gamma_c <= 0:
            raise ValueError("gamma_c must be positive")


@dataclass(frozen=True)
class SystemParams:
    cavity: CavityParams
    qubits: tuple[QubitParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))

    @property
    def omega_c_star(self) -> float:
        """Dressed cavity frequency omega_c - sum_j chi_j."""
        return self.cavity.omega_c - sum(q.chi for q in self.qubits)


# Signal states.  Each owns its in-cavity (nbar, beta), its bound per-qubit
# response and its comb sidebands (weight, cavity-induced width): Poisson
# weights for coherent light, geometric (Bose) ones for incoherent and
# thermal light.

def _lorentzian_fill(sig, params: SystemParams) -> tuple[float, float, float]:
    """(delta, flux, nbar) of a flux filling the cavity Lorentzian.

    nbar = (gc J/2)/((omega - omega_c*)^2 + gc^2/4), so nbar = 2J/gc on
    resonance; a state given by nbar gets the flux that yields it.
    """
    delta = signal_frequency(sig, params) - params.omega_c_star
    gc = params.cavity.gamma_c
    lor = delta*delta + 0.25*gc*gc
    flux = sig.flux if sig.flux is not None else sig.nbar*lor/(0.5*gc)
    return delta, flux, 0.5*gc*flux/lor


def _bose_weight(n: int, nbar: float) -> float:
    """Geometric photon-number weight nbar^n/(nbar + 1)^(n+1)."""
    return math.exp(n*math.log(nbar) - (n + 1)*math.log(nbar + 1.0))


@dataclass(frozen=True)
class Coherent:
    flux: Optional[float] = None     # photons/s
    nbar: Optional[float] = None     # in-cavity mean photon number
    signal_omega: Optional[float] = None

    def __post_init__(self):
        _check_signal(self)

    def photon_number(self, params: SystemParams) -> tuple[float, complex]:
        """(nbar, beta), beta real positive at zero detuning."""
        delta, flux, nbar = _lorentzian_fill(self, params)
        gc = params.cavity.gamma_c
        return nbar, 1j*math.sqrt(0.5*gc*flux)/(delta + 0.5j*gc)

    def response(self, params: SystemParams) -> Callable:
        _, beta = self.photon_number(params)
        omega = signal_frequency(self, params)
        return lambda wp, q: qubit_response_coherent(wp, q, params, beta, omega)

    def sideband(self, n: int, nbar: float, gamma_c: float) -> tuple[float, float]:
        return (math.exp(-nbar + n*math.log(nbar) - math.lgamma(n + 1)),
                0.5*(n + nbar)*gamma_c)


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
        return _lorentzian_fill(self, params)[2], None

    def response(self, params: SystemParams) -> Callable:
        nbar, _ = self.photon_number(params)
        if nbar == 0:
            return Vacuum(signal_omega=self.signal_omega).response(params)
        omega = signal_frequency(self, params)
        return lambda wp, q: qubit_response_incoherent(wp, q, params, nbar, omega)

    def sideband(self, n: int, nbar: float, gamma_c: float) -> tuple[float, float]:
        return _bose_weight(n, nbar), 0.5*n*gamma_c


@dataclass(frozen=True)
class Thermal:
    tau_c: float                     # s, signal coherence time
    flux: Optional[float] = None
    nbar: Optional[float] = None
    signal_omega: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.tau_c < math.inf:
            raise ValueError("tau_c must be positive and finite")
        _check_signal(self)

    def _flux(self, params: SystemParams) -> tuple[float, float]:
        """(flux, lor) with lor = (omega - omega_c*)^2 + 1/tau_c^2."""
        delta = signal_frequency(self, params) - params.omega_c_star
        lor = delta*delta + 1.0/self.tau_c**2
        return (self.flux if self.flux is not None
                else self.nbar*lor*self.tau_c), lor

    def photon_number(self, params: SystemParams) -> tuple[float, None]:
        """The thermal line gives nbar = (J/tau)/lor = tau J on resonance.

        Warns where gamma_c tau_c > 0.1, outside the short-coherence regime
        that the thermal photon number, response and sidebands assume; the
        response kernel does not warn again.
        """
        gc = params.cavity.gamma_c
        if self.tau_c*gc > 0.1:
            warnings.warn(f"gamma_c tau_c = {self.tau_c*gc:.3f} > 0.1: thermal "
                          "model assumes a short coherence time", stacklevel=3)
        flux, lor = self._flux(params)
        return flux/(self.tau_c*lor), None

    def response(self, params: SystemParams) -> Callable:
        flux, _ = self._flux(params)
        omega = signal_frequency(self, params)
        return lambda wp, q: qubit_response_thermal(wp, q, params, flux,
                                                    self.tau_c, omega)

    def sideband(self, n: int, nbar: float, gamma_c: float) -> tuple[float, float]:
        return _bose_weight(n, nbar), ((2.0*nbar + 1.0)*n + nbar)*gamma_c


SignalState = Union[Vacuum, Coherent, Incoherent, Thermal]


def _check_signal(sig):
    if (sig.flux is None) == (sig.nbar is None):
        raise ValueError("give exactly one of flux or nbar")
    for name, value in (("flux", sig.flux), ("nbar", sig.nbar)):
        if value is not None and not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and non-negative")
    if sig.signal_omega is not None and not math.isfinite(sig.signal_omega):
        raise ValueError("signal_omega must be finite")


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
# Parameter derivation

def derive_qubit(josephson_energy: float, capacitance: float,
                 flux_fraction: float, position: float,
                 line: WaveguideParams, cav: ResonatorGeometry,
                 gamma_phi: float = 0.0) -> QubitParams:
    """Transmon parameters from the physical block.

    omega_q = sqrt(4 e^2 E_J/C)/hbar - e^2/(2 hbar C), the line coupling
    kappa = (2e/hbar) f sqrt(E_J omega_q/(2 c C')) with c, C' the effective
    line speed and capacitance, g = kappa cos(pi l/L)/sqrt(pi), and
    chi = g^2/(omega_q - omega_c) against the first cavity mode.
    The non-line decay defaults to gamma = kappa^2/omega_q.
    """
    e_c = E_CHARGE**2/(2.0*capacitance)
    if e_c/josephson_energy > 0.1:
        warnings.warn(f"E_C/E_J = {e_c/josephson_energy:.3f} > 0.1: "
                      "outside the transmon regime", stacklevel=2)
    omega_q = (math.sqrt(4.0*E_CHARGE**2*josephson_energy/capacitance)
               - e_c)/HBAR
    kappa = (2.0*E_CHARGE/HBAR)*flux_fraction*math.sqrt(
        josephson_energy*omega_q/(2.0*line.v*line.c_eff))
    g = position_coupling(kappa, position, cav.length)
    omega_c = resonances(cav, 1)[0].omega_n
    if omega_q == omega_c:
        raise ZeroDivisionError("omega_q equals omega_c: dispersive "
                                "approximation breaks down")
    if g != 0 and abs(omega_q - omega_c) < 10.0*abs(g):
        warnings.warn("detuning below 10 g: dispersive validity is marginal",
                      stacklevel=2)
    chi = g*g/(omega_q - omega_c)
    return QubitParams(omega_q=omega_q, chi=chi,
                       gamma=kappa**2/omega_q, gamma_phi=gamma_phi)


def position_coupling(kappa: float, position: float, length: float) -> float:
    """Cavity coupling g = kappa cos(pi l/L)/sqrt(pi) at position l."""
    return kappa*math.cos(math.pi*position/length)/math.sqrt(math.pi)


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
    follows the points still summing; `active` holds their grid indices.
    The terms come one per call (`add`) or, while few lanes are left, a
    block of `rows()` terms per call (`add_block`), with the same sums.
    """

    def __init__(self, omega_p):
        self.grid = np.asarray(omega_p, dtype=float)
        size = self.grid.size
        self.active = np.arange(size)
        self.total = np.zeros(size, dtype=complex)
        # whether the last term and the one before were small
        self.small1 = self.small2 = np.zeros(size, dtype=bool)
        self.out = np.empty(size, dtype=complex)

    def add(self, term, stop: bool = True) -> Optional[np.ndarray]:
        """Add one term per active lane and retire the converged lanes.

        Returns the mask of lanes kept, for the caller to compact its own
        per-lane arrays, or None when no lane finished.
        """
        self.total += term
        if not stop:
            return None
        small = np.abs(term) < _TERM_RTOL*np.maximum(np.abs(self.total), 1e-300)
        done = small & self.small1 & self.small2
        self.small1, self.small2 = small, self.small1
        if not np.count_nonzero(done):
            return None
        self.out[self.active[done]] = self.total[done]
        return self._retire(done)

    def add_block(self, terms: np.ndarray, stop: np.ndarray) -> Optional[np.ndarray]:
        """`add` for one row of terms after another, in one array pass.

        terms has one row per series term and one column per active lane,
        stop[j] is `add`'s flag for row j.  The sums, the rows at which the
        lanes stop and the mask returned are those of successive `add` calls.
        """
        totals = np.add.accumulate(np.concatenate((self.total[None], terms)))[1:]
        self.total = totals[-1]
        checked = stop.nonzero()[0]
        if not checked.size:
            return None
        small = (np.abs(terms[checked])
                 < _TERM_RTOL*np.maximum(np.abs(totals[checked]), 1e-300))
        flags = np.concatenate((self.small2[None], self.small1[None], small))
        done = flags[2:] & flags[1:-1] & flags[:-2]
        self.small1, self.small2 = flags[-1], flags[-2]
        finished = done.any(axis=0)
        if not np.count_nonzero(finished):
            return None
        # a lane keeps its total at the first row where it stopped
        lanes = finished.nonzero()[0]
        first = checked[done[:, lanes].argmax(axis=0)]
        self.out[self.active[lanes]] = totals[first, lanes]
        return self._retire(finished)

    def _retire(self, done: np.ndarray) -> np.ndarray:
        keep = ~done
        self.active, self.total, self.small1, self.small2 = (
            self.active[keep], self.total[keep], self.small1[keep],
            self.small2[keep])
        return keep

    def rows(self, n: int, end: int = _TERM_CAP) -> int:
        """Terms to take in the next array pass, from term n on.

        A block reaches no further than term `end`, the caller's estimate
        of where its series stops, nor past _TERM_CAP.
        """
        rows = min(_BLOCK_ROWS, _BLOCK_CELLS//self.active.size,
                   min(end, _TERM_CAP) - n)
        return rows if rows >= _BLOCK_MIN_ROWS else 1

    def result(self, scale: float, state: str):
        """The finished sums times scale, in the grid's shape."""
        values = self.out*scale
        bad = (~np.isfinite(values)).nonzero()[0]
        if bad.size:
            raise _not_finite(state, self.grid.flat[bad[0]])
        if self.grid.ndim == 0:
            return complex(values[0])
        return values.reshape(self.grid.shape)

    def cap_error(self, state: str, message: str) -> ConvergenceError:
        """Error for lanes still summing at _TERM_CAP terms."""
        bad = self.active[~np.isfinite(self.total)]
        if bad.size:
            return _not_finite(state, self.grid.flat[bad[0]])
        return ConvergenceError(message)


def _not_finite(state: str, omega_p: float) -> ConvergenceError:
    return ConvergenceError(f"{state} response is not finite at "
                            f"omega_p = {float(omega_p):.17g} rad/s")


def _cmul(x, y):
    """x*y formed from real parts, unfused.

    numpy's array complex multiply may fuse the products (FMA) and round the
    last bit differently from a scalar product; the expint series amplifies
    such a bit ten-thousandfold.
    """
    return (x.real*y.real - x.imag*y.imag) + 1j*(x.real*y.imag + x.imag*y.real)


def qubit_response_coherent(omega_p, qubit: QubitParams,
                            params: SystemParams, beta: complex,
                            signal_omega: Optional[float] = None):
    """Probe-normalised dipole response with a coherent field beta.

    Series form: chi e^-W sum_n W^n/n! / D_n with
    W = 4 chi^2 |beta|^2 / w^2,  w = omega_c* + 2 chi - omega - i gc/2,
    D_n = omega_p - omega_j - 2 chi(|beta|^2 + n)
          - n (omega_c* - omega - i gc/2) + i gamma_coh
          + 4 chi^2 |beta|^2 / w.
    """
    chi, gc = qubit.chi, params.cavity.gamma_c
    omega = params.omega_c_star if signal_omega is None else signal_omega
    w = params.omega_c_star + 2.0*chi - omega - 0.5j*gc
    beta2 = abs(beta)**2
    big_w = 4.0*chi*chi*beta2/(w*w)
    lanes = _Lanes(omega_p)
    base = (lanes.grid.ravel() - qubit.omega_q - 2.0*chi*beta2
            + 1j*qubit.gamma_coh + 4.0*chi*chi*beta2/w)
    step = 2.0*chi + (params.omega_c_star - omega - 0.5j*gc)
    # scaled Poisson accumulation: amp*exp(logscale) = e^-W W^n/n!
    logscale = -big_w
    amp = 1.0 + 0j
    n = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while n < _TERM_CAP:
            if not lanes.active.size:
                return lanes.result(chi, "coherent")
            weights = []
            for m in range(n, n + lanes.rows(n)):
                weights.append(amp*cmath.exp(logscale))
                amp *= big_w/(m + 1)
                if abs(amp) > 1e250:
                    logscale += math.log(abs(amp))
                    amp /= abs(amp)
            if len(weights) == 1:
                keep = lanes.add(weights[0]/(base - n*step), n >= abs(big_w))
            else:
                ns = np.arange(n, n + len(weights))
                keep = lanes.add_block(
                    np.array(weights)[:, None]/(base - ns[:, None]*step),
                    ns >= abs(big_w))
            if keep is not None:
                base = base[keep]
            n += len(weights)
    raise lanes.cap_error("coherent", "coherent response series cap: "
                          f"nbar={beta2:.3g}, |W|={abs(big_w):.3g}")


def qubit_response_incoherent(omega_p, qubit: QubitParams,
                              params: SystemParams, nbar: float,
                              signal_omega: Optional[float] = None):
    """Probe-normalised response for an incoherent (phase-less) field.

    Gaussian-weighted integral of the coherent response over |beta|^2,
    carried out exactly term by term:

        chi sum_n (1/nbar) (k/c)^n e^(x_n) E_(n+1)(x_n) / B,
        k = 4 chi^2/w^2,  c = 1/nbar + k,  B = -(2 chi - 4 chi^2/w),
        x_n = c (omega_p - omega_j + i gamma_coh - n step)/B,

    with w, step as in the coherent series.  The product e^x E_(n+1)(x)
    equals x^n U(n+1, n+1, x) and is evaluated in scaled form.
    """
    if nbar <= 0:
        raise ValueError("incoherent response needs nbar > 0")
    chi, gc = qubit.chi, params.cavity.gamma_c
    omega = params.omega_c_star if signal_omega is None else signal_omega
    w = params.omega_c_star + 2.0*chi - omega - 0.5j*gc
    k = 4.0*chi*chi/(w*w)
    c = 1.0/nbar + k
    b_coef = -(2.0*chi - 4.0*chi*chi/w)
    step = 2.0*chi + (params.omega_c_star - omega - 0.5j*gc)
    lanes = _Lanes(omega_p)
    base = lanes.grid.ravel() - qubit.omega_q + 1j*qubit.gamma_coh
    pole = (base == 0).nonzero()[0]
    if pole.size:
        # x_0 = 0, where e^x E_1(x) diverges
        raise _not_finite("incoherent", lanes.grid.flat[pole[0]])
    # the terms fall off about like |k/c|^n, so the series stops near the
    # term where that drops below _TERM_RTOL; no block reaches past it, and
    # a short series (fig4: 5 terms) runs one term at a time instead of
    # paying for a block of terms past its stop
    decay = abs(k/c)
    end = (3 + int(math.log(_TERM_RTOL)/math.log(decay)) if 0 < decay < 1
           else _TERM_CAP)
    ratio = 1.0 + 0j      # (k/c)^n
    n = 0
    while n < _TERM_CAP:
        if not lanes.active.size:
            return lanes.result(chi, "incoherent")
        ratios = []
        for _ in range(lanes.rows(n, end)):
            ratios.append(ratio)
            ratio *= k/c
        if len(ratios) == 1:
            x_n = _cmul(base - n*step, c)/b_coef
            keep = lanes.add(ratios[0]*expint_scaled(n + 1, x_n)/(nbar*b_coef))
        else:
            ns = np.arange(n, n + len(ratios))
            x = _cmul(base - ns[:, None]*step, c)/b_coef
            keep = lanes.add_block(
                np.array(ratios)[:, None]*expint_scaled((ns + 1)[:, None], x)
                / (nbar*b_coef), np.ones(len(ratios), dtype=bool))
        if keep is not None:
            base = base[keep]
        n += len(ratios)
    raise lanes.cap_error("incoherent",
                          f"incoherent response series cap at nbar={nbar:.3g}")


def qubit_response_thermal(omega_p, qubit: QubitParams,
                           params: SystemParams, flux: float, tau_c: float,
                           signal_omega: Optional[float] = None):
    """Probe-normalised response for a short-coherence (thermal) field.

    Bose factor nbar = (J/tau)/((omega-omega_c*)^2 + 1/tau^2); the probe
    sideband sees the softened nbar_p = nbar evaluated at the complex
    tau_p = tau/(1 + i tau (omega_p - omega)).  With
    S = sqrt(gc^2/4 + gc (2 nbar_p + 1) i chi - chi^2) (Re S >= 0) the
    response is a geometric double series over the poles
    omega_p^(n) = omega_j - i gamma_coh - i(2n+1) S - chi + i gc/2.
    """
    if flux < 0:
        raise ValueError("flux must be non-negative")
    chi, gc = qubit.chi, params.cavity.gamma_c
    omega = params.omega_c_star if signal_omega is None else signal_omega
    lanes = _Lanes(omega_p)
    wp = lanes.grid.ravel()
    delta = omega - params.omega_c_star
    nbar = (flux/tau_c)/(delta*delta + 1.0/tau_c**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau_p = tau_c/(1.0 + 1j*tau_c*(wp - omega))
        nbar_p = (flux/tau_p)/(delta*delta + 1.0/(tau_p*tau_p))
        s_root = np.sqrt(0.25*gc*gc + gc*(2.0*nbar_p + 1.0)*1j*chi - chi*chi)
        s_root = np.where(s_root.real < 0, -s_root, s_root)   # decaying poles
        v = 1.0 + (1j*chi - 0.5*gc - s_root)/(gc*(1.0 + nbar_p))
        r1 = 0.5*gc - s_root - 1j*chi
        q1 = 0.5*gc + s_root - 1j*chi
        r2 = gc*(v - nbar/(1.0 + nbar))*(1.0 + nbar_p)
        q2 = r2 + 2.0*s_root
        # one geometric factor (r1 r2/(q1 q2))^n: |r1/q1| alone can exceed 1
        # and overflow long before the product decays
        rate = (r1/q1)*(r2/q2)
        prefactor = 2.0*s_root*gc/(q1*q2)
        pole0 = qubit.omega_q - 1j*qubit.gamma_coh
        f = np.ones(wp.shape, dtype=complex)
        for n in range(_TERM_CAP):
            if not lanes.active.size:
                return lanes.result(chi, "thermal")
            pole = pole0 - 1j*(2*n + 1)*s_root - chi + 0.5j*gc
            keep = lanes.add(prefactor/(wp - pole)*f)
            f = f*rate
            if keep is not None:
                wp, s_root, prefactor, rate, f = (
                    a[keep] for a in (wp, s_root, prefactor, rate, f))
    raise lanes.cap_error("thermal",
                          f"thermal response series cap at nbar={nbar:.3g}")


def response_function(params: SystemParams, sig: SignalState
                      ) -> Callable[[float, QubitParams], complex]:
    """Bind a signal state into the per-qubit response R(omega_p, qubit).

    omega_p is a probe frequency or an array of them, as for the kernels.
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
    up to a total weight of 1 - 1e-10; valid for gc << chi.  omega_p is a
    scalar or an array of probe points; the sideband table is built once.
    nbar is the signal's in-cavity photon number when the caller already
    has it from `cavity_photon_number`.
    """
    wp = np.asarray(omega_p, dtype=float)
    gc = params.cavity.gamma_c
    omega_c = params.cavity.omega_c
    if nbar is None:
        nbar, _ = cavity_photon_number(sig, params)
    min_chi = min((abs(q.chi) for q in params.qubits), default=math.inf)
    if gc > 0.2*min_chi:
        warnings.warn(f"comb approximation needs gamma_c << chi "
                      f"(ratio {gc/min_chi:.2f})", stacklevel=2)
    sidebands = [(1.0, 0.0)]     # without photons every state is the vacuum
    if nbar > 0:
        sidebands, cumulative = [], 0.0
        while cumulative < 1.0 - 1e-10 and len(sidebands) < 100000:
            sidebands.append(sig.sideband(len(sidebands), nbar, gc))
            cumulative += sidebands[-1][0]
    total = -0.5j*gc/(wp - omega_c)
    for q in params.qubits:
        amp = 0.5j*gc*q.chi/(q.omega_q - omega_c)
        for n, (p_n, width) in enumerate(sidebands):
            total += amp*p_n/(wp - (q.omega_q + 2.0*q.chi*n
                                    - 1j*(width + q.gamma_coh)))
    return total if wp.ndim else complex(total)


# ---------------------------------------------------------------------------
# Sweeps and figures of merit

def sweep(params: SystemParams, sig: SignalState, omega_p_grid: Sequence[float],
          model: str = "full", with_components: bool = False) -> Spectrum:
    """Evaluate S21 over a probe grid; model is "full" or "comb".

    The whole grid goes through `s21_probe` (or `comb_spectrum`) in one
    call, with the series form of every response.  with_components adds the
    cavity term and one column per qubit to the full model.
    """
    if model not in ("full", "comb"):
        raise ValueError(f"unknown model {model!r}")
    grid = np.asarray(omega_p_grid, dtype=float)
    # the one photon-number lookup of a sweep, and so its one validity warning
    nbar, _ = cavity_photon_number(sig, params)
    components: Optional[dict] = None
    if model == "comb":
        values = comb_spectrum(grid, params, sig, nbar)
    else:
        components = {} if with_components else None
        values = s21_probe(grid, params, sig, parts=components)
    meta = {
        "model": model,
        "state": type(sig).__name__.lower(),
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

    For each detuning d the signal is moved to omega_c* + d (same flux)
    and e(omega_p) = ||S21(d)| - |S21(0)|| / |S21(0)| is returned.
    """
    gc = params.cavity.gamma_c
    for d in detunings:
        if abs(d) > gc:
            warnings.warn(f"detuning {d:.3g} exceeds gamma_c", stacklevel=2)
    mags = {}
    for d in dict.fromkeys([0.0, *detunings]):     # one sweep per detuning
        shifted = replace(sig, signal_omega=params.omega_c_star + d)
        mags[d] = np.abs(sweep(params, shifted, omega_p_grid).s21)
    return {d: np.abs(mags[d] - mags[0.0])/mags[0.0] for d in detunings}
