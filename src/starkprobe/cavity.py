"""Bare two-gap resonator: complex mode spectrum and S-parameters.

The resonator is a transmission-line section of length L terminated by
identical gap capacitances C into semi-infinite lines (line capacitance
C' per length, wave speed c).  Scattering off the lossless structure is
unitary; the resonance poles follow from the Lambert W function, one
branch pair per mode index.  A transmon placed in the resonator gets its
qubit parameters and cavity coupling from the device (`derive_coupling`).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import POSITIVE, check_values
from .specfun import lambert_w, lambert_w_log

if TYPE_CHECKING:
    from .detector import QubitParams
    from .waveguide import WaveguideParams


@dataclass(frozen=True)
class ResonatorGeometry:
    length: float             # m
    gap_capacitance: float    # F, each end
    line_capacitance: float   # F/m
    velocity: float           # m/s

    def __post_init__(self):
        check_values(vars(self), length=POSITIVE, gap_capacitance=POSITIVE,
                     line_capacitance=POSITIVE, velocity=POSITIVE)

    @property
    def capacitance_ratio(self) -> float:
        """C/(C'L), the small parameter of the high-Q expansion."""
        return self.gap_capacitance/(self.line_capacitance*self.length)


@dataclass(frozen=True)
class CavityMode:
    n: int
    omega_n: float       # rad/s
    gamma_n: float       # rad/s, full width (half-width is gamma_n/2)
    q_factor: float

    def __post_init__(self):
        if self.gamma_n <= 0:
            raise ValueError(f"mode n={self.n} has non-positive width")


def _pole(n: int, x: float) -> complex:
    """Complex w solving the mode condition; x = C'L/(2C).

    The pole condition (1 - 2 i omega C/cC')^2 = exp(2 i L omega/c)
    reduces to u e^u = (-1)^n x e^x with u on Lambert branch n//2 for even
    n and (n-1)//2 for odd n (cut adhered from above); then
    omega_n = (c/L) Im u and gamma_n = (2c/L)(x - Re u).
    """
    branch = n//2 if n % 2 == 0 else (n - 1)//2
    if x < 600.0:
        u = lambert_w(branch, (-1.0)**n*x*math.exp(x))
    else:
        log_z = x + math.log(x) + (1j*math.pi if n % 2 else 0.0)
        u = lambert_w_log(branch, log_z)
    return u


# above this C/(C'L), x = C'L/(2C) < W0(1/e) and the mode-1 pole is real
# (omega_1 = 0): the mode is overdamped
_MAX_GAP_RATIO = 0.5/lambert_w(0, 1.0/math.e).real


def resonances(geom: ResonatorGeometry, n_max: int) -> list[CavityMode]:
    """Modes n = 1..n_max with exact Lambert-W frequencies and widths."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ratio = geom.capacitance_ratio
    if ratio >= _MAX_GAP_RATIO:
        raise ValueError(f"gap ratio C/(C'L) = {ratio:g} is not below "
                         f"{_MAX_GAP_RATIO:.6g}, where mode 1 is overdamped")
    x = 1.0/(2.0*ratio)
    scale = geom.velocity/geom.length
    modes = []
    for n in range(1, n_max + 1):
        u = _pole(n, x)
        omega_n = scale*u.imag
        gamma_n = 2.0*scale*(x - u.real)
        if x > 2e4:
            # float noise in x - Re u grows like eps x^3 while the error of
            # the leading expansion falls like 1/x; past the crossover the
            # expansion is the more accurate width
            gamma_n = 4.0*scale*(n*math.pi*ratio)**2
        if not gamma_n > omega_n/sys.float_info.max:
            # Q_n = 1/(4 n pi ratio^2) overflows below this ratio
            limit = 0.5/math.sqrt(n*math.pi)/math.sqrt(sys.float_info.max)
            raise ValueError(f"gap ratio C/(C'L) = {ratio:g} is so small that "
                             f"the width of mode {n} underflows (Q_n must stay "
                             f"finite, which needs a ratio above {limit:.3g})")
        modes.append(CavityMode(n=n, omega_n=omega_n, gamma_n=gamma_n,
                                q_factor=omega_n/gamma_n))
    return modes


def bare_s_params(geom: ResonatorGeometry, omega: float) -> tuple[complex, complex]:
    """(S21, S11) of the empty resonator at angular frequency omega.

    S21 = (2 i omega C/cC')^2 / [(1 - 2 i omega C/cC')^2 - e^(2 i L omega/c)]
    and the matching S11; |S21|^2 + |S11|^2 = 1 exactly (lossless).
    """
    if omega == 0:
        raise ValueError("omega must be non-zero")
    phase = geom.length*omega/geom.velocity
    t = 2.0*omega*geom.gap_capacitance/(geom.velocity*geom.line_capacitance)
    den = (1.0 - 1j*t)**2 - cmath.exp(2j*phase)
    s21 = -t*t/den
    s11 = 2j*(t*math.cos(phase) + math.sin(phase))/den
    return s21, s11


E_CHARGE = 1.602176634e-19
HBAR = 1.054571817e-34


def derive_coupling(josephson_energy: float, capacitance: float,
                    flux_fraction: float, position: float,
                    line: WaveguideParams, cav: ResonatorGeometry,
                    gamma_phi: float = 0.0) -> tuple[QubitParams, float]:
    """(qubit, g): the transmon's parameters from the physical block, and its
    cavity coupling g, whose sign chi drops.

    omega_q = sqrt(4 e^2 E_J/C)/hbar - e^2/(2 hbar C), the line coupling
    kappa = (2e/hbar) f sqrt(E_J omega_q/(2 c C')) with c, C' the effective
    line speed and capacitance, g = kappa cos(pi l/L)/sqrt(pi), and
    chi = g^2/(omega_q - omega_c) against the first cavity mode.
    The non-line decay defaults to gamma = kappa^2/omega_q.
    """
    from .detector import QubitParams, _warn
    e_c = E_CHARGE**2/(2.0*capacitance)
    if e_c/josephson_energy > 0.1:
        _warn(f"E_C/E_J = {e_c/josephson_energy:.3f} > 0.1: "
              "outside the transmon regime")
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
        _warn("detuning below 10 g: dispersive validity is marginal")
    chi = g*g/(omega_q - omega_c)
    return QubitParams(omega_q=omega_q, chi=chi, gamma=kappa**2/omega_q,
                       gamma_phi=gamma_phi), g


def derive_qubit(*args, **kwargs) -> QubitParams:
    """The qubit of `derive_coupling`, which takes the same arguments."""
    return derive_coupling(*args, **kwargs)[0]


def position_coupling(kappa: float, position: float, length: float) -> float:
    """Cavity coupling g = kappa cos(pi l/L)/sqrt(pi) at position l."""
    return kappa*math.cos(math.pi*position/length)/math.sqrt(math.pi)
