"""Read-only parameter presets for the published spectra and line models.

Figure presets carry the caption parameter sets verbatim (frequencies are
plain cycles-per-second values times 2 pi).  The quoted linewidth
combination gamma + 2 gamma_phi enters every formula only through
gamma/2 + gamma_phi, so it is split as gamma = combination, gamma_phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .cavity import ResonatorGeometry
from .detector import CavityParams, QubitParams, SystemParams
from .waveguide import CpwGeometry


@dataclass(frozen=True)
class FigurePreset:
    n_qubits: int
    omega_q: float
    omega_c: float
    chi: float
    gamma_c: float
    gamma: float          # split: full quoted gamma + 2 gamma_phi
    gamma_phi: float
    nbar: float
    tau_c: Optional[float] = None          # thermal coherence time, s
    tau_c_choices: tuple = ()              # alternatives swept by the figure
    detunings_frac: tuple = ()             # signal detunings in units of gamma_c

    def system(self) -> SystemParams:
        qubit = QubitParams(omega_q=self.omega_q, chi=self.chi,
                            gamma=self.gamma, gamma_phi=self.gamma_phi)
        return SystemParams(cavity=CavityParams(self.omega_c, self.gamma_c),
                            qubits=(qubit,)*self.n_qubits)

    def probe_grid_default(self, n_points: int = 2001):
        import numpy as np
        span = 50.0*max(self.chi, 0.5*self.gamma + self.gamma_phi)
        return np.linspace(self.omega_q - span, self.omega_q + span, n_points)


def _preset(*, n_qubits=1, chi, gamma_c, nbar=1.0, tau_c=None,
            tau_c_choices=(), detunings_frac=()):
    return FigurePreset(
        n_qubits=n_qubits,
        omega_q=math.tau*10e9, omega_c=math.tau*9e9,
        chi=chi, gamma_c=gamma_c,
        gamma=math.tau*250e3, gamma_phi=0.0,
        nbar=nbar, tau_c=tau_c, tau_c_choices=tau_c_choices,
        detunings_frac=detunings_frac)


# The thermal coherence times keep both gamma_c tau_c and the probe-signal
# beat tau_c |omega_p - omega| deep in the short-coherence regime the
# closed-form widths assume.
FIGURES: dict[str, FigurePreset] = {
    "fig1": _preset(chi=math.tau*10e6, gamma_c=math.tau*100e3,
                    tau_c=1e-12),
    "fig2": _preset(chi=math.tau*10e6, gamma_c=math.tau*1e6,
                    tau_c=1e-12),
    "fig2bis": _preset(chi=math.tau*1e6, gamma_c=math.tau*100e3,
                       tau_c=1e-12),
    "fig3": _preset(chi=math.tau*1e6, gamma_c=math.tau*1e6,
                    tau_c=1e-12),
    "fig4": _preset(chi=math.tau*100e3, gamma_c=math.tau*500e6,
                    tau_c=1e-14),
    "fig5": _preset(chi=math.tau*1e6, gamma_c=math.tau*1e6, nbar=2.0,
                    tau_c=1e-12),
    "fig5q": _preset(n_qubits=5, chi=math.tau*1e6, gamma_c=math.tau*1e6,
                     tau_c=1e-12),
    "fig6": _preset(chi=math.tau*1e6, gamma_c=math.tau*100e3, nbar=2.0,
                    tau_c=1e-12),
    "fig7": _preset(chi=math.tau*1e6, gamma_c=math.tau*100e3,
                    tau_c=1e-9/math.tau,
                    tau_c_choices=(1e-12/math.tau, 1e-9/math.tau, 1e-8/math.tau)),
    "fig10": _preset(chi=math.tau*1e6, gamma_c=math.tau*100e3,
                     detunings_frac=(-1.0/3.0, 1.0/3.0)),
}


# Reference CPW line geometries.  The published line-constant table is
# reproduced by an effective gap of 7.5 um (conformal modulus k0 = 0.40);
# the nominal fabrication gap of 6.6 um (k0 = 0.431) shifts every column
# by about 4%.  TABLE_GEOMETRY pins the effective value so the table rows
# come out as published.
TABLE_GEOMETRY = CpwGeometry(w=10e-6, s=7.5e-6, h1=500e-6, h2=550e-9,
                             eps1_rel=11.6, eps2_rel=3.78)
NOMINAL_GEOMETRY = CpwGeometry(w=10e-6, s=6.6e-6, h1=500e-6, h2=550e-9,
                               eps1_rel=11.6, eps2_rel=3.78)

TABLE_ROWS = {
    # columns: C' [F/m], v/c, eps_eff, L' [H/m], C_eff [F/m], Z, Z_static
    "two_half_planes": (1.55e-10, 0.398, 6.30, 8.32e-7, 0.84e-10, 99.4, 73.0),
    "eps2_eq_eps1":    (1.54e-10, 0.409, 5.99, 4.54e-7, 1.47e-10, 55.6, 54.3),
    "full":            (1.44e-10, 0.434, 5.30, 2.36e-7, 2.49e-10, 30.8, 40.5),
}


def resonator_preset(capacitance_ratio: float, length: float = 0.02,
                     line_capacitance: float = 1.6e-10,
                     velocity: float = 1.2e8) -> ResonatorGeometry:
    """Resonator with a chosen C/(C'L); defaults give a cm-scale device."""
    return ResonatorGeometry(
        length=length,
        gap_capacitance=capacitance_ratio*line_capacitance*length,
        line_capacitance=line_capacitance,
        velocity=velocity)
