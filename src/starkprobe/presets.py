"""Read-only parameter presets for the published spectra and line models.

Figure presets carry the caption parameter sets verbatim (frequencies are
plain cycles-per-second values times 2 pi).  The quoted linewidth
combination gamma + 2 gamma_phi enters every formula only through
gamma/2 + gamma_phi, so it is split as gamma = combination, gamma_phi = 0.

Grids follow one rule, `linspace`, on Python floats; of the functions here
only `FigurePreset.probe_grid_default`, which returns an array, imports
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .config import COUNT, FINITE, POSITIVE, ConfigError, check_values

if TYPE_CHECKING:
    import numpy as np

    from .atom import AtomParams
    from .cavity import ResonatorGeometry
    from .detector import SystemParams


@dataclass(frozen=True, kw_only=True)
class FigurePreset:
    """A spectrum run: system, signal defaults and probe grid; the defaults
    are the values every caption shares."""
    chi: float
    gamma_c: float
    n_qubits: int = 1
    omega_q: float = math.tau*10e9
    omega_c: float = math.tau*9e9
    gamma: float = math.tau*250e3          # split: full quoted gamma + 2 gamma_phi
    gamma_phi: float = 0.0
    nbar: float = 1.0
    tau_c: Optional[float] = None          # thermal coherence time, s
    tau_c_choices: tuple = ()              # alternatives swept by the figure
    detunings_frac: tuple = ()             # signal detunings in units of gamma_c
    probe_center: Optional[float] = None   # rad/s, else omega_q
    probe_span: Optional[float] = None     # rad/s, else 50 max(|chi|, linewidth)

    def __post_init__(self):
        check_values(vars(self), n_qubits=COUNT, probe_center=FINITE,
                     probe_span=POSITIVE)

    def system(self) -> SystemParams:
        from .detector import CavityParams, QubitParams, SystemParams
        qubit = QubitParams(omega_q=self.omega_q, chi=self.chi,
                            gamma=self.gamma, gamma_phi=self.gamma_phi)
        return SystemParams(cavity=CavityParams(self.omega_c, self.gamma_c),
                            qubits=(qubit,)*int(self.n_qubits))

    def probe_grid_default(self, n_points: int = 2001) -> np.ndarray:
        import numpy as np
        if not self.n_qubits and None in (self.probe_center, self.probe_span):
            raise ConfigError("no qubits: config must set probe_center and "
                              "probe_span")
        center = self.omega_q if self.probe_center is None else self.probe_center
        span = (50.0*max(abs(self.chi), 0.5*self.gamma + self.gamma_phi)
                if self.probe_span is None else self.probe_span)
        return np.array(linspace(center - span, center + span, n_points))


# Thermal coherence times keep gamma_c tau_c <= 1e-3 on every preset; the beat
# tau_c |omega_p - omega| is below 0.01 except on fig7, whose default and third
# coherence times reach 1.05 and 10.5 over its probe grid.
FIGURES: dict[str, FigurePreset] = {
    "fig1": FigurePreset(chi=math.tau*10e6, gamma_c=math.tau*100e3,
                         tau_c=1e-12),
    "fig2": FigurePreset(chi=math.tau*10e6, gamma_c=math.tau*1e6,
                         tau_c=1e-12),
    "fig2bis": FigurePreset(chi=math.tau*1e6, gamma_c=math.tau*100e3,
                            tau_c=1e-12),
    "fig3": FigurePreset(chi=math.tau*1e6, gamma_c=math.tau*1e6,
                         tau_c=1e-12),
    "fig4": FigurePreset(chi=math.tau*100e3, gamma_c=math.tau*500e6,
                         tau_c=1e-14),
    "fig5": FigurePreset(chi=math.tau*1e6, gamma_c=math.tau*1e6, nbar=2.0,
                         tau_c=1e-12),
    "fig5q": FigurePreset(n_qubits=5, chi=math.tau*1e6, gamma_c=math.tau*1e6,
                          tau_c=1e-12),
    "fig6": FigurePreset(chi=math.tau*1e6, gamma_c=math.tau*100e3, nbar=2.0,
                         tau_c=1e-12),
    "fig7": FigurePreset(chi=math.tau*1e6, gamma_c=math.tau*100e3,
                         tau_c=1e-9/math.tau,
                         tau_c_choices=(1e-12/math.tau, 1e-9/math.tau,
                                        1e-8/math.tau)),
    "fig10": FigurePreset(chi=math.tau*1e6, gamma_c=math.tau*100e3,
                          detunings_frac=(-1.0/3.0, 1.0/3.0)),
}

# what a `--config` spectrum run starts from; a thermal run takes --tau-c
CONFIG_DEFAULT = FigurePreset(chi=math.tau*10e6, gamma_c=math.tau*100e3)


def __getattr__(name):
    # the line and atom presets are built from their model's module on first
    # access and kept, so that the spectrum commands load neither model
    if name == "TABLE_GEOMETRY":
        # The published line-constant table is reproduced by an effective
        # gap of 7.5 um (conformal modulus k0 = 0.40); TABLE_GEOMETRY pins
        # it, so the table rows come out as published.
        from .waveguide import CpwGeometry
        value = CpwGeometry(w=10e-6, s=7.5e-6, h1=500e-6, h2=550e-9,
                            eps1_rel=11.6, eps2_rel=3.78)
    elif name == "PLATE_GEOMETRY":
        from .waveguide import ParallelPlateGeometry
        value = ParallelPlateGeometry(w_plate=10e-6, d1=500e-6, d2=550e-9,
                                      eps1_rel=11.6, eps2_rel=3.78)
    elif name == "ATOM":
        # the artificial atom of the `atom` sweep
        from .atom import AtomParams
        value = AtomParams(delta_omega=0.0, gamma1=math.tau*1e6,
                           gamma_phi=0.0, rabi=0.0)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def resonator_preset(capacitance_ratio: float) -> ResonatorGeometry:
    """A cm-scale resonator with the gap ratio C/(C'L) given."""
    from .cavity import ResonatorGeometry
    return ResonatorGeometry(length=0.02,
                             gap_capacitance=capacitance_ratio*1.6e-10*0.02,
                             line_capacitance=1.6e-10, velocity=1.2e8)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced floats from start to stop, bit for bit those of
    np.linspace: y_i = i*step + start, step = (stop - start)/(num - 1), the
    product and the sum each rounded, and the last point set to stop (a step
    that underflows to 0 gives y_i = (i/(num - 1))*(stop - start) + start, as
    there).  Fewer than 2 points raise ConfigError."""
    if num < 2:
        raise ConfigError(f"a grid needs at least 2 points, got {num}")
    start, stop = float(start), float(stop)
    delta, div = stop - start, num - 1
    step = delta/div
    grid = ([i*step + start for i in range(num)] if step else
            [i/div*delta + start for i in range(num)])
    grid[-1] = stop
    return grid


def atom_grid(atom: AtomParams, n_points: int,
              span: Optional[float] = None) -> list[float]:
    """Drive detunings over +-span, by default 10 (gamma1/2 + gamma_phi)."""
    span = 10.0*atom.gamma_coh if span is None else span
    check_values({"span": span}, span=POSITIVE)
    return linspace(-span, span, n_points)
