"""The paper's cavity-Q trade-off, computed: fig3's qubit under a fixed
incident flux J = 2 pi 1e5 photons/s, with gamma_c = r chi.

All three figures of merit are this repository's own, since the paper's
metric is not known here: the relative change
max|S21 - S21_vac|/max|S21_vac| and the absolute change max|S21 - S21_vac|,
each over the 2001-point default grid against the vacuum spectrum, and the
resolution of the coherent n = 0 and n = 1 lines in closed form.  A high-Q
cavity (small r) gives the larger relative change and the better
resolution, a moderate one the larger absolute change.
"""

import dataclasses
import math

import numpy as np
import pytest

from starkprobe.detector import (Coherent, Incoherent, Vacuum,
                                 cavity_photon_number, signal_frequency, sweep)
from starkprobe.presets import FIGURES
from starkprobe.specfun import ConvergenceError

FIG3 = FIGURES["fig3"]
FLUX = 2.0*math.pi*1e5
RATIOS = (0.01, 0.1, 1.0, 10.0, 30.0, 100.0, 200.0)
# README's table, to three digits
RELATIVE = {"coherent": (0.991, 0.915, 0.527, 0.258, 0.103, 0.0316, 0.0158),
            "incoherent": (0.946, 0.720, 0.425, 0.222, 0.0987, 0.0315, 0.0158)}
ABSOLUTE = {"coherent": (4.00e-5, 3.69e-4, 2.13e-3, 1.04e-2, 1.24e-2,
                         1.28e-2, 1.27e-2),
            "incoherent": (3.82e-5, 2.90e-4, 1.71e-3, 8.97e-3, 1.19e-2,
                           1.27e-2, 1.27e-2)}
VACUUM_PEAK = (4.03e-5, 4.03e-4, 4.03e-3, 4.03e-2, 0.121, 0.403, 0.803)
RESOLUTION = (4.40, 4.00, 2.13, 0.379, 0.131, 0.0398, 0.0200)


def _preset(r: float):
    return dataclasses.replace(FIG3, gamma_c=r*FIG3.chi)


def test_cavity_q_trades_relative_for_absolute_change():
    relative = {state: [] for state in RELATIVE}
    absolute = {state: [] for state in RELATIVE}
    for r, peak in zip(RATIOS, VACUUM_PEAK):
        fp = _preset(r)
        system, grid = fp.system(), fp.probe_grid_default()
        vacuum = sweep(system, Vacuum(), grid).s21
        assert np.abs(vacuum).max() == pytest.approx(peak, rel=5e-3), r
        for state, cls in (("coherent", Coherent), ("incoherent", Incoherent)):
            change = np.abs(sweep(system, cls(flux=FLUX), grid).s21
                            - vacuum).max()
            relative[state].append(change/np.abs(vacuum).max())
            absolute[state].append(change)
    for state in RELATIVE:
        assert relative[state] == pytest.approx(RELATIVE[state], rel=5e-3)
        assert absolute[state] == pytest.approx(ABSOLUTE[state], rel=5e-3)
        # the relative change falls with the cavity width at every step
        assert all(a > b for a, b in zip(relative[state], relative[state][1:]))
        # the absolute change rises up to r = 100 and has a broad maximum at
        # r = 100-200: from r = 30 on it stays within 7% of it
        top = max(absolute[state])
        assert absolute[state].index(top) in (RATIOS.index(100.0),
                                              RATIOS.index(200.0)), state
        rising = absolute[state][:RATIOS.index(100.0) + 1]
        assert all(a < b for a, b in zip(rising, rising[1:])), state
        assert min(absolute[state][RATIOS.index(30.0):]) > 0.93*top, state
    # the axis ends where the qubit term alone, (gc/2)(chi/gamma_coh)/
    # |omega_q - omega_c|, passes 1: at r = 2 gamma_coh |omega_q - omega_c|/
    # chi^2 = 250 on fig3's qubit; at r = 300 `sweep` refuses even the
    # vacuum spectrum
    qubit = FIG3.system().qubits[0]
    limit = 2.0*qubit.gamma_coh*abs(FIG3.omega_q - FIG3.omega_c)/FIG3.chi**2
    assert limit == pytest.approx(250.0, rel=1e-12)
    fp = _preset(300.0)
    with pytest.raises(ConvergenceError,
                       match=r"vacuum spectrum is not passive at nbar=0: "
                             r"\|S21\| = 1\.2 at"):
        sweep(fp.system(), Vacuum(), fp.probe_grid_default())


def _resolution(fp) -> float:
    """The separation of the coherent n = 0 and n = 1 lines over the sum of
    their half widths.  Line n sits at Re D_n = 0 with the half width
    Im D_n, D_n = D_0 - n step (`qubit_response_coherent`), so the lines lie
    Re step apart, and Im D_1 = Im D_0 - Im step."""
    system = fp.system()
    qubit, sig = system.qubits[0], Coherent(flux=FLUX)
    _, beta = cavity_photon_number(sig, system)
    chi, gc = qubit.chi, system.cavity.gamma_c
    pull = system.omega_c_star - signal_frequency(sig, system) - 0.5j*gc
    step = 2.0*chi + pull       # equal to w
    # at zero signal detuning: 2 chi apart, Im D_1 = Im D_0 + gc/2
    assert step.real == pytest.approx(2.0*chi, rel=1e-12)
    assert step.imag == -0.5*gc
    width = qubit.gamma_coh + (4.0*chi*chi*abs(beta)**2/step).imag
    return abs(step.real)/(width + (width - step.imag))


def test_resolution_is_best_at_high_q():
    resolution = [_resolution(_preset(r)) for r in RATIOS]
    assert resolution == pytest.approx(RESOLUTION, rel=5e-3)
    # the resolution falls with the cavity width at every step
    assert all(a > b for a, b in zip(resolution, resolution[1:]))
