"""The paper's cavity-Q trade-off, computed: fig3's qubit under a fixed
incident flux J = 2 pi 1e5 photons/s, with gamma_c = r chi.

Both figures of merit are this repository's own, since the paper's metric
is not known here: the relative change max|S21 - S21_vac|/max|S21_vac| and
the absolute change max|S21 - S21_vac|, each over the 2001-point default
grid against the vacuum spectrum.  A high-Q cavity (small r) gives the
larger relative change, a moderate one the larger absolute change.
"""

import dataclasses
import math

import numpy as np
import pytest

from starkprobe.detector import Coherent, Incoherent, Vacuum, sweep
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
