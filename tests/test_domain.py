"""The domain of the response series, mapped on the figure presets.

A full `sweep` on the 51-point default grid, over nbar in NBARS: within its
domain a state returns a finite spectrum, and past it the sweep raises a
ConvergenceError that names the series cap or, where the series has lost
its digits, the passivity limit |S21| <= 1, not a bare overflow.  Where the
truncated-Fock oracle applies (one qubit, coherent light), the response must
also agree with it: mapped on fig3's qubit over gamma_c/chi, nbar and the
signal's detuning.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from starkprobe.detector import (Coherent, Incoherent, Thermal,
                                 response_function, sweep)
from starkprobe.oracle import lindblad_steady_response
from starkprobe.presets import FIGURES
from starkprobe.specfun import ConvergenceError

NBARS = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 3e3, 1e4)

# (preset, state): (largest nbar that returns, first nbar that reaches the
# 5000-term cap), None where every nbar up to 1e4 returns.  The coherent
# series cannot stop before term |W| ~ nbar; the incoherent and thermal
# terms fall off geometrically, the slower the larger nbar.  On fig3 the
# coherent series' complex Poisson weights cancel: from nbar 1e3 on its
# spectrum is not passive (|S21| 7.9e24 at 1e3), which `sweep` refuses.
DOMAIN = {
    ("fig1", "coherent"): (3e3, 1e4),
    ("fig1", "incoherent"): (100.0, 300.0),
    ("fig1", "thermal"): (300.0, 1e3),
    ("fig3", "coherent"): (300.0, 1e3),
    ("fig3", "incoherent"): (100.0, 300.0),
    ("fig3", "thermal"): (1e4, None),
    ("fig4", "coherent"): (1e4, None),
    ("fig4", "incoherent"): (1e4, None),
    ("fig4", "thermal"): (1e4, None),
    ("fig7", "coherent"): (3e3, 1e4),
    ("fig7", "incoherent"): (100.0, 300.0),
    ("fig7", "thermal"): (300.0, 1e3),
}
# what the first failing nbar raises, where it is not the series cap
LIMIT = {("fig3", "coherent"): "coherent spectrum is not passive"}


def _signal(state, fp, nbar):
    if state == "coherent":
        return Coherent(nbar=nbar)
    if state == "incoherent":
        return Incoherent(nbar=nbar)
    return Thermal(tau_c=fp.tau_c, nbar=nbar)


@pytest.mark.parametrize(("preset", "state"), sorted(DOMAIN))
def test_domain_map(preset, state):
    returns, capped = DOMAIN[preset, state]
    fp = FIGURES[preset]
    system, grid = fp.system(), fp.probe_grid_default(51)
    last = None
    for nbar in NBARS:
        sig = _signal(state, fp, nbar)
        if nbar == capped:
            with pytest.raises(ConvergenceError, match=LIMIT.get(
                    (preset, state), f"{state} response series cap")):
                sweep(system, sig, grid)
            break
        assert np.all(np.isfinite(sweep(system, sig, grid).s21)), nbar
        last = nbar
    assert last == returns


# coherent light on fig3's qubit with gamma_c = r chi, the signal on
# omega_c* or gamma_c/3 below or above it: the cells where the series'
# complex Poisson weights cancel, with R's worst relative error there.
# ROADMAP item 2 (the sized fraction in place of the series) mends them.
# `sweep` refuses six of them through its passivity guard (|S21| up to
# 1e194), but returns r = 1 at nbar 100 above and at nbar 300 on and below,
# and r = 4 at nbar 30 on and at nbar 300 below (R 71-fold off), on 51 and
# on 2001 points.
DETUNINGS = {"on": 0.0, "below": -1.0/3.0, "above": 1.0/3.0}
MISSED = {
    (1.0, 100.0, "above"): 1.6e-7,
    (1.0, 300.0, "on"): 1.7e-2,
    (1.0, 300.0, "below"): 8.7e-9,
    (1.0, 300.0, "above"): 1.0e12,
    (4.0, 30.0, "on"): 2.0e-10,
    (4.0, 30.0, "above"): 7.6e4,
    (4.0, 100.0, "on"): 2.8e5,
    (4.0, 100.0, "above"): 1.1e54,
    (4.0, 300.0, "on"): 5.2e48,
    (4.0, 300.0, "below"): 71.0,
    (4.0, 300.0, "above"): 3.9e194,
}


def _coherent_cells():
    for cell in itertools.product((0.1, 1.0, 4.0), (1.0, 30.0, 100.0, 300.0),
                                  DETUNINGS):
        error = MISSED.get(cell)
        marks = () if error is None else pytest.mark.xfail(strict=True, reason=(
            f"ROADMAP item 2: the coherent series' Poisson weights cancel, "
            f"R is {error:.2g} off"))
        yield pytest.param(*cell, marks=marks, id="r{:g}-nbar{:g}-{}".format(*cell))


@pytest.mark.parametrize(("r", "nbar", "detuning"), _coherent_cells())
def test_fig3_coherent_agrees_with_oracle(r, nbar, detuning):
    # the per-qubit response a coherent sweep sums, on both rotating
    # branches, against the oracle's sized continued fraction
    fp = dataclasses.replace(FIGURES["fig3"], gamma_c=r*FIGURES["fig3"].chi)
    system, grid = fp.system(), fp.probe_grid_default(51)
    omega = system.omega_c_star + DETUNINGS[detuning]*system.cavity.gamma_c
    sig = Coherent(nbar=nbar, signal_omega=omega)
    respond, qubit = response_function(system, sig), system.qubits[0]
    for wp in (grid, -grid):
        ref = lindblad_steady_response(system, sig, wp).sigma_minus
        error = np.max(np.abs(respond(wp, qubit) - ref)/np.abs(ref))
        assert error < 1e-10, error


def test_coherent_terms_past_the_floats_raise_the_typed_error():
    # fig3's qubit with gamma_c = 4 chi at nbar 2000: the Poisson weights
    # still fit, but a term weight/D_n overflows.  The non-finite sum raises
    # the typed error, and numpy's overflow warning, which the suite turns
    # into an error, stays silent
    fp = dataclasses.replace(FIGURES["fig3"], gamma_c=4.0*FIGURES["fig3"].chi)
    with pytest.raises(ConvergenceError, match="coherent response is not finite"):
        sweep(fp.system(), Coherent(nbar=2000.0), fp.probe_grid_default(201))
