"""Probe points far from every pole: the incoherent and thermal kernels sum
them in closed form, from the series' expansion in the inverse detuning.
Such a lane must agree with the 40-digit sum of its series, must not call
the series' kernels, and must keep its bits whichever lanes share the
call."""

import numpy as np
import pytest

import starkprobe.detector as det
from starkprobe.detector import (Incoherent, Thermal, qubit_response_incoherent,
                                 qubit_response_thermal, response_function)
from starkprobe.presets import FIGURES

from closedform import incoherent_series_mp, thermal_series_mp

PRESETS = ["fig1", "fig3", "fig5q", "fig7", "fig10"]
DETUNINGS = (0.0, -1.0/3.0, 1.0/3.0)    # of gamma_c, fig10's


def _far_mask(monkeypatch, name, call):
    """call() with the far-lane mask of its one `det.<name>` call kept."""
    kept = []
    original = getattr(det, name)

    def spy(*args):
        far, sums = original(*args)
        kept.append(far.copy())
        return far, sums
    with monkeypatch.context() as m:
        m.setattr(det, name, spy)
        values = call()
    (far,) = kept
    return values, far


def _cases(preset, nbars):
    """(nbar, signal omega) per nbar, the detunings taking turns."""
    fp = FIGURES[preset]
    system = fp.system()
    gc = system.cavity.gamma_c
    start = PRESETS.index(preset)
    return [(nbar, system.omega_c_star + DETUNINGS[(start + i) % 3]*gc)
            for i, nbar in enumerate(nbars)]


def _check_far_points(values, far, grid, reference, count):
    """`count` far lanes, evenly inside the far ones, against the 40-digit
    sums: the worst relative deviation."""
    lanes = far.nonzero()[0]
    assert lanes.size, "no far lane"
    worst = 0.0
    for i in lanes[np.linspace(0, lanes.size - 1, count + 2)[1:-1].astype(int)]:
        ref = reference(float(grid[i]))
        worst = max(worst, abs(values[i] - ref)/abs(ref))
    return worst


@pytest.mark.parametrize("preset", PRESETS)
def test_incoherent_far_lanes_agree_with_40_digit_sums(preset, monkeypatch):
    # the counter-rotating branch at nbar 0.5-3, and at nbar 10 on fig1 and
    # fig7 and 30 on fig7, where the expansion still settles (on fig1 it
    # stalls, below); and the co-rotating far lanes at nbar 0.1.  The
    # series' stopping rule leaves a tail of 1e-12 |k/c|/(1 - |k/c|): 2e-13
    # at nbar 1, 8e-12 at nbar 10.  A 40-digit sum takes about 0.1 s at
    # nbar 10 and 0.4 s at nbar 30, so each case checks one point.
    fp = FIGURES[preset]
    system = fp.system()
    q = system.qubits[0]
    grid = fp.probe_grid_default(101)
    nbars = {"fig1": (10.0,), "fig7": (10.0, 30.0)}
    nbars = (0.5, 1.0, 3.0) + nbars.get(preset, ())
    cases = [(nbar, omega, -grid) for nbar, omega in _cases(preset, nbars)]
    cases += [(0.1, system.omega_c_star, grid)]
    for nbar, omega, wp in cases:
        values, far = _far_mask(monkeypatch, "_incoherent_far", lambda: (
            qubit_response_incoherent(wp, q, system, nbar, omega)))
        worst = _check_far_points(
            values, far, wp,
            lambda w: incoherent_series_mp(w, q, system, nbar, omega), 1)
        assert worst <= 5e-15, (nbar, omega, worst)


@pytest.mark.parametrize("preset", PRESETS)
def test_thermal_far_lanes_agree_with_40_digit_sums(preset, monkeypatch):
    fp = FIGURES[preset]
    system = fp.system()
    q = system.qubits[0]
    # the counter-rotating branch at nbar 0.5-8, and the co-rotating far
    # lanes at nbar 0.5, whose distance to the first pole is formed from
    # omega_p - omega_j without cancellation
    tau_c = fp.tau_c if fp.tau_c is not None else 1e-12
    grid = fp.probe_grid_default(101)
    cases = [(nbar, omega, -grid)
             for nbar, omega in _cases(preset, (0.5, 1.0, 3.0, 8.0))]
    cases += [(0.5, system.omega_c_star, grid)]
    for nbar, omega, wp in cases:
        flux = Thermal(tau_c=tau_c, nbar=nbar, signal_omega=omega)._flux(system)[0]
        values, far = _far_mask(monkeypatch, "_thermal_far", lambda: (
            qubit_response_thermal(wp, q, system, flux, tau_c, omega)))
        worst = _check_far_points(
            values, far, wp,
            lambda w: thermal_series_mp(w, q, system, flux, tau_c, omega), 2)
        assert worst <= 5e-15, (nbar, omega, worst)


def test_fig1_incoherent_expansion_stalls_at_nbar_30(monkeypatch):
    # |k/c| = 0.98 puts the expansion's 24th term at about 6e-12 of the sum,
    # so every lane keeps the series
    fp = FIGURES["fig1"]
    system = fp.system()
    grid = -fp.probe_grid_default(101)
    _, far = _far_mask(monkeypatch, "_incoherent_far", lambda: (
        qubit_response_incoherent(grid, system.qubits[0], system, 30.0)))
    assert not far.any()


@pytest.mark.parametrize("preset", ["fig1", "fig5q"])
def test_counter_branch_sums_no_series_term(preset, monkeypatch):
    # at the figures' nbar 1 on 2001 points every counter-rotating lane is
    # far: the incoherent branch calls no e^x E_n(x), and the thermal one
    # adds no series term; the co-rotating branches still do both
    fp = FIGURES[preset]
    system = fp.system()
    q = system.qubits[0]
    grid = fp.probe_grid_default(2001)
    calls = {"expint": 0, "add": 0}
    expint, add, add_block = det.expint_scaled, det._Lanes.add, det._Lanes.add_block

    def count(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(det, "expint_scaled", count("expint", expint))
    monkeypatch.setattr(det._Lanes, "add", count("add", add))
    monkeypatch.setattr(det._Lanes, "add_block", count("add", add_block))
    for sig, key in ((Incoherent(nbar=1.0), "expint"),
                     (Thermal(tau_c=fp.tau_c, nbar=1.0), "add")):
        respond = response_function(system, sig)
        calls[key] = 0
        respond(-grid, q)
        assert calls[key] == 0, sig
        respond(grid, q)
        assert calls[key] > 0, sig


@pytest.mark.parametrize("nbar", [0.5, 1.0])
def test_far_and_near_lanes_keep_their_bits_alone(nbar, monkeypatch):
    # one grid of both branches holds far and near lanes side by side; each
    # lane has the bits it has alone, as a float and as a size-1 array
    fp = FIGURES["fig3"]
    system = fp.system()
    q = system.qubits[0]
    half = fp.probe_grid_default(41)
    grid = np.concatenate((-half, half))
    for name, sig in (("_incoherent_far", Incoherent(nbar=nbar)),
                      ("_thermal_far", Thermal(tau_c=fp.tau_c, nbar=nbar))):
        respond = response_function(system, sig)
        values, far = _far_mask(monkeypatch, name, lambda: respond(grid, q))
        assert far.any() and not far.all(), name
        for i in range(0, grid.size, 5):
            assert respond(float(grid[i]), q) == values[i], (name, i)
            assert respond(grid[i:i + 1], q)[0] == values[i], (name, i)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a near lane stops its series on three terms below 1e-12 of the sum, "
    "which leaves a geometric tail of about 1e-12 |k/c|/(1 - |k/c|): "
    "up to 7.2e-13 at nbar 1 on fig1; stopping on that tail bound instead "
    "moves the benchmark references past their 1e-12 gate"))
def test_fig1_incoherent_near_lanes_agree_with_40_digit_sums(monkeypatch):
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    grid = fp.probe_grid_default(101)
    # below omega_q no sideband is crossed, so every e^x E_n(x) has large |x|
    points = grid[[20, 35]]
    values, far = _far_mask(monkeypatch, "_incoherent_far", lambda: (
        qubit_response_incoherent(points, q, system, 1.0)))
    assert not far.any()
    for wp, value in zip(points, values):
        ref = incoherent_series_mp(float(wp), q, system, 1.0)
        assert abs(value - ref) <= 5e-15*abs(ref), float(wp)
