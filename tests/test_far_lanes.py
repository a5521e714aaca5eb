"""Probe points far from every pole: the incoherent and thermal kernels sum
them in closed form, from the series' expansion in the inverse detuning;
and, for long incoherent series, lanes whose arguments recede from every
pole, with the nearest zero of the generating function's denominator taken
out.  Such a lane must agree with the 40-digit sum of its series, must not
call the series' kernels, and must keep its bits whichever lanes share the
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
    """call() with the lane mask of its one `det.<name>` call kept."""
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
        sig = Thermal(tau_c=tau_c, nbar=nbar, signal_omega=omega)
        flux = det._lorentzian_fill(sig, system, 1.0/tau_c)[1]
        values, far = _far_mask(monkeypatch, "_thermal_far", lambda: (
            qubit_response_thermal(wp, q, system, flux, tau_c, omega)))
        worst = _check_far_points(
            values, far, wp,
            lambda w: thermal_series_mp(w, q, system, flux, tau_c, omega), 2)
        assert worst <= 5e-15, (nbar, omega, worst)


def test_fig1_incoherent_expansion_stalls_at_nbar_30(monkeypatch):
    # |k/c| = 0.98 puts the expansion's 24th term at about 6e-12 of the sum,
    # so no lane settles by it; `_incoherent_pole` takes them all instead
    # (below)
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


def _pole_lanes(monkeypatch, call):
    """call() and the grid indices that `_incoherent_pole` settled: it sees
    the lanes that `_incoherent_far` left, none where it was not called."""
    masks = {}
    originals = {name: getattr(det, name)
                 for name in ("_incoherent_far", "_incoherent_pole")}

    def spy(name):
        def spied(*args):
            settled, sums = originals[name](*args)
            masks[name] = settled.copy()
            return settled, sums
        return spied
    with monkeypatch.context() as m:
        for name in originals:
            m.setattr(det, name, spy(name))
        values = call()
    if "_incoherent_pole" not in masks:
        return values, np.array([], dtype=int)
    left = (~masks["_incoherent_far"]).nonzero()[0]
    return values, left[masks["_incoherent_pole"]]


# nbar 150 costs a 40-digit sum about 2 s a point, so it is checked on the
# three distinct (chi, gamma_c) pairs only: fig1, fig3 and fig7
RECEDING_NBARS = {"fig1": (2.0, 5.0, 30.0, 150.0), "fig3": (2.0, 5.0, 30.0, 150.0),
                  "fig5q": (2.0, 5.0, 30.0), "fig7": (2.0, 5.0, 30.0, 150.0),
                  "fig10": (2.0, 5.0, 30.0)}


@pytest.mark.parametrize("preset", PRESETS)
def test_incoherent_receding_lanes_agree_with_40_digit_sums(preset, monkeypatch):
    # both branches: the co-rotating points on the side of omega_q without
    # a sideband, and on fig1 the whole counter-rotating branch from nbar
    # 30 on (elsewhere `_incoherent_far` takes it).  The series these lanes
    # replace stops with a tail of 1e-12 |k/c|/(1 - |k/c|): 7.8e-12 at
    # nbar 10, 2.7e-11 at 30, 1.4e-10 at 150.
    fp = FIGURES[preset]
    system = fp.system()
    q = system.qubits[0]
    grid = fp.probe_grid_default(101)
    checked = 0
    for nbar, omega in _cases(preset, RECEDING_NBARS[preset]):
        for wp in (grid, -grid):
            values, lanes = _pole_lanes(monkeypatch, lambda: (
                qubit_response_incoherent(wp, q, system, nbar, omega)))
            if lanes.size:
                i = lanes[lanes.size//2]
                ref = incoherent_series_mp(float(wp[i]), q, system, nbar, omega)
                assert abs(values[i] - ref) <= 1e-14*abs(ref), (nbar, float(wp[i]))
                checked += 1
    # every co-rotating branch switches from nbar 5 on, and fig1's counter
    # branch from 30
    assert checked >= len(RECEDING_NBARS[preset]) - 1 + (preset == "fig1")*2


@pytest.mark.parametrize("nbar", [2.0, 30.0])
def test_receding_lanes_keep_their_bits_alone(nbar, monkeypatch):
    # a switched lane has the bits it has on the grid, as a float and as a
    # size-1 array, whichever lanes share the call
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    half = fp.probe_grid_default(41)
    grid = np.concatenate((-half, half))
    respond = response_function(system, Incoherent(nbar=nbar))
    values, lanes = _pole_lanes(monkeypatch, lambda: respond(grid, q))
    assert lanes.size >= 15, lanes.size
    for i in lanes:
        assert respond(float(grid[i]), q) == values[i], i
        assert respond(grid[i:i + 1], q)[0] == values[i], i


def test_fig1_counter_branch_sums_no_series_at_nbar_30(monkeypatch):
    # every counter-rotating lane is switched: no e^x E_n(x) of order above
    # 1 (a series term) is formed; the co-rotating branch still forms them
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    grid = fp.probe_grid_default(2001)
    orders = []
    expint = det.expint_scaled

    def spy(n, z):
        orders.append(np.max(n))
        return expint(n, z)
    monkeypatch.setattr(det, "expint_scaled", spy)
    respond = response_function(system, Incoherent(nbar=30.0))
    respond(-grid, q)
    assert not [n for n in orders if n > 1], orders[:5]
    respond(grid, q)
    assert max(orders) > 1


@pytest.mark.parametrize("nbar", [2.0, 5.0, 30.0, 150.0])
def test_fig4_constants_settle_no_lane(nbar):
    # fig4's cavity is 5000 chi wide: the zero Newton's method finds lies
    # past |shift t0| = 1, or it finds none, so the helper settles no lane
    # even when called outside the kernel's long-series rule (fig4's series
    # are 5 terms long)
    fp = FIGURES["fig4"]
    system = fp.system()
    q = system.qubits[0]
    chi, gc = q.chi, system.cavity.gamma_c
    step = 2.0*chi - 0.5j*gc
    k, c, b = det._incoherent_constants(chi, nbar, step)
    grid = fp.probe_grid_default(101)
    for wp in (grid, -grid):
        base = wp - q.omega_q + 1j*q.gamma_coh
        settled, _ = det._incoherent_pole(
            det._cmul(base, c)/b, c*step/b,
            det._pole_constants(k/c, 1.0/(nbar*c), c*step/b))
        assert not settled.any(), nbar


@pytest.mark.parametrize("nbar", [2.0, 5.0, 30.0, 150.0])
def test_fig1_co_rotating_points_above_omega_q_are_not_switched(nbar, monkeypatch):
    # above omega_q the arguments x_n approach the sidebands: the same
    # expansion there "settles" to values off by 80-410%, so only receding
    # lanes (below omega_q, chi > 0) are switched
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    grid = fp.probe_grid_default(101)
    _, lanes = _pole_lanes(monkeypatch, lambda: (
        qubit_response_incoherent(grid, q, system, nbar)))
    assert lanes.size >= 30
    assert np.all(grid[lanes] <= q.omega_q)
