"""One pass over the probe grid: the grid evaluation of every spectrum must
agree with the same probe points evaluated one at a time, identical qubits
must add up, and a spectrum never comes back non-finite."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import starkprobe.detector as det
from starkprobe.detector import (CavityParams, Coherent, Incoherent,
                                 QubitParams, SystemParams, Thermal, Vacuum,
                                 cavity_photon_number, comb_spectrum,
                                 response_function, s21_probe, sweep)
from starkprobe.presets import FIGURES
from starkprobe.specfun import ConvergenceError


def _states(fp):
    # fig10 names no coherence time; it gets the short one of the others
    tau_c = fp.tau_c if fp.tau_c is not None else 1e-12
    return {"vacuum": Vacuum(), "coherent": Coherent(nbar=fp.nbar),
            "incoherent": Incoherent(nbar=fp.nbar),
            "thermal": Thermal(tau_c=tau_c, nbar=fp.nbar)}


@pytest.mark.parametrize("preset", sorted(FIGURES))
def test_grid_equals_pointwise(preset):
    # every fourth point of the grid alone, which gives the grid's bits in
    # every state, as the comb does.  A size-1 incoherent s21_probe costs
    # about 0.6 ms, but 12-20 ms on fig4, whose terms near the branch cut
    # run the array e^x E_n(x) with one lane (2 cores): the fig4 case takes
    # 1.1-1.6 s, and all 201 points would take about 3 s more.
    fp = FIGURES[preset]
    system = fp.system()
    grid = fp.probe_grid_default(201)
    for state, sig in _states(fp).items():
        full = sweep(system, sig, grid).s21[::4]
        one = np.array([s21_probe(float(wp), system, sig) for wp in grid[::4]])
        assert np.array_equal(full, one), state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # fig4/fig5q lie outside the comb's range
        sig = Coherent(nbar=fp.nbar)
        comb = sweep(system, sig, grid, model="comb").s21
        one = np.array([comb_spectrum(float(wp), system, sig) for wp in grid])
    assert np.array_equal(comb, one)


# fig5q incoherent on its 2001-point default grid, as computed by the
# point-by-point code before the grid pass.  The expint series branch turns
# one rounding bit in its argument into ~1e-12 here: at these points a fused
# complex product moved the spectrum by 1.4e-12 to 2.0e-12.
FIG5Q_INCOHERENT = {
    1063: complex(0.00063937154572998639, 0.00012827897707479424),
    1098: complex(0.00036034955039710749, 4.8556209139622071e-05),
    1099: complex(0.00035390568516828052, 4.6003782038584362e-05),
}


def test_fig5q_incoherent_pinned_values():
    fp = FIGURES["fig5q"]
    spec = sweep(fp.system(), Incoherent(nbar=fp.nbar), fp.probe_grid_default(2001))
    for idx, ref in FIG5Q_INCOHERENT.items():
        assert abs(spec.s21[idx] - ref) <= 1e-13*abs(ref), idx


# fig1 on its 101-point default grid, recorded at three points before the
# series were summed a block of terms at a time: S21 of the grid sweep (for
# coherent light and the vacuum also of the point alone, which was equal).
# Incoherent light at index 20 is re-pinned where its lanes (the co-rotating
# one below omega_q, and at nbar 30 the counter-rotating one) are summed in
# closed form with the nearest pole taken out: S21 agrees with its 40-digit
# value to the last bit, where the series was off by 1.6e-13 (nbar 10) and
# 4.0e-13 (nbar 30).
FIG1_PINNED = {
    "vacuum": (Vacuum(), (complex(-4.14450720571585e-09, -7.548007153988937e-05),
                          complex(0.0039999975323156975, -5.233923088095394e-05),
                          complex(-6.00295423627074e-10, -4.1157914252347405e-05))),
    "coherent 1": (Coherent(nbar=1.0), (
        complex(-4.243765817494699e-09, -7.533955226643086e-05),
        complex(0.0010512258685425222, -7.031732231791065e-05),
        complex(-3.567704898909407e-10, -4.09694546600982e-05))),
    "coherent 3": (Coherent(nbar=3.0), (
        complex(-4.399511950946553e-09, -7.510109153872164e-05),
        complex(9.05872193539185e-05, -6.390284681814063e-05),
        complex(1.6334470858465721e-09, -4.039213899402948e-05))),
    "coherent 50": (Coherent(nbar=50.0), (
        complex(-4.951165133870219e-09, -7.36551411955078e-05),
        complex(-2.4160577898191915e-09, -5.264959441333241e-05),
        complex(-1.5575128825156483e-09, -4.3472531351753544e-05))),
    "coherent 200": (Coherent(nbar=200.0), (
        complex(-4.973515054395071e-09, -7.326572833215789e-05),
        complex(-2.4599887076686987e-09, -5.226464308086622e-05),
        complex(-1.6334493045544357e-09, -4.303355072143751e-05))),
    "incoherent 10": (Incoherent(nbar=10.0), (
        complex(-4.578299050291555e-09, -7.471740202533164e-05),
        complex(0.0002812716607208438, -5.876927419346452e-05),
        complex(3.794201709137846e-07, -4.151198548886577e-05))),
    "incoherent 30": (Incoherent(nbar=30.0), (
        complex(-4.768195070665062e-09, -7.42116100733785e-05),
        complex(9.857860333492383e-05, -5.5343808822595835e-05),
        complex(2.8339690385083226e-07, -4.2888043746880006e-05))),
}


@pytest.mark.parametrize("case", sorted(FIG1_PINNED))
def test_fig1_series_pinned_values(case):
    # a grid of 101 lanes sums 10 terms per pass, a lone point 64, with the
    # sums of one term at a time: coherent sums are unchanged to the bit;
    # incoherent ones may move in the last bit, through the rounding of the
    # continued fraction for e^x E_n(x)
    sig, pinned = FIG1_PINNED[case]
    rtol = 1e-15 if isinstance(sig, Incoherent) else 0.0
    fp = FIGURES["fig1"]
    system, grid = fp.system(), fp.probe_grid_default(101)
    spec = sweep(system, sig, grid)
    for idx, ref in zip((20, 50, 73), pinned):
        for got in (spec.s21[idx], s21_probe(float(grid[idx]), system, sig)):
            assert abs(got - ref) <= rtol*abs(ref), (idx, got)


@pytest.mark.parametrize("preset", ["fig1", "fig3", "fig5q"])
def test_blocks_equal_one_term_at_a_time(preset, monkeypatch):
    # summing a block of terms per pass changes no bit of a grid's spectrum;
    # 101 lanes take blocks of 40 terms, 401 lanes blocks of 10
    fp = FIGURES[preset]
    system = fp.system()
    # A lone point, as a float and as a size-1 array, is a grid of one lane;
    # coherent light sums its precomputed first block, here against the
    # general path one term at a time.
    lone = float(fp.probe_grid_default(7)[2])
    grids = [fp.probe_grid_default(npts) for npts in (2, 7, 101, 401)]
    for grid in (lone, np.array([lone]), *grids):
        sigs = [Coherent(nbar=3.0), Incoherent(nbar=3.0),
                Thermal(tau_c=fp.tau_c, nbar=3.0)]
        if preset == "fig1":
            # a long series, most of whose terms are asymptotic lanes
            sigs.append(Incoherent(nbar=30.0))
        for sig in sigs:
            blocks = s21_probe(grid, system, sig)
            with monkeypatch.context() as m:
                m.setattr(det, "_BLOCK_MIN_ROWS", det._TERM_CAP + 1)
                m.setattr(det._CoherentSeries, "lone", lambda self, wp: None)
                one = s21_probe(grid, system, sig)
            assert type(blocks) is type(one), (np.size(grid), sig)
            assert np.array_equal(blocks, one), (np.size(grid), sig)


def _bits(value):
    return type(value), np.shape(value), np.asarray(value).tobytes()


def _counted(series):
    """The series class, counting the instances it makes in `made`."""
    class Counted(series):
        made = 0

        def __init__(self, *args):
            type(self).made += 1
            super().__init__(*args)
    return Counted


@pytest.mark.parametrize("light, nbar", [
    *(pytest.param("coherent", nbar, id=str(nbar)) for nbar in (0.0, 3.0, 200.0)),
    pytest.param("incoherent", 3.0, id="incoherent-3.0")])
def test_bound_response_keeps_each_qubits_constants(light, nbar, monkeypatch):
    # one binding serves two distinct qubits in turn, both rotating branches
    # and every form of probe argument: it makes each qubit's constants once
    # and gives the bits of a fresh evaluation, of the general path and of
    # the grid; at nbar 200 a lone point's series runs past its first block,
    # and incoherent light at nbar 3 runs past 64 terms, so its constants
    # hold the pole's too.  Constants are found by the qubit's identity: an
    # equal qubit that is another object makes its own, with the same bits
    fp = FIGURES["fig1"]
    first = fp.system().qubits[0]
    second = QubitParams(omega_q=first.omega_q + 3.0*first.chi,
                         chi=0.6*first.chi, gamma=2.0*first.gamma,
                         gamma_phi=first.gamma)
    system = SystemParams(fp.system().cavity, (first, second))
    if light == "coherent":
        sig = Vacuum() if nbar == 0 else Coherent(nbar=nbar)
        _, field = cavity_photon_number(sig, system)
        kernel, name = det.qubit_response_coherent, "_CoherentSeries"
    else:
        sig = Incoherent(nbar=nbar)
        field, _ = cavity_photon_number(sig, system)
        kernel, name = det.qubit_response_incoherent, "_IncoherentSeries"
    grid = fp.probe_grid_default(9)
    cases = [(q, sign*arg) for q in (first, second, first, second)
             for sign in (1.0, -1.0)
             for arg in (float(grid[3]), np.array(grid[3]), grid[3:4], grid)]
    counted = _counted(getattr(det, name))
    monkeypatch.setattr(det, name, counted)
    respond = response_function(system, sig)
    bound = [respond(arg, q) for q, arg in cases]
    assert counted.made == 2
    twin = replace(first)
    assert twin == first and twin is not first
    for _ in range(2):
        assert _bits(respond(grid, twin)) == _bits(respond(grid, first))
    assert counted.made == 3
    for (q, arg), got in zip(cases, bound):
        fresh = kernel(arg, q, system, field)
        with monkeypatch.context() as m:
            m.setattr(det._CoherentSeries, "lone", lambda self, wp: None)
            general = kernel(arg, q, system, field)
        assert _bits(got) == _bits(fresh) == _bits(general), (q, arg)
        if np.size(arg) == 1:
            on_grid = respond(np.copysign(grid, arg), q)
            assert np.ravel(got)[0] == on_grid[3], (q, arg)


@pytest.mark.parametrize("nbar", [1.0, 3.0, 10.0])
def test_lone_point_keeps_its_grid_bits(nbar):
    # the benchmark's oracle-check grid: every lone point, on both rotating
    # branches, sums its precomputed block to the bits of the 401-point
    # grid; its stopping test starts at term ceil(|W|), after a prefix of
    # 3 terms at nbar 3 and 10 at nbar 10
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    sig = Coherent(nbar=nbar)
    _, beta = cavity_photon_number(sig, system)
    series = det._CoherentSeries(q, system, beta, None)
    assert series.bounded and series.first == {1.0: 1, 3.0: 3, 10.0: 10}[nbar]
    respond = response_function(system, sig)
    grid = fp.probe_grid_default(401)
    for branch in (grid, -grid):
        whole = respond(branch, q)
        for i, wp in enumerate(branch.tolist()):
            assert series.lone(wp) is not None, i
            assert _bits(respond(wp, q)) == _bits(complex(whole[i])), i


@pytest.mark.parametrize("nbar", [1.0, 3.0, 30.0])
@pytest.mark.parametrize("preset", ["fig3", "fig7"])
def test_lone_point_keeps_its_grid_bits_on_fig3_and_fig7(preset, nbar):
    # the one float path with arithmetic of its own: a lone point tests its
    # stop with Python's abs, whose last bit differs from numpy's on about a
    # third of complex values, yet it stops where the grid does, with the
    # grid's bits, on both rotating branches of a 401-point grid (at nbar 30
    # its 64 rows do not stop the series, and every point takes the grid's
    # path)
    fp = FIGURES[preset]
    system = fp.system()
    q = system.qubits[0]
    respond = response_function(system, Coherent(nbar=nbar))
    grid = fp.probe_grid_default(401)
    for branch in (grid, -grid):
        whole = respond(branch, q)
        for i, wp in enumerate(branch.tolist()):
            assert _bits(respond(wp, q)) == _bits(complex(whole[i])), i


def test_lone_point_divides_past_end_only_where_needed():
    # a lone point divides the rows up to the series' expected end first
    # (18 of 64 on fig1 at nbar 1) and the rest of its block only where
    # those rows do not stop the series, about one point in twelve here;
    # either way it has the bits of the whole block
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    _, beta = cavity_photon_number(Coherent(nbar=1.0), system)
    series = det._CoherentSeries(q, system, beta, None)
    (head, _, _), (tail, steps, _) = series.blocks
    assert head.size == series.end == 18 and head.size + tail.size == 64
    whole = det._CoherentSeries(q, system, beta, None)
    whole.blocks = ((np.concatenate((head, tail)),
                     np.concatenate((series.blocks[0][1], steps)), series.first),)
    grid = fp.probe_grid_default(401)
    points = np.concatenate((grid, -grid)).tolist()
    split = [series.lone(wp) for wp in points]
    assert [_bits(value) for value in split] == [
        _bits(whole.lone(wp)) for wp in points]
    # a tail of nan weights moves only the points that read it
    series.blocks = series.blocks[0], (np.full(tail.shape, np.nan), steps, 0)
    moved = sum(series.lone(wp) != value for wp, value in zip(points, split))
    assert 0 < moved < len(points)//10


def test_lone_zero_divisor_raises_the_grids_error():
    # no qubit decay and no photons: D_0 = 0 at omega_p = omega_q, so the
    # series is out of its bounds and `lone` hands the point to the general
    # path, which raises the grid's error; a nan probe point takes the same
    # path, and neither warns
    fp = FIGURES["fig1"]
    first = fp.system().qubits[0]
    still = replace(first, gamma=0.0, gamma_phi=0.0)
    system = SystemParams(fp.system().cavity, (still,))
    series = det._CoherentSeries(still, system, 0j, None)
    assert not series.bounded
    respond = response_function(system, Vacuum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wp in (still.omega_q, float("nan")):
            with pytest.raises(ConvergenceError) as lone:
                respond(wp, still)
            with pytest.raises(ConvergenceError) as grid:
                respond(np.array([still.omega_q - still.chi, wp]), still)
            assert str(lone.value) == str(grid.value), wp
        # an infinite point divides every weight to 0 on the bounded path too
        respond = response_function(fp.system(), Coherent(nbar=1.0))
        assert respond(float("inf"), first) == respond(-float("inf"), first) == 0


def test_replaced_signal_gets_fresh_constants():
    # a signal changed by dataclasses.replace binds anew, and an earlier
    # binding keeps its own field
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    wp = float(fp.probe_grid_default(9)[3])
    sig = Coherent(nbar=1.0)
    respond = response_function(system, sig)
    before = respond(wp, q)
    for nbar in (3.0, 30.0, 1.0):
        other = replace(sig, nbar=nbar)
        _, beta = cavity_photon_number(other, system)
        got = response_function(system, other)(wp, q)
        assert got == det.qubit_response_coherent(wp, q, system, beta), nbar
        assert (got == before) == (nbar == 1.0)
        assert s21_probe(wp, system, other) == s21_probe(
            np.array([wp]), system, other)[0]
    assert respond(wp, q) == before


def _spectrum_bits(value):
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("preset", ["fig1", "fig3", "fig5q"])
def test_bound_incoherent_response_forms_its_coefficients_once(preset,
                                                                monkeypatch):
    # both rotating branches of a bound incoherent response share its far
    # lanes' coefficients and, where the series is long, the pole's: one
    # `s21_probe` forms each set once, also for five identical qubits, and
    # gives the bits of a kernel that forms them at every call
    fp = FIGURES[preset]
    system = fp.system()
    grid = fp.probe_grid_default(101)
    formed = []
    reciprocal, kernel = det._reciprocal, det.qubit_response_incoherent
    monkeypatch.setattr(det, "_reciprocal",
                        lambda coefs: formed.append(1) or reciprocal(coefs))
    for nbar in (1.0, 10.0, 30.0):
        sig = Incoherent(nbar=nbar)
        formed.clear()
        bound = s21_probe(grid, system, sig)
        # from nbar 10 on, a pole is taken out as well
        assert len(formed) == (1 if nbar == 1.0 else 2), nbar
        with monkeypatch.context() as m:
            m.setattr(det, "qubit_response_incoherent",
                      lambda *args: kernel(*args[:5]))
            formed.clear()
            unbound = s21_probe(grid, system, sig)
        assert len(formed) > (1 if nbar == 1.0 else 2), nbar
        assert _spectrum_bits(bound) == _spectrum_bits(unbound), nbar


def test_series_tail_takes_one_short_block(monkeypatch):
    # fig1 incoherent at nbar 2 on 101 points: the 63 co-rotating lanes
    # that the pole leaves take a block of 64 terms, and the 7 terms left
    # before the series' end (71) one block of 7, not a pass per term;
    # the sums are those of one term at a time
    fp = FIGURES["fig1"]
    system = fp.system()
    q = system.qubits[0]
    grid = fp.probe_grid_default(101)
    passes = []

    def counted(method, rows):
        def spy(self, terms, *stop):
            passes.append(rows(terms))
            return method(self, terms, *stop)
        return spy
    monkeypatch.setattr(det._Lanes, "add", counted(det._Lanes.add, lambda t: 1))
    monkeypatch.setattr(det._Lanes, "add_block",
                        counted(det._Lanes.add_block, len))
    blocks = det.qubit_response_incoherent(grid, q, system, 2.0)
    assert passes == [64, 7]
    monkeypatch.setattr(det, "_BLOCK_MIN_ROWS", det._TERM_CAP + 1)
    passes.clear()
    one = det.qubit_response_incoherent(grid, q, system, 2.0)
    assert len(passes) > 64 and set(passes) == {1}
    assert _spectrum_bits(blocks) == _spectrum_bits(one)


@pytest.mark.filterwarnings("ignore:comb approximation needs")
@pytest.mark.parametrize("preset", ["fig1", "fig5q"])
def test_comb_blocks_equal_one_sideband_at_a_time(preset, monkeypatch):
    # on a grid of few points the comb adds a block of sidebands per pass,
    # in order: no bit moves against one sideband at a time
    fp = FIGURES[preset]
    system = fp.system()
    sigs = [Coherent(nbar=200.0), Incoherent(nbar=10.0),
            Incoherent(nbar=30.0), Thermal(tau_c=fp.tau_c, nbar=3.0)]
    for grid in (float(fp.probe_grid_default(7)[2]),
                 fp.probe_grid_default(101), fp.probe_grid_default(401)):
        for sig in sigs:
            blocks = comb_spectrum(grid, system, sig)
            with monkeypatch.context() as m:
                m.setattr(det, "_BLOCK_MIN_ROWS", det._TERM_CAP + 1)
                one = comb_spectrum(grid, system, sig)
            assert type(blocks) is type(one)
            assert _spectrum_bits(blocks) == _spectrum_bits(one), (
                np.size(grid), sig)


def test_incoherent_cap_inside_a_block():
    # 11 lanes take blocks of 64 terms; the 5000-term cap falls 8 terms into
    # the 79th block and still stops the sum at exactly 5000 terms; a lone
    # point, a grid of one lane, too
    fp = FIGURES["fig1"]
    grid = fp.probe_grid_default(11)
    for omega_p in (grid, float(grid[5])):
        with pytest.raises(ConvergenceError,
                           match="incoherent response series cap at nbar=400"):
            sweep(fp.system(), Incoherent(nbar=400.0), omega_p)


def test_thermal_cap_inside_a_block():
    # the thermal series takes blocks of 64 terms as well, and its cap too
    # falls 8 terms into the 79th block
    fp = FIGURES["fig1"]
    grid = fp.probe_grid_default(11)
    for omega_p in (grid, float(grid[5])):
        with pytest.raises(ConvergenceError,
                           match="thermal response series cap at nbar=1e\\+03"):
            sweep(fp.system(), Thermal(tau_c=fp.tau_c, nbar=1000.0), omega_p)


def test_empty_grid_gives_empty_spectrum():
    # no lane to sum: every kernel returns an empty array of the grid's shape
    fp = FIGURES["fig1"]
    system = fp.system()
    for sig in _states(fp).values():
        for grid in ([], np.zeros((0, 3))):
            s21 = s21_probe(np.asarray(grid, dtype=float), system, sig)
            assert s21.shape == np.shape(grid) and s21.dtype == complex, sig
        assert sweep(system, sig, []).s21.shape == (0,), sig


def _run_lanes(terms, stop, heights):
    """Feed the rows of terms to _Lanes, `heights` rows per add_block call
    (0 for one add per row); returns the state after every call."""
    lanes = det._Lanes(np.zeros(terms.shape[1]))
    states, row = [], 0
    for height in heights:
        if height:
            block = terms[row:row + height][:, lanes.active]
            lanes.add_block(block, stop[row:row + height])
            row += height
        else:
            lanes.add(terms[row, lanes.active], stop[row])
            row += 1
        states.append((row, lanes.active.copy(), lanes.total.copy(),
                       lanes.small1.copy(), lanes.small2.copy(),
                       lanes.out[np.setdiff1d(np.arange(terms.shape[1]), lanes.active)]))
    return states


def test_lanes_add_block_equals_add():
    rng = np.random.default_rng(5)
    rows = 24
    terms = rng.normal(size=(rows, 8)) + 1j*rng.normal(size=(rows, 8))
    # a lane turns quiet at row q: it stops at the third quiet row with a stop
    # flag, the first of which is row 3.  Lanes stop at rows 5, 10, 11, 12
    # and 16; in blocks of 4, 6, 6 and 8 rows that is inside a block and at
    # rows 0, 1 and 2 of one, with the small flags of the rows before carried
    # into it.  Lane 5 turns NaN and never stops, lanes 6 and 7 never turn
    # quiet.
    for lane, quiet in enumerate((1, 8, 9, 10, 14)):
        terms[quiet:, lane] *= 1e-14
    terms[2:, 5] = np.nan
    stop = np.arange(rows) >= 3
    one = _run_lanes(terms, stop, [0]*rows)
    for schedule in ((4, 6, 6, 8), (rows,), (1,)*rows, (3, 1, 2, 9, 9)):
        blocks = _run_lanes(terms, stop, schedule)
        for state in blocks:
            ref = one[state[0] - 1]
            assert ref[0] == state[0]
            for got, want in zip(state[1:], ref[1:]):
                assert np.array_equal(got, want, equal_nan=True), schedule
    assert np.array_equal(one[-1][1], [5, 6, 7])


def test_identical_qubits_add_up():
    fp = FIGURES["fig5q"]
    system = fp.system()
    assert len(system.qubits) == 5
    grid = fp.probe_grid_default(201)
    gc, omega_c = system.cavity.gamma_c, system.cavity.omega_c
    for sig in (Coherent(nbar=1.0), Incoherent(nbar=1.0)):
        respond = response_function(system, sig)
        q = system.qubits[0]
        one = (0.5j*gc*respond(grid, q)/(grid - omega_c + 0.5j*gc)
               + 0.5j*gc*np.conj(respond(-grid, q))/(grid + omega_c + 0.5j*gc))
        parts = {}
        total = s21_probe(grid, system, sig, parts=parts)
        assert sorted(parts) == ["cavity"] + [f"qubit_{i}" for i in range(5)]
        for i in range(5):
            assert np.array_equal(parts[f"qubit_{i}"], one)
        expect = parts["cavity"] + 5.0*one
        assert np.all(np.abs(total - expect) <= 1e-14*np.abs(expect))


def test_comb_sweep_warns_once():
    fp = FIGURES["fig5q"]   # gamma_c = chi: outside the comb's validity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(fp.system(), Coherent(nbar=fp.nbar), fp.probe_grid_default(2001),
              model="comb")
    assert len(caught) == 1
    assert "comb approximation" in str(caught[0].message)


def _lossless_system():
    q = QubitParams(omega_q=2*np.pi*10e9, chi=2*np.pi*10e6, gamma=0.0,
                    gamma_phi=0.0)
    return SystemParams(CavityParams(2*np.pi*9e9, 2*np.pi*100e3), (q,)), q


@pytest.mark.parametrize("sig", [Vacuum(), Incoherent(nbar=1.0)],
                         ids=["vacuum", "incoherent"])
def test_pole_on_grid_raises(sig):
    # with gamma = gamma_phi = 0 the response has a pole at omega_q itself
    system, q = _lossless_system()
    grid = np.array([q.omega_q - q.chi, q.omega_q, q.omega_q + q.chi])
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no silent NaN from numpy either
        with pytest.raises(ConvergenceError, match="not finite at omega_p = "
                           f"{q.omega_q:.17g}"):
            sweep(system, sig, grid)
        off = sweep(system, sig, grid[[0, 2]])
    assert np.all(np.isfinite(off.s21))


@pytest.mark.parametrize("preset", ["fig1", "fig7"])
def test_thermal_large_nbar(preset):
    # the thermal series carries one geometric factor per term: where the
    # two rates apart would overflow (fig1 and fig7 from nbar 10 on) the
    # spectrum comes back, and the series stops only at its term cap
    fp = FIGURES[preset]
    system, grid = fp.system(), fp.probe_grid_default(51)
    for nbar in (10.0, 100.0):
        spec = sweep(system, Thermal(tau_c=fp.tau_c, nbar=nbar), grid)
        assert np.all(np.isfinite(spec.s21)), nbar
    with pytest.raises(ConvergenceError, match="series cap"):
        sweep(system, Thermal(tau_c=fp.tau_c, nbar=1000.0), grid)


@pytest.mark.parametrize("model", ["full", "comb"])
def test_thermal_sweep_warns_once(model):
    # gamma_c tau_c > 0.1: one warning per sweep, not one per kernel call
    fp = FIGURES["fig1"]
    system = fp.system()
    tau_c = 0.2/system.cavity.gamma_c
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(system, Thermal(tau_c=tau_c, nbar=1.0), fp.probe_grid_default(51),
              model=model)
    assert [str(w.message) for w in caught] == [
        "gamma_c tau_c = 0.200 > 0.1: thermal model assumes a short "
        "coherence time"]
    # the warning names the line that called sweep, not one inside it
    assert [w.filename for w in caught] == [__file__]


def test_comb_sweep_warning_points_at_caller():
    fp = FIGURES["fig4"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(fp.system(), Coherent(nbar=1.0), fp.probe_grid_default(21),
              model="comb")
    assert [str(w.message) for w in caught] == [
        "comb approximation needs gamma_c << chi (ratio 5000.00)"]
    assert [w.filename for w in caught] == [__file__]


def test_s21_probe_cavity_term_is_s21_signal():
    fp = FIGURES["fig1"]
    system, grid = fp.system(), fp.probe_grid_default(51)
    parts = {}
    s21_probe(grid, system, Vacuum(), parts=parts)
    assert np.array_equal(parts["cavity"], det.s21_signal(grid, system))
