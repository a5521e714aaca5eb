import ast
import cmath
import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest

from starkprobe.detector import (CavityParams, Coherent, Incoherent,
                                 QubitParams, SystemParams, Thermal, Vacuum,
                                 cavity_photon_number,
                                 qubit_response_coherent,
                                 qubit_response_incoherent,
                                 signal_frequency)
from starkprobe import oracle, tridiagonal
from starkprobe.oracle import check_supported, lindblad_steady_response
from starkprobe.presets import FIGURES
from starkprobe.specfun import ConvergenceError

from closedform import coherent_response_closed, coherent_series_mp
from fockref import (FockOperatorSpace, liouvillian, propagator_vacuum_element,
                     steady_state)

TWO_PI = 2.0*math.pi
FIG1 = FIGURES["fig1"].system()
Q1 = FIG1.qubits[0]


# ---------------------------------------------------------------------------
# bare propagator element

def test_propagator_diagonal_case():
    space = FockOperatorSpace(16)
    w0 = 1.3 - 0.2j
    got = propagator_vacuum_element(space, w0, 0.7 + 0.1j, 0.0)
    assert abs(got - 1.0/w0) < 1e-14


def test_propagator_matches_closed_form():
    # displaced-oscillator element against the confluent-hypergeometric
    # closed form of tests/closedform.py
    space = FockOperatorSpace(40)
    chi, gc = Q1.chi, FIG1.cavity.gamma_c
    omega = FIG1.omega_c_star
    nbar = 1.0
    beta = math.sqrt(nbar)
    w = FIG1.omega_c_star + 2.0*chi - omega - 0.5j*gc
    for dwp in (-1.0, 0.5, 2.0):
        wp = Q1.omega_q + dwp*2.0*chi
        w0 = wp - Q1.omega_q - 2.0*chi*nbar + 1j*Q1.gamma_coh
        elem = propagator_vacuum_element(space, w0, w, 2.0*chi*beta)
        closed = coherent_response_closed(wp, Q1, FIG1, beta)/chi
        assert abs(elem - closed) < 1e-8*abs(closed)


def test_propagator_perturbative_in_intensity():
    space = FockOperatorSpace(24)
    w0 = 2.0 - 0.4j
    w = 1.1 - 0.05j
    b0 = 0.02
    base = propagator_vacuum_element(space, w0, w, 0.0)
    grad = (propagator_vacuum_element(space, w0, w, b0) - base)/b0**2
    grad2 = (propagator_vacuum_element(space, w0, w, b0/2.0) - base)/(b0/2.0)**2
    # analytic first order: dG/d|b|^2 = 1/(w0^2 (w0 - w)); Richardson
    # extrapolation in |b|^2 removes the leading quartic term
    ref = 1.0/(w0*w0*(w0 - w))
    assert abs(grad - ref) < 5e-3*abs(ref)
    assert abs((4.0*grad2 - grad)/3.0 - ref) < 1e-6*abs(ref)


def test_propagator_truncation_convergence():
    chi, gc = Q1.chi, FIG1.cavity.gamma_c
    w = 2.0*chi - 0.5j*gc
    w0 = 1.5*chi + 1j*Q1.gamma_coh
    b = 2.0*chi*math.sqrt(2.0)
    small = propagator_vacuum_element(FockOperatorSpace(40), w0, w, b)
    big = propagator_vacuum_element(FockOperatorSpace(80), w0, w, b)
    assert abs(small - big) < 1e-9*abs(big)


def test_oracle_rejects_tiny_space():
    # n_fock >= 4 is part of the oracle's stated domain
    with pytest.raises(ValueError, match="n_fock"):
        check_supported(FIG1, Vacuum(), 3)
    with pytest.raises(ValueError, match="n_fock"):
        lindblad_steady_response(FIG1, Vacuum(), Q1.omega_q, 3)
    assert check_supported(FIG1, Vacuum(), 4) == (Q1, 0j)


def test_fock_space_algebra():
    space = FockOperatorSpace(12)
    num = space.raising @ space.lowering
    assert np.allclose(np.diag(num), np.arange(12))
    assert np.max(np.abs(num - np.diag(np.diag(num)))) == 0.0
    comm = space.lowering @ space.raising - num
    # canonical commutator holds below the truncation edge
    assert np.allclose(np.diag(comm)[:-1], 1.0)


# ---------------------------------------------------------------------------
# Lindblad sideband response

def test_lindblad_free_cavity_amplitude():
    # no qubit pull: chi -> tiny; <a> = (Omega_p/2)/(omega_p - omega_c* + i gc/2)
    qubit = QubitParams(omega_q=Q1.omega_q, chi=1e-6*Q1.chi, gamma=Q1.gamma,
                        gamma_phi=0.0)
    params = SystemParams(FIG1.cavity, (qubit,))
    wp = params.omega_c_star + 3.0*params.cavity.gamma_c
    got = lindblad_steady_response(params, Vacuum(), wp, 16)
    ref = 0.5/(wp - params.omega_c_star + 0.5j*params.cavity.gamma_c)
    assert abs(got.a_expect - ref) < 1e-10*abs(ref)
    assert got.residual < 1e-8


def test_lindblad_vacuum_matches_lorentzian():
    for dwp in (-2.0, 0.0, 1.5):
        wp = Q1.omega_q + dwp*Q1.chi
        got = lindblad_steady_response(FIG1, Vacuum(), wp, 24)
        ref = Q1.chi/(wp - Q1.omega_q + 1j*Q1.gamma_coh)
        assert abs(got.sigma_minus - ref) < 1e-8*abs(ref)


def test_lindblad_matches_coherent_series():
    sig = Coherent(nbar=1.0)
    _, beta = cavity_photon_number(sig, FIG1)
    worst = 0.0
    for dwp in np.linspace(-2.0, 3.0, 21):
        wp = Q1.omega_q + dwp*2.0*Q1.chi
        orc = lindblad_steady_response(FIG1, sig, wp, 40)
        ana = qubit_response_coherent(wp, Q1, FIG1, beta)
        worst = max(worst, abs(orc.sigma_minus - ana)/abs(ana))
    assert worst < 1e-6


def test_lindblad_detuned_signal():
    gc = FIG1.cavity.gamma_c
    sig = Coherent(flux=gc/2.0, signal_omega=FIG1.omega_c_star + gc/3.0)
    _, beta = cavity_photon_number(sig, FIG1)
    wp = Q1.omega_q + 2.0*Q1.chi
    orc = lindblad_steady_response(FIG1, sig, wp, 40)
    ana = qubit_response_coherent(wp, Q1, FIG1, beta,
                                  signal_omega=sig.signal_omega)
    assert abs(orc.sigma_minus - ana) < 1e-8*abs(ana)


def test_lindblad_truncation_doubling():
    sig = Coherent(nbar=2.0)
    wp = Q1.omega_q + 4.0*Q1.chi
    a = lindblad_steady_response(FIG1, sig, wp, 40).sigma_minus
    b = lindblad_steady_response(FIG1, sig, wp, 80).sigma_minus
    assert abs(a - b) < 1e-9*abs(b)


def test_lindblad_guards():
    for sig in (Thermal(tau_c=1e-12, nbar=1.0), Incoherent(nbar=1.0)):
        with pytest.raises(ValueError, match="vacuum and coherent"):
            lindblad_steady_response(FIG1, sig, Q1.omega_q, 16)
        with pytest.raises(ValueError, match="vacuum and coherent"):
            liouvillian(FIG1, sig, 8)
        with pytest.raises(ValueError, match="vacuum and coherent"):
            steady_state(FIG1, sig, 8)
    two = SystemParams(FIG1.cavity, (Q1, Q1))
    with pytest.raises(ValueError):
        lindblad_steady_response(two, Vacuum(), Q1.omega_q, 16)
    # probing at the signal frequency leaves the ground block singular, at
    # one point or anywhere on a grid
    with pytest.raises(ArithmeticError, match="ground block"):
        lindblad_steady_response(FIG1, Vacuum(), FIG1.omega_c_star, 16)
    grid = np.array([Q1.omega_q, FIG1.omega_c_star])
    with pytest.raises(ArithmeticError, match="ground block"):
        lindblad_steady_response(FIG1, Vacuum(), grid, n_fock=16)
    # nbar above 3 returns too
    for nbar in (4.0, 9.0):
        got = lindblad_steady_response(FIG1, Coherent(nbar=nbar), Q1.omega_q)
        assert cmath.isfinite(got.sigma_minus) and got.residual <= 1e-13


def test_lindblad_zero_denominator():
    # no qubit decay and no photons: the last denominator is d_0 = 0
    # at omega_p = omega_q, a ZeroDivisionError for a point and an
    # ArithmeticError, with no RuntimeWarning, for a grid
    still = QubitParams(omega_q=Q1.omega_q, chi=Q1.chi, gamma=0.0,
                        gamma_phi=0.0)
    params = SystemParams(FIG1.cavity, (still,))
    with pytest.raises(ZeroDivisionError):
        lindblad_steady_response(params, Vacuum(), Q1.omega_q, n_fock=16)
    grid = np.array([Q1.omega_q - Q1.chi, Q1.omega_q])
    with pytest.raises(ArithmeticError, match="not finite"):
        lindblad_steady_response(params, Vacuum(), grid, n_fock=16)


# sigma^- recorded with the dense solve of both sector blocks, at
# omega_p = omega_q + x 2 chi for x = -1, 0.5, 2 (the same at n_fock 40 and
# 80); the continued fraction rounds differently, by up to 3e-14
PINNED_SIGMA = {
    0.0: (-0.49998046951290526-0.0031248779344556304j,
          0.9998437744103004-0.012498047180129401j,
          0.24999755861758946-0.0007812423706799602j),
    1.0: (-0.31604937548423323-0.0016445537650777752j,
          -0.07609958988402322-0.0176733885026416j,
          0.2712352510120579-6.692542012503826j),
    3.0: (-0.15836576437814706-0.0004994056219362719j,
          -0.2612014565164862-0.007029850470245877j,
          -0.12891783123672942-5.980476073720629j),
}


@pytest.mark.parametrize("n_fock", [40, 80])
@pytest.mark.parametrize("nbar", sorted(PINNED_SIGMA))
def test_lindblad_sigma_pinned(n_fock, nbar):
    sig = Coherent(nbar=nbar)
    for x, ref in zip((-1.0, 0.5, 2.0), PINNED_SIGMA[nbar]):
        wp = Q1.omega_q + x*2.0*Q1.chi
        got = lindblad_steady_response(FIG1, sig, wp, n_fock).sigma_minus
        assert abs(got - ref) <= 1e-13*abs(ref)


def _dense_sigma(params, sig, grid, n_fock):
    """chi <0|block^-1|0> of the excited block by the dense solve of
    tests/fockref.py."""
    qubit = params.qubits[0]
    _, beta = cavity_photon_number(sig, params)
    chi, gc = qubit.chi, params.cavity.gamma_c
    space = FockOperatorSpace(n_fock)
    pull = 2.0*chi + (params.omega_c_star - signal_frequency(sig, params)
                      - 0.5j*gc)
    return np.array([chi*propagator_vacuum_element(
        space, (wp - qubit.omega_q + 1j*qubit.gamma_coh) - 2.0*chi*abs(beta)**2,
        pull, 2.0*chi*beta) for wp in grid])


@pytest.mark.parametrize("n_fock", [40, 80])
def test_fraction_matches_dense_solve(n_fock):
    grid = FIGURES["fig1"].probe_grid_default(41)
    for nbar in (0.0, 0.5, 1.0, 2.0, 3.0):
        sig = Coherent(nbar=nbar)
        got = lindblad_steady_response(FIG1, sig, grid, n_fock=n_fock)
        ref = _dense_sigma(FIG1, sig, grid, n_fock)
        assert np.max(np.abs(got.sigma_minus - ref)/np.abs(ref)) <= 1e-13, nbar


def test_fraction_matches_dense_solve_at_nbar_1000():
    # the sized truncation (1420 levels) at three points of the fig1 grid
    sig = Coherent(nbar=1000.0)
    grid = FIGURES["fig1"].probe_grid_default(41)[[3, 20, 37]]
    got = lindblad_steady_response(FIG1, sig, grid)
    assert got.n_fock == 1420
    ref = _dense_sigma(FIG1, sig, grid, got.n_fock)
    assert np.max(np.abs(got.sigma_minus - ref)/np.abs(ref)) <= 1e-13


def test_point_equals_grid_bit_for_bit():
    # at one truncation; a sized grid takes the truncation its worst point
    # needs, which a point alone may not
    grid = FIGURES["fig1"].probe_grid_default(41)
    for nbar, n_fock in ((0.0, 40), (2.0, 80), (30.0, None)):
        sig = Coherent(nbar=nbar)
        whole = lindblad_steady_response(FIG1, sig, grid, n_fock=n_fock)
        for i, wp in enumerate(grid):
            alone = lindblad_steady_response(FIG1, sig, wp, n_fock=n_fock)
            assert alone.n_fock <= whole.n_fock
            one = lindblad_steady_response(FIG1, sig, wp, n_fock=whole.n_fock)
            assert isinstance(one.sigma_minus, complex)
            assert one.sigma_minus == whole.sigma_minus[i]
            assert one.a_expect == whole.a_expect[i]
            assert one.residual <= whole.residual


def _fraction_walk(levels, num, x, block):
    """num/g_0 over `levels` levels of a `tridiagonal.Block`, each level's
    d_k and q k formed as it is reached, in the expressions of
    `tridiagonal._levels`."""
    u, v, y, h, q = block.u, block.v, block.y, block.h, block.q
    k = float(levels - 1)
    gr, gi = x - (u + k*v), y + k*h
    while k:
        s = q*k/(gr*gr + gi*gi)
        k -= 1.0
        gr, gi = x - (u + k*v) - s*gr, y + k*h + s*gi
    s = num/(gr*gr + gi*gi)
    return complex(s*gr, -s*gi)


def _spy_on_tables(monkeypatch) -> list:
    """The sizes of every per-level table formed from here on."""
    sizes = []
    levels = tridiagonal._levels

    def spy(size, *consts):
        sizes.append(size)
        return levels(size, *consts)
    monkeypatch.setattr(tridiagonal, "_levels", spy)
    return sizes


def test_fraction_tables_are_kept_per_block():
    # `tridiagonal` keeps no state of its own: its module holds functions,
    # `Block`, the table bound and the truncation's cap and tolerance only,
    # and a block that the caller holds is the only place its per-level
    # table is kept
    state = {name: value for name, value in vars(tridiagonal).items()
             if not name.startswith("__") and not inspect.isfunction(value)
             and not inspect.ismodule(value)}
    assert state == {"Block": tridiagonal.Block, "_CACHED_LEVELS": 2048,
                     "MAX_FOCK": 20000, "TOLERANCE": 1e-13}
    # a per-level table hangs on every constant of the block, not only on
    # the level count: blocks with the same 40 (then 60) levels, called in
    # turn, give the bits of a walk of their own diagonal and each keep a
    # table of their own
    base = dict(u=4.0e8, v=6.3e7, y=8.0e5, h=3.1e5, q=2.5e15)
    blocks = [tridiagonal.Block(**base)] + [
        tridiagonal.Block(**{**base, key: 1.25*base[key]}) for key in base]
    num, x = 6.3e7, 1.7e8
    for levels in (40, 60):
        for _ in range(2):
            for i, block in enumerate(blocks):
                got = tridiagonal.fraction(levels, num, x, block)
                assert got == _fraction_walk(levels, num, x, block), i
    assert all(len(block.rows) == 60 for block in blocks)
    rows = [block.rows for block in blocks]
    assert all(a != b for i, a in enumerate(rows) for b in rows[i + 1:])
    # through the oracle: each binding keeps its own table, and alternating
    # signals read no stale table
    wp = float(FIGURES["fig1"].probe_grid_default(9)[3])
    sigs = {nbar: Coherent(nbar=nbar) for nbar in (1.0, 3.0)}
    turns = [lindblad_steady_response(FIG1, sigs[nbar], wp, 40)
             for nbar in (1.0, 3.0, 1.0, 3.0)]
    for nbar, got in zip((1.0, 3.0), turns):
        fresh = lindblad_steady_response(FIG1, Coherent(nbar=nbar), wp, 40)
        assert (got.sigma_minus, got.residual) == (fresh.sigma_minus,
                                                   fresh.residual), nbar
    assert turns[:2] == turns[2:]
    kept = [oracle._bind(FIG1, sig, 40).block for sig in sigs.values()]
    assert kept[0] is not kept[1] and kept[0].rows != kept[1].rows
    assert [len(block.rows) for block in kept] == [60, 60]


def test_one_table_serves_every_smaller_truncation(monkeypatch):
    # a block keeps the table of the most levels read so far, up to
    # _CACHED_LEVELS, and a smaller truncation reads its bottom rows: after
    # explicit truncations at 40 and 80 with their checks (60 and 120),
    # sized calls on the same pair (64 levels, checked at 96) form no table
    sig = Coherent(nbar=3.0)
    grid = FIGURES["fig1"].probe_grid_default(41)
    for n_fock in (40, 80):
        for wp in (float(grid[7]), grid):
            lindblad_steady_response(FIG1, sig, wp, n_fock).residual
    block = oracle._bind(FIG1, sig, None).block
    consts = (block.u, block.v, block.y, block.h, block.q)
    assert block.rows == tridiagonal._levels(120, *consts)
    # the last M rows of a table are the table of M levels, to the bit
    for levels in (1, 4, 40, 64, 96, 119):
        assert block.rows[-levels:] == tridiagonal._levels(levels, *consts)
    sizes = _spy_on_tables(monkeypatch)
    for wp in grid[::4]:
        got = lindblad_steady_response(FIG1, sig, float(wp))
        assert got.n_fock == 64
    assert sizes == []
    # every level count gives the walk's bits: below, at and above the kept
    # size, where the block keeps the larger table, and past _CACHED_LEVELS,
    # where it keeps none
    big = tridiagonal._CACHED_LEVELS
    num, x = Q1.chi, float(grid[7]) - Q1.omega_q
    for levels, kept in ((4, 120), (64, 120), (119, 120), (120, 120),
                         (121, 121), (200, 200), (100, 200), (big, big),
                         (big + 1, big), (150, big)):
        got = tridiagonal.fraction(levels, num, x, block)
        assert got == _fraction_walk(levels, num, x, block), levels
        assert len(block.rows) == kept, levels
    assert sizes == [121, 200, big, big + 1]


def test_tridiagonal_imports_only_the_standard_library_and_numpy():
    # the recurrence is a leaf: it imports nothing from the package, so a
    # response kernel in `detector` can call it as the oracle does
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(tridiagonal))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.module
            names.add(node.module)
    tops = {name.split(".")[0] for name in names}
    assert "numpy" in tops
    assert tops - {"numpy"} <= set(sys.stdlib_module_names), tops


def test_explicit_residual_is_the_change_to_1_5_n_fock():
    sig = Coherent(nbar=3.0)
    grid = FIGURES["fig1"].probe_grid_default(41)
    at_40 = lindblad_steady_response(FIG1, sig, grid, n_fock=40)
    at_60 = lindblad_steady_response(FIG1, sig, grid, n_fock=60)
    assert at_40.n_fock == 40
    change = np.abs(at_40.sigma_minus - at_60.sigma_minus)/np.abs(at_60.sigma_minus)
    assert at_40.residual == change.max()
    assert 1e-8 < at_40.residual < 1e-6
    # a lone point's residual is its change to 1.5 n_fock as well, in floats
    for n_fock in (40, 80):
        whole = lindblad_steady_response(FIG1, sig, grid, n_fock=n_fock)
        for i in (3, 20):
            wp = float(grid[i])
            alone = lindblad_steady_response(FIG1, sig, wp, n_fock=n_fock)
            check = lindblad_steady_response(FIG1, sig, wp,
                                             n_fock=math.ceil(1.5*n_fock))
            assert alone.n_fock == n_fock
            assert alone.sigma_minus == whole.sigma_minus[i]
            assert alone.residual == (abs(alone.sigma_minus - check.sigma_minus)
                                      /abs(check.sigma_minus))


def _spy_on_recurrence(monkeypatch) -> list:
    """The levels of every `tridiagonal.fraction` pass from here on."""
    calls = []
    fraction = tridiagonal.fraction

    def spy(levels, *terms):
        calls.append(levels)
        return fraction(levels, *terms)
    monkeypatch.setattr(tridiagonal, "fraction", spy)
    return calls


def test_explicit_truncation_defers_its_check(monkeypatch):
    # an explicit truncation runs one recurrence of n_fock levels; its check
    # at ceil(1.5 n_fock) runs at the first read of `residual`, with the
    # value of test_explicit_residual_is_the_change_to_1_5_n_fock, and a
    # second read runs nothing
    calls = _spy_on_recurrence(monkeypatch)
    sig = Coherent(nbar=3.0)
    grid = FIGURES["fig1"].probe_grid_default(41)
    for omega_p in (float(grid[3]), grid):
        for n_fock in (40, 80):
            bigger = math.ceil(1.5*n_fock)
            calls.clear()
            got = lindblad_steady_response(FIG1, sig, omega_p, n_fock=n_fock)
            assert calls == [n_fock]
            first = got.residual
            assert calls == [n_fock, bigger]
            assert got.residual == first and len(calls) == 2
            check = lindblad_steady_response(FIG1, sig, omega_p,
                                             n_fock=bigger).sigma_minus
            change = np.abs(got.sigma_minus - check)/np.abs(check)
            assert first == np.max(change)
    # the sized truncation runs its check in the call: reading it runs no
    # pass
    calls.clear()
    got = lindblad_steady_response(FIG1, sig, grid)
    count = len(calls)
    assert count >= 2
    assert got.residual <= 1e-13 and len(calls) == count


def test_explicit_check_that_leaves_the_floats_raises_on_read():
    # a lossless qubit under a detuned vacuum: q = 0, so g_k = d_k, and
    # d_50 = i 50 gamma_c/2, whose square underflows to 0.  The 40 levels
    # hold no such level and return; the check's 60 levels do, and raise
    # when `residual` is read (ZeroDivisionError in floats, an
    # ArithmeticError for a grid).  The sized truncation, which runs its
    # check in the call, raises at the call.
    qubit = QubitParams(omega_q=1.0, chi=1.0, gamma=0.0, gamma_phi=0.0)
    params = SystemParams(CavityParams(omega_c=1000.0, gamma_c=1e-200),
                          (qubit,))
    sig = Vacuum(signal_omega=998.0)
    # d_k = (omega_p - 1 - 3 k) + i k gamma_c/2: level 50 at omega_p = 151,
    # level 51 at 154
    for omega_p in (151.0, np.array([151.0, 154.0])):
        got = lindblad_steady_response(params, sig, omega_p, n_fock=40)
        assert np.isfinite(got.sigma_minus).all()
        with pytest.raises(ArithmeticError):
            got.residual
        with pytest.raises(ArithmeticError):
            lindblad_steady_response(params, sig, omega_p)


def test_empty_grid_gives_empty_response():
    # as in `sweep` and the `qubit_response_*` kernels, no probe points give
    # no values, and a residual of 0 on both paths
    sig = Coherent(nbar=1.0)
    for n_fock in (None, 40):
        got = lindblad_steady_response(FIG1, sig, np.array([]), n_fock)
        assert got.sigma_minus.shape == got.a_expect.shape == (0,)
        assert got.residual == 0.0


def test_steady_response_equality_ignores_the_check():
    # a response equals another whether or not its check has run, and the
    # sized and explicit paths agree at one truncation
    sig = Coherent(nbar=3.0)
    wp = float(FIGURES["fig1"].probe_grid_default(41)[20])
    sized = lindblad_steady_response(FIG1, sig, wp)
    read = lindblad_steady_response(FIG1, sig, wp, n_fock=sized.n_fock)
    unread = lindblad_steady_response(FIG1, sig, wp, n_fock=sized.n_fock)
    assert read.residual == sized.residual
    assert read == unread == sized
    assert "residual" not in vars(unread)
    with pytest.raises(dataclasses.FrozenInstanceError):
        unread.n_fock = 41
    assert unread.residual == read.residual
    # grids compare elementwise: the same call is equal whether or not its
    # check has run; another truncation, grid or state is not
    grid = FIGURES["fig1"].probe_grid_default(41)
    whole = lindblad_steady_response(FIG1, sig, grid, n_fock=40)
    again = lindblad_steady_response(FIG1, sig, grid, n_fock=40)
    assert whole.residual > 0.0 and "residual" not in vars(again)
    assert whole == again and not whole != again
    for other in (lindblad_steady_response(FIG1, sig, grid, n_fock=41),
                  lindblad_steady_response(FIG1, sig, grid[:-1], n_fock=40),
                  lindblad_steady_response(FIG1, Coherent(nbar=1.0), grid,
                                           n_fock=40),
                  lindblad_steady_response(FIG1, sig, grid[20], n_fock=40)):
        assert whole != other and not whole == other


@pytest.mark.parametrize("n_fock", [40, 80])
def test_lone_explicit_response_is_a_whole_steady_response(n_fock):
    # a scalar explicit truncation, whose fields go in without the keyword
    # constructor, has the fields, equality, frozenness and deferred check
    # of a keyword-built response, and the value of `fraction` on the grid
    sig = Coherent(nbar=3.0)
    grid = FIGURES["fig1"].probe_grid_default(401)
    block = oracle._bind(FIG1, sig, n_fock).block
    on_grid = tridiagonal.fraction(n_fock, Q1.chi, grid - Q1.omega_q, block)
    for i in (3, 200, 397):
        got = lindblad_steady_response(FIG1, sig, float(grid[i]), n_fock)
        built = oracle.SteadyResponse(omega_p=got.omega_p,
                                      sigma_minus=got.sigma_minus,
                                      a_expect=got.a_expect, n_fock=n_fock,
                                      _check=got._check)
        assert got.sigma_minus == on_grid[i]
        assert vars(got) == vars(built) and repr(got) == repr(built)
        assert got == built and not got != built
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.sigma_minus = 0j
        assert "residual" not in vars(got)
        assert got.residual == built.residual
        assert vars(got) == vars(built)
    # the pair's binding keeps one table, of the most levels read (here 40
    # and 80 and their checks', then 50), and every smaller count reads its
    # bottom rows with the bits of a walk of its own
    wp = float(grid[7])
    for levels in (40, 80, 50):
        got = lindblad_steady_response(FIG1, sig, wp, levels)
        got.residual
        walk = _fraction_walk(levels, Q1.chi, wp - Q1.omega_q, block)
        assert got.sigma_minus == walk, levels
    assert oracle._bind(FIG1, sig, n_fock).block is block
    assert block.rows == tridiagonal._levels(120, block.u, block.v, block.y,
                                             block.h, block.q)


def test_oracle_and_cli_dispatch_on_no_signal_type():
    # the oracle takes its domain from the state's amplitude beta, so neither
    # it nor the CLI asks a signal for its type
    import ast
    import inspect

    from starkprobe import cli
    for module in (oracle, cli):
        tree = ast.parse(inspect.getsource(module))
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "isinstance"
                 and getattr(node.args[0], "id", None) == "sig"]
        assert not calls, module.__name__


def test_dense_table_solve_matches_fraction():
    # the `oracle` command's explicit-truncation table keeps the dense solve
    grid = FIGURES["fig1"].probe_grid_default(9)
    for nbar in (0.0, 1.0, 3.0):
        sig = Coherent(nbar=nbar)
        frac = lindblad_steady_response(FIG1, sig, grid, n_fock=40).sigma_minus
        dense = [oracle.dense_sigma_minus(FIG1, sig, wp, 40) for wp in grid]
        assert np.max(np.abs(frac - dense)/np.abs(dense)) <= 1e-13, nbar
    with pytest.raises(ArithmeticError, match="ground block"):
        oracle.dense_sigma_minus(FIG1, Vacuum(), FIG1.omega_c_star, 40)
    with pytest.raises(ValueError, match="n_fock"):
        oracle.dense_sigma_minus(FIG1, Vacuum(), Q1.omega_q, 3)


@pytest.mark.parametrize("method", ["series", "oracle"])
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "rounding limit on narrow lines: the distance to the n = 0 line, D_0 ="
    " (omega_p - omega_q) - 2 chi |beta|^2 + Re(4 chi^2 |beta|^2/w), "
    "cancels terms of 1.3e9 rad/s down to a 63 rad/s linewidth, so the "
    "rounding of the constants costs digits: against the sum at 40 digits "
    "the series is off by 3.2e-8 and the sized oracle by 2.3e-10, while the "
    "oracle's residual, which measures truncation, reads 0"))
def test_narrow_line_is_good_to_1e_12(method):
    pytest.importorskip("mpmath")
    # fig1 with chi 2 pi 10 MHz, gamma_c = gamma = 2 pi 10 Hz and nbar 10,
    # one cavity linewidth off the n = 0 line
    qubit = QubitParams(omega_q=Q1.omega_q, chi=TWO_PI*10e6,
                        gamma=TWO_PI*10.0, gamma_phi=0.0)
    params = SystemParams(CavityParams(omega_c=FIG1.cavity.omega_c,
                                       gamma_c=TWO_PI*10.0), (qubit,))
    sig = Coherent(nbar=10.0)
    _, beta = cavity_photon_number(sig, params)
    b2 = abs(beta)**2
    w = 2.0*qubit.chi - 0.5j*params.cavity.gamma_c
    wp = (qubit.omega_q + 2.0*qubit.chi*b2 - (4.0*qubit.chi**2*b2/w).real
          + params.cavity.gamma_c)
    ref = coherent_series_mp(wp, qubit, params, beta)
    if method == "series":
        got = sig.response(params)(wp, qubit)
    else:
        got = lindblad_steady_response(params, sig, wp).sigma_minus
    assert abs(got - ref) <= 1e-12*abs(ref), abs(got - ref)/abs(ref)


@pytest.mark.parametrize("preset", ["fig1", "fig3", "fig4", "fig7"])
def test_sized_truncation_converges_to_nbar_3000(preset):
    fp = FIGURES[preset]
    system = fp.system()
    grid = fp.probe_grid_default(41)
    for nbar in (0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0):
        got = lindblad_steady_response(system, Coherent(nbar=nbar), grid)
        assert np.isfinite(got.sigma_minus).all(), nbar
        assert got.residual <= 1e-13, nbar
        assert got.n_fock >= oracle._start_truncation(nbar), nbar


@pytest.mark.parametrize("preset", ["fig1", "fig7"])
def test_sized_truncation_grows_at_nbar_30(preset, monkeypatch):
    # the levels near resonance at the grid edge need more than the start;
    # the check at 204 levels becomes the next truncation, so each level
    # count is walked once
    calls = _spy_on_recurrence(monkeypatch)
    fp = FIGURES[preset]
    got = lindblad_steady_response(fp.system(), Coherent(nbar=30.0),
                                   fp.probe_grid_default(401))
    assert oracle._start_truncation(30.0) == 136
    assert calls == [136, 204, 306]
    assert got.n_fock == 204 and got.residual <= 1e-13


def _read(got) -> tuple:
    """A response's outputs and its residual, as bytes, so that -0.0 and
    nan compare by their bits."""
    parts = (got.sigma_minus, got.a_expect, got.n_fock, got.residual)
    return tuple(np.asarray(part).tobytes() for part in parts)


def test_bindings_give_the_bits_of_fresh_calls(monkeypatch):
    # calls that interleave two systems and five states, among them a
    # detuned one and a copy equal by value but a new object, give the bits
    # that each call gives with no binding kept; both systems share four of
    # the state objects
    three = Coherent(nbar=3.0)
    shared = [Coherent(nbar=1.0), three, Vacuum(), dataclasses.replace(three)]
    assert shared[-1] == three and shared[-1] is not three
    calls = []
    for preset in ("fig1", "fig3"):
        fp = FIGURES[preset]
        system = fp.system()
        gc = system.cavity.gamma_c
        grid = fp.probe_grid_default(21)
        sigs = [*shared, Coherent(nbar=1.0,
                                  signal_omega=system.omega_c_star + gc/3.0)]
        calls += [(system, sig, omega_p, n_fock)
                  for omega_p in (float(grid[4]), grid)
                  for n_fock in (40, None) for sig in sigs]
    photon_numbers = []
    photon_number = oracle.cavity_photon_number
    with monkeypatch.context() as m:
        m.setattr(oracle, "cavity_photon_number", lambda *args: (
            photon_numbers.append(args) or photon_number(*args)))
        bound = [lindblad_steady_response(*call) for call in calls[::2]]
        bound += [lindblad_steady_response(*call) for call in calls[1::2]]
    # ten pairs, eight kept: at least half the calls find their binding
    assert len(photon_numbers) <= len(calls)//2
    assert len(oracle._BINDINGS) <= oracle._KEPT_BINDINGS
    fresh = []
    for call in calls[::2] + calls[1::2]:
        monkeypatch.setattr(oracle, "_BINDINGS", {})
        fresh.append(lindblad_steady_response(*call))
    assert [_read(got) for got in bound] == [_read(got) for got in fresh]


def test_bound_truncation_checks_run_at_every_call(monkeypatch):
    # a binding keeps no decision about the level count: a cap lowered
    # after it exists still stops sized and explicit calls, and an explicit
    # truncation is taken where the sized start passes the cap (the
    # recurrences of a bound pair: test_explicit_truncation_defers_its_check)
    wp = float(FIGURES["fig1"].probe_grid_default(9)[3])
    sig = Coherent(nbar=30.0)
    assert lindblad_steady_response(FIG1, sig, wp).n_fock >= 136
    monkeypatch.setattr(tridiagonal, "MAX_FOCK", 100)
    with pytest.raises(ValueError, match="needs 136 Fock levels.*MAX_FOCK = 100"):
        lindblad_steady_response(FIG1, sig, wp)
    with pytest.raises(ValueError, match="at most MAX_FOCK = 100, got 120"):
        lindblad_steady_response(FIG1, sig, wp, n_fock=120)
    assert lindblad_steady_response(FIG1, sig, wp, n_fock=80).n_fock == 80
    # nbar 1e5 starts at 103835 levels, past the default cap as well
    monkeypatch.undo()
    big = Coherent(nbar=1e5)
    with pytest.raises(ValueError, match="MAX_FOCK = 20000"):
        lindblad_steady_response(FIG1, big, wp)
    assert lindblad_steady_response(FIG1, big, wp, n_fock=40).n_fock == 40


def test_truncation_cap(monkeypatch):
    with pytest.raises(ValueError, match="MAX_FOCK = 20000"):
        check_supported(FIG1, Coherent(nbar=1e5))
    with pytest.raises(ValueError, match="MAX_FOCK = 20000"):
        check_supported(FIG1, Coherent(nbar=1.0), 20001)
    monkeypatch.setattr(tridiagonal, "MAX_FOCK", 100)
    grid = FIGURES["fig1"].probe_grid_default(401)
    # nbar 30 starts at 136 levels, above the cap
    with pytest.raises(ValueError, match="MAX_FOCK = 100"):
        lindblad_steady_response(FIG1, Coherent(nbar=30.0), grid)
    # nbar 10 starts at 88 and needs 132
    with pytest.raises(ConvergenceError, match="MAX_FOCK = 100: 88 -> 132"):
        lindblad_steady_response(FIG1, Coherent(nbar=10.0), grid)


def test_lindblad_cavity_amplitude_closed_form():
    # the ground block is diagonal: <a> = (Omega_p/2)/((omega_p - omega)
    # - (omega_c* - omega - i gc/2)) for every signal
    gc = FIG1.cavity.gamma_c
    omega = FIG1.omega_c_star + gc/3.0
    sig = Coherent(nbar=2.0, signal_omega=omega)
    for x in (-1.0, 0.5, 2.0):
        wp = Q1.omega_q + x*2.0*Q1.chi
        got = lindblad_steady_response(FIG1, sig, wp, 40).a_expect
        ref = 0.5/((wp - omega) - (FIG1.omega_c_star - omega - 0.5j*gc))
        assert abs(got - ref) <= 1e-15*abs(ref)


# ---------------------------------------------------------------------------
# full Liouvillian cross-checks

def test_steady_state_properties():
    rho = steady_state(FIG1, Coherent(nbar=1.0), 8)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    eigs = np.linalg.eigvalsh(0.5*(rho + rho.conj().T))
    assert eigs.min() > -1e-12
    # displaced frame: the steady state is qubit-ground vacuum
    assert abs(rho[0, 0] - 1.0) < 1e-10


def test_reduced_solve_matches_full_liouvillian():
    n_fock = 8
    sig = Coherent(nbar=0.8)
    params = FIG1
    qubit = Q1
    omega = params.omega_c_star
    _, beta = cavity_photon_number(sig, params)
    space = FockOperatorSpace(n_fock)
    dim = 2*n_fock
    liou = liouvillian(params, sig, n_fock)

    adag = space.cavity_op(space.raising)
    sp_op = space.qubit_sigma_minus().conj().T
    drive = 0.5*(adag + sp_op)          # (Omega_p/2)(a+ + (g/D) sigma+), g/D := 1
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    commutator = drive @ rho0 - rho0 @ drive

    for dwp in (0.3, 2.0):
        wp = qubit.omega_q + dwp*2.0*qubit.chi
        lhs = liou + 1j*(wp - omega)*np.eye(dim*dim)
        rho_plus = np.linalg.solve(lhs, 1j*commutator.reshape(-1)).reshape(dim, dim)
        sigma_full = qubit.chi*np.trace(space.qubit_sigma_minus() @ rho_plus)/0.5
        reduced = lindblad_steady_response(params, sig, wp, n_fock).sigma_minus
        assert abs(sigma_full - reduced) < 1e-10*abs(reduced)


def test_incoherent_stretch_quadrature_over_oracle():
    # P-distribution integral of the *oracle* coherent response against the
    # analytic incoherent series, at three quadrature scales
    nbar = 1.0
    wp = Q1.omega_q + 2.0*Q1.chi
    ref = qubit_response_incoherent(wp, Q1, FIG1, nbar)
    devs = []
    for n_nodes in (24, 48, 96):
        x, wgt = np.polynomial.legendre.leggauss(n_nodes)
        umax = 30.0*nbar
        u = 0.5*umax*(x + 1.0)
        wgt = wgt*0.5*umax
        total = 0j
        for ui, wi in zip(u, wgt):
            sigp = _coherent_oracle_response(wp, math.sqrt(ui))
            total += wi*math.exp(-ui/nbar)/nbar*sigp
        devs.append(abs(total - ref)/abs(ref))
    assert devs[-1] < 5e-4
    assert devs[-1] <= devs[0]


def _coherent_oracle_response(wp, beta):
    space = FockOperatorSpace(40)
    chi, gc = Q1.chi, FIG1.cavity.gamma_c
    w0 = wp - Q1.omega_q - 2.0*chi*beta**2 + 1j*Q1.gamma_coh
    w = 2.0*chi - 0.5j*gc
    return chi*propagator_vacuum_element(space, w0, w, 2.0*chi*beta)
