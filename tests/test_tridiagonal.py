"""`tridiagonal`'s truncation rule on its own: a pass, its check, the sized
growth and the cap, on blocks built here rather than by the oracle."""

import math

import numpy as np
import pytest

from starkprobe import tridiagonal
from starkprobe.presets import FIGURES

FP = FIGURES["fig1"]
QUBIT = FP.system().qubits[0]
GRID = FP.probe_grid_default(401) - QUBIT.omega_q


def _fig1_block(nbar: float) -> tridiagonal.Block:
    """fig1's qubit-excited block after x under coherent light of nbar
    photons at the cavity frequency: the pull is -i gc/2."""
    chi, gc = QUBIT.chi, FP.gamma_c
    return tridiagonal.Block(2.0*chi*nbar, 2.0*chi, QUBIT.gamma_coh, 0.5*gc,
                             4.0*chi*chi*nbar)


def _spy(monkeypatch) -> list:
    """The levels of every pass from here on."""
    calls = []
    fraction = tridiagonal.fraction

    def spy(levels, *terms):
        calls.append(levels)
        return fraction(levels, *terms)
    monkeypatch.setattr(tridiagonal, "fraction", spy)
    return calls


@pytest.mark.parametrize("levels", [4, 5, 40, 41, 136])
def test_check_is_the_change_against_ceil_1_5_levels(levels):
    block = _fig1_block(3.0)
    bigger = math.ceil(1.5*levels)
    assert tridiagonal.grown(levels) == bigger
    for x in (GRID, float(GRID[150])):
        value = tridiagonal.fraction(levels, QUBIT.chi, x, block)
        ref = tridiagonal.fraction(bigger, QUBIT.chi, x, block)
        got, change = tridiagonal.check(levels, value, QUBIT.chi, x, block)
        assert np.array_equal(got, ref)
        # numpy's modulus, for a point as for a grid
        assert change == np.max(np.abs(value - ref)/np.abs(ref))


def test_sized_walks_each_level_count_once_and_stops_at_the_tolerance(
        monkeypatch):
    # at nbar 30 the grid's edge needs more than 136 levels: each check
    # becomes the next truncation, and the walk stops at the first change of
    # at most TOLERANCE, whose check (306 levels) it has run
    block = _fig1_block(30.0)
    calls = _spy(monkeypatch)
    levels, value, change = tridiagonal.sized(136, QUBIT.chi, GRID, block)
    assert calls == [136, 204, 306]
    assert levels == 204 and change <= tridiagonal.TOLERANCE
    assert np.array_equal(value, tridiagonal.fraction(204, QUBIT.chi, GRID, block))
    first = tridiagonal.fraction(136, QUBIT.chi, GRID, block)
    assert tridiagonal.check(136, first, QUBIT.chi, GRID, block)[1] > 1e-13
    # a walk that starts where the change is small enough runs one check
    calls.clear()
    assert tridiagonal.sized(204, QUBIT.chi, GRID, block)[0] == 204
    assert calls == [204, 306]


def test_sized_stops_where_the_next_size_passes_the_cap(monkeypatch):
    # the cap bounds the truncation, not its check: at MAX_FOCK 204 the walk
    # still grows to 204 levels and checks them against 306; at 203 it
    # returns 136 levels with their change, above the tolerance
    block = _fig1_block(30.0)
    calls = _spy(monkeypatch)
    monkeypatch.setattr(tridiagonal, "MAX_FOCK", 204)
    assert tridiagonal.sized(136, QUBIT.chi, GRID, block)[0] == 204
    assert calls == [136, 204, 306]
    calls.clear()
    monkeypatch.setattr(tridiagonal, "MAX_FOCK", 203)
    levels, value, change = tridiagonal.sized(136, QUBIT.chi, GRID, block)
    assert calls == [136, 204]
    assert levels == 136 and change > tridiagonal.TOLERANCE
    first = tridiagonal.fraction(136, QUBIT.chi, GRID, block)
    assert np.array_equal(value, first)
    assert change == tridiagonal.check(136, first, QUBIT.chi, GRID, block)[1]


def test_a_pass_that_leaves_the_floats_raises():
    # q = 0, so g_k = d_k, and d_50 = i 50 h at x = 150 (level 51 at 153):
    # its square underflows to 0.  40 levels hold no such level; 60 do, and
    # the pass, a check that runs it and a walk through it raise
    # (ZeroDivisionError for a float point, ArithmeticError for a grid)
    block = tridiagonal.Block(0.0, 3.0, 0.0, 5e-201, 0.0)
    for x in (150.0, np.array([150.0, 153.0])):
        value = tridiagonal.fraction(40, 1.0, x, block)
        assert np.isfinite(value).all()
        with pytest.raises(ArithmeticError):
            tridiagonal.fraction(60, 1.0, x, block)
        with pytest.raises(ArithmeticError):
            tridiagonal.check(40, value, 1.0, x, block)
        with pytest.raises(ArithmeticError):
            tridiagonal.sized(40, 1.0, x, block)
    # a pass can leave the floats without dividing by 0: with d_k = 1e-161,
    # |g|^2 is subnormal, q/|g|^2 overflows and 0 inf makes nan, which a
    # float point raises as a grid does
    tiny = tridiagonal.Block(0.0, 0.0, 0.0, 0.0, 1.0)
    for x in (1e-161, np.array([1e-161])):
        with pytest.raises(ArithmeticError, match="not finite"):
            tridiagonal.fraction(3, 1.0, x, tiny)
    # a check of 0, whose g_0 squared overflowed, measures no relative change
    far = tridiagonal.Block(0.0, 1.0, 0.0, 0.0, 1.0)
    for x in (1e200, np.array([1e200])):
        value = tridiagonal.fraction(4, 1.0, x, far)
        assert not np.any(value)
        with pytest.raises(ArithmeticError):
            tridiagonal.check(4, value, 1.0, x, far)


def test_a_float_and_an_array_give_the_same_bits():
    # a float point and a one-point array: the same passes, the same walk
    # and the same change, numpy's modulus taking both
    block = _fig1_block(30.0)
    for i in (0, 150, 400):
        x = float(GRID[i])
        lone = np.array([x])
        for levels in (40, 136):
            value = tridiagonal.fraction(levels, QUBIT.chi, x, block)
            assert isinstance(value, complex)
            assert value == tridiagonal.fraction(levels, QUBIT.chi, GRID,
                                                 block)[i]
            bigger, change = tridiagonal.check(levels, value, QUBIT.chi, x,
                                               block)
            on_array = tridiagonal.check(levels, np.array([value]), QUBIT.chi,
                                         lone, block)
            assert [bigger] == list(on_array[0])
            assert change == on_array[1]
        levels, value, change = tridiagonal.sized(136, QUBIT.chi, x, block)
        on_array = tridiagonal.sized(136, QUBIT.chi, lone, block)
        assert (levels, [value]) == (on_array[0], list(on_array[1]))
        assert change == on_array[2]
