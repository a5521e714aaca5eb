"""The one grid rule, `presets.linspace`: np.linspace's points, bit for bit,
on Python floats, so that the probe, atom and cavity grids keep their values
without numpy; and a grid of fewer than 2 points is refused."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starkprobe.config import ConfigError
from starkprobe.presets import ATOM, FIGURES, atom_grid, linspace

# derandomized: the suite draws the same examples on every run
checked = settings(derandomize=True, deadline=None, max_examples=300)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@checked
@given(ends=st.lists(finite, min_size=2, max_size=2, unique=True).map(sorted),
       num=st.integers(2, 5000))
@example(ends=(0.0, 1e-322), num=100)          # the step underflows to 0
@example(ends=(-1e308, 1e308), num=3)          # stop - start overflows
@example(ends=(-5e-324, 5e-324), num=5000)
@example(ends=(1.0, 1.0 + 2**-52), num=4999)
def test_linspace_is_numpys_bit_for_bit(ends, num):
    start, stop = ends
    grid = linspace(start, stop, num)
    assert all(type(x) is float for x in grid)
    with np.errstate(all="ignore"):     # where stop - start overflows
        expected = np.linspace(start, stop, num)
    assert _bits(grid) == _bits(expected)


@pytest.mark.parametrize("preset", sorted(FIGURES))
@pytest.mark.parametrize("n_points", [2, 101, 401, 2001])
def test_probe_grid_default_is_numpys(preset, n_points):
    # the endpoints are center -+ span, as the preset forms them
    grid = FIGURES[preset].probe_grid_default(n_points)
    assert isinstance(grid, np.ndarray) and grid.dtype == float
    assert _bits(grid) == _bits(np.linspace(grid[0], grid[-1], n_points))


@pytest.mark.parametrize("span", [None, math.tau*12e6])
@pytest.mark.parametrize("n_points", [2, 21, 801])
def test_atom_grid_is_numpys(span, n_points):
    half = 10.0*ATOM.gamma_coh if span is None else span
    assert _bits(atom_grid(ATOM, n_points, span)) == _bits(
        np.linspace(-half, half, n_points))


@pytest.mark.parametrize("n_points", [1, 0, -3])
def test_fewer_than_two_points_is_a_config_error(n_points):
    match = f"at least 2 points, got {n_points}"
    with pytest.raises(ConfigError, match=match):
        linspace(0.0, 1.0, n_points)
    with pytest.raises(ConfigError, match=match):
        FIGURES["fig1"].probe_grid_default(n_points)
    with pytest.raises(ConfigError, match=match):
        atom_grid(ATOM, n_points)
