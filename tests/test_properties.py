"""Property tests of the physical invariants: S21(-w) = conj S21(w), the
zero-photon limit of every signal state, and a sweep on any sorted subset of
a grid equal to the full sweep at those points."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkprobe.detector import (Coherent, Incoherent, Thermal, Vacuum,
                                 s21_probe, sweep)
from starkprobe.presets import FIGURES

STATES = ("vacuum", "coherent", "incoherent", "thermal")

# derandomized: the suite draws the same examples on every run
checked = settings(derandomize=True, deadline=None, max_examples=10)
each_preset = pytest.mark.parametrize("preset", sorted(FIGURES))


def _signal(fp, state, nbar):
    if state == "vacuum":
        return Vacuum()
    if state == "thermal":
        # fig10 names no coherence time; it gets the short one of the others
        return Thermal(tau_c=fp.tau_c if fp.tau_c is not None else 1e-12,
                       nbar=nbar)
    return {"coherent": Coherent, "incoherent": Incoherent}[state](nbar=nbar)


def _points(n):
    """Sorted, distinct indices into an n-point grid."""
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=12,
                    unique=True).map(sorted)


@functools.lru_cache(maxsize=None)
def _full_sweep(preset, state):
    fp = FIGURES[preset]
    return sweep(fp.system(), _signal(fp, state, fp.nbar),
                 fp.probe_grid_default(201)).s21


@each_preset
@checked
@given(state=st.sampled_from(STATES), idx=_points(41))
def test_conjugation_symmetry(preset, state, idx):
    fp = FIGURES[preset]
    system, sig = fp.system(), _signal(fp, state, fp.nbar)
    wp = fp.probe_grid_default(41)[idx]
    assert np.array_equal(s21_probe(-wp, system, sig),
                          np.conj(s21_probe(wp, system, sig)))


@each_preset
@checked
@given(idx=_points(41))
def test_zero_photons_is_vacuum(preset, idx):
    fp = FIGURES[preset]
    system = fp.system()
    wp = fp.probe_grid_default(41)[idx]
    vac = s21_probe(wp, system, Vacuum())
    for state in ("coherent", "incoherent"):
        got = s21_probe(wp, system, _signal(fp, state, 0.0))
        assert np.array_equal(got, vac), state
    got = s21_probe(wp, system, _signal(fp, "thermal", 0.0))
    assert np.all(np.abs(got - vac) <= 1e-12*np.abs(vac))


@each_preset
@checked
@given(state=st.sampled_from(STATES), idx=_points(201))
def test_subgrid_equals_full_sweep(preset, state, idx):
    fp = FIGURES[preset]
    sub = sweep(fp.system(), _signal(fp, state, fp.nbar),
                fp.probe_grid_default(201)[idx]).s21
    full = _full_sweep(preset, state)[idx]
    if state == "incoherent":
        assert np.all(np.abs(sub - full) <= 1e-13*np.abs(full))
    else:
        assert np.array_equal(sub, full)
