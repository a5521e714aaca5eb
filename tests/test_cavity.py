import cmath
import math

import numpy as np
import pytest

from starkprobe.cavity import ResonatorGeometry, bare_s_params, resonances
from starkprobe.presets import resonator_preset

from closedform import quality_factor_estimate, small_gap_mode


def test_high_q_limit_recovers_harmonics():
    geom = resonator_preset(1e-9)
    scale = geom.velocity/geom.length
    for mode in resonances(geom, 4):
        assert abs(mode.omega_n/(mode.n*math.pi*scale) - 1.0) < 1e-6
        assert mode.gamma_n > 0


def test_small_gap_shift_and_width():
    geom = resonator_preset(0.01)
    scale = geom.velocity/geom.length
    mode = resonances(geom, 1)[0]
    omega_0 = math.pi*scale
    approx = small_gap_mode(geom, 1)
    assert abs((approx.omega_n - omega_0)/(mode.omega_n - omega_0) - 1.0) < 0.05
    # the leading-order width overshoots the exact pole by ~6% right at
    # C/(C'L) = 0.01; the joint complex pole correction stays within 5%
    d_exact = (mode.omega_n - omega_0) - 0.5j*mode.gamma_n
    d_approx = (approx.omega_n - omega_0) - 0.5j*approx.gamma_n
    assert abs(d_approx - d_exact) < 0.05*abs(d_exact)
    assert abs(approx.gamma_n/mode.gamma_n - 1.0) < 0.07


def test_quality_factor_estimate():
    geom = resonator_preset(0.01)
    mode = resonances(geom, 1)[0]
    # the closed form counts omega over the half-width gamma/2
    assert abs(quality_factor_estimate(geom, 1)/(2.0*mode.q_factor) - 1.0) < 0.05
    # same estimate through C'L/(2 omega_0 Z C^2) with Z = 1/(c C')
    z_line = 1.0/(geom.velocity*geom.line_capacitance)
    omega_0 = math.pi*geom.velocity/geom.length
    q_ref = (geom.line_capacitance*geom.length
             / (2.0*omega_0*z_line*geom.gap_capacitance**2))
    assert abs(q_ref/quality_factor_estimate(geom, 1) - 1.0) < 1e-12


@pytest.mark.parametrize("ratio", [0.005, 0.04, 20.0])
def test_unitarity(ratio):
    geom = resonator_preset(ratio)
    scale = geom.velocity/geom.length
    grid = np.linspace(0.2, 3.3*math.pi, 1000)*scale
    worst = 0.0
    for omega in grid:
        s21, s11 = bare_s_params(geom, omega)
        worst = max(worst, abs(abs(s21)**2 + abs(s11)**2 - 1.0))
    assert worst < 1e-12


def test_dc_limit_reflective():
    geom = resonator_preset(0.01)
    scale = geom.velocity/geom.length
    mags = [abs(bare_s_params(geom, f*scale)[0]) for f in (1e-4, 1e-5, 1e-6)]
    assert mags[0] < 1e-6
    assert mags[2] < mags[1] < mags[0]


def test_transmission_peak_at_pole():
    geom = resonator_preset(0.005)
    mode = resonances(geom, 1)[0]
    s21, _ = bare_s_params(geom, mode.omega_n)
    assert abs(s21) > 0.99


def test_pole_minimises_denominator():
    geom = resonator_preset(0.04)
    for mode in resonances(geom, 3):
        def den(omega):
            t = 2.0*omega*geom.gap_capacitance/(geom.velocity
                                                * geom.line_capacitance)
            phase = geom.length*omega/geom.velocity
            return abs((1.0 - 1j*t)**2 - cmath.exp(2j*phase))
        grid = mode.omega_n + np.linspace(-1.0, 1.0, 801)*mode.gamma_n
        vals = [den(w) for w in grid]
        i_min = int(np.argmin(vals))
        assert abs(grid[i_min] - mode.omega_n) < 0.01*mode.gamma_n


def test_conjugation_symmetry():
    geom = resonator_preset(0.04)
    scale = geom.velocity/geom.length
    for omega in np.linspace(0.3, 9.0, 40)*scale:
        s21_pos, _ = bare_s_params(geom, omega)
        s21_neg, _ = bare_s_params(geom, -omega)
        assert abs(s21_neg - s21_pos.conjugate()) < 1e-14


def test_geometry_validation():
    with pytest.raises(ValueError):
        ResonatorGeometry(length=-1.0, gap_capacitance=1e-15,
                          line_capacitance=1e-10, velocity=1e8)
    with pytest.raises(ValueError):
        resonances(resonator_preset(0.01), 0)
    with pytest.raises(ValueError):
        bare_s_params(resonator_preset(0.01), 0.0)
    # above C/(C'L) = 1/(2 W0(1/e)) mode 1 is overdamped, and named so
    assert resonances(resonator_preset(1.79), 1)[0].omega_n > 0
    with pytest.raises(ValueError, match="= 1.8 is not below 1.79556"):
        resonances(resonator_preset(1.80), 1)
