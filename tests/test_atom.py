import math

import numpy as np
import pytest

from starkprobe.atom import AtomParams, atom_s_params, atom_steady_state
from starkprobe.config import POSITIVE, check_values

G1 = 2.0*math.pi*1e6
HBAR = 1.054571817e-34


def radiative_rate_from_power(rabi_abs: float, omega_atom: float,
                              power: float) -> float:
    """Line-coupled decay estimate Gamma_1 = |Omega|^2 hbar omega / (2 P).

    Order-of-magnitude bookkeeping for comparing against a measured total
    decay rate; no accuracy is implied beyond that.  No command or spectrum
    uses it, so it lives with its test.
    """
    check_values(dict(power=power), power=POSITIVE)
    return rabi_abs**2*HBAR*omega_atom/(2.0*power)


def test_undriven_ground_state():
    p = AtomParams(delta_omega=0.3*G1, gamma1=G1, gamma_phi=0.0, rabi=0.0)
    sz, sm = atom_steady_state(p)
    assert sz == -1.0
    assert sm == 0.0


def test_saturation():
    p = AtomParams(delta_omega=0.0, gamma1=G1, gamma_phi=0.0, rabi=1e4*G1)
    sz, _ = atom_steady_state(p)
    assert -1e-6 < sz <= 0.0


def test_half_saturation_point():
    # delta = 0, gamma_phi = 0, |Omega|^2 = gamma1^2/2 -> sigma_z = -1/2
    p = AtomParams(delta_omega=0.0, gamma1=G1, gamma_phi=0.0,
                   rabi=G1/math.sqrt(2.0))
    sz, _ = atom_steady_state(p)
    assert abs(sz + 0.5) < 1e-12


def test_sigma_z_range():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = AtomParams(delta_omega=rng.normal()*G1, gamma1=G1,
                       gamma_phi=abs(rng.normal())*G1,
                       rabi=complex(rng.normal(), rng.normal())*G1)
        sz, _ = atom_steady_state(p)
        assert -1.0 <= sz <= 0.0


def test_resonant_extinction():
    p = AtomParams(delta_omega=0.0, gamma1=G1, gamma_phi=0.0, rabi=0.0)
    s11, s21 = atom_s_params(p)
    assert abs(s11 + 1.0) < 1e-15
    assert abs(s21) < 1e-15


def test_transparent_off_resonance():
    p = AtomParams(delta_omega=1e4*G1, gamma1=G1, gamma_phi=0.0, rabi=0.0)
    _, s21 = atom_s_params(p)
    assert abs(s21 - 1.0) < 1e-3


def test_s21_is_one_plus_s11():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = AtomParams(delta_omega=rng.normal()*G1, gamma1=G1,
                       gamma_phi=abs(rng.normal())*G1,
                       rabi=complex(rng.normal(), rng.normal())*G1)
        s11, s21 = atom_s_params(p)
        assert s21 == 1.0 + s11


def test_unitarity_exact_without_dephasing_or_drive():
    for d in np.linspace(-5.0, 5.0, 41)*G1:
        p = AtomParams(delta_omega=d, gamma1=G1, gamma_phi=0.0, rabi=0.0)
        s11, s21 = atom_s_params(p)
        assert abs(abs(s11)**2 + abs(s21)**2 - 1.0) < 1e-12


def test_unitarity_violated_by_dephasing():
    for d in np.linspace(-2.0, 2.0, 21)*G1:
        p = AtomParams(delta_omega=d, gamma1=G1, gamma_phi=0.3*G1, rabi=0.0)
        s11, s21 = atom_s_params(p)
        assert abs(s11)**2 + abs(s21)**2 < 1.0 - 1e-6


def test_radiative_rate_from_power():
    omega = 2.0*math.pi*5e9
    rabi = 2.0*math.pi*20e6
    power = 1e-15
    got = radiative_rate_from_power(rabi, omega, power)
    hbar = 1.054571817e-34
    assert abs(got - rabi**2*hbar*omega/(2.0*power)) < 1e-12*got
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="power must be positive and finite"):
            radiative_rate_from_power(rabi, omega, bad)


def test_param_validation():
    with pytest.raises(ValueError):
        AtomParams(delta_omega=0.0, gamma1=0.0, gamma_phi=0.0, rabi=0.0)
    with pytest.raises(ValueError):
        AtomParams(delta_omega=0.0, gamma1=G1, gamma_phi=-1.0, rabi=0.0)
