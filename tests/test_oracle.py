import math

import numpy as np
import pytest

from starkprobe.detector import (CavityParams, Coherent, Incoherent,
                                 QubitParams, SystemParams, Thermal, Vacuum,
                                 cavity_photon_number,
                                 qubit_response_coherent,
                                 qubit_response_incoherent)
from starkprobe import oracle
from starkprobe.oracle import check_supported, lindblad_steady_response
from starkprobe.presets import FIGURES

from closedform import coherent_response_closed
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
    with pytest.raises(ValueError):
        lindblad_steady_response(FIG1, Coherent(nbar=4.0), Q1.omega_q, 16)
    two = SystemParams(FIG1.cavity, (Q1, Q1))
    with pytest.raises(ValueError):
        lindblad_steady_response(two, Vacuum(), Q1.omega_q, 16)
    # probing at the signal frequency leaves the ground block singular
    with pytest.raises(ArithmeticError):
        lindblad_steady_response(FIG1, Vacuum(), FIG1.omega_c_star, 16)


# sigma^- recorded with the dense solve of both sector blocks, at
# omega_p = omega_q + x 2 chi for x = -1, 0.5, 2 (the same at n_fock 40 and 80)
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
        assert lindblad_steady_response(FIG1, sig, wp, n_fock).sigma_minus == ref


def test_lindblad_field_block_cache():
    # interleaved truncations, displacements and pulls give what a cold
    # cache gives, and the shared block cannot be written through
    slow = QubitParams(omega_q=Q1.omega_q, chi=0.5*Q1.chi, gamma=Q1.gamma,
                       gamma_phi=Q1.gamma_phi)
    cases = [(params, Coherent(nbar=nbar), n_fock)
             for n_fock in (16, 40) for nbar in (0.5, 2.0)
             for params in (FIG1, SystemParams(FIG1.cavity, (slow,)))]
    wps = [Q1.omega_q + x*2.0*Q1.chi for x in (-0.5, 1.5)]
    warm = [lindblad_steady_response(p, s, wp, n).sigma_minus
            for wp in wps for p, s, n in cases]
    cold = []
    for wp in wps:
        for p, s, n in cases:
            oracle._field_block.cache_clear()
            cold.append(lindblad_steady_response(p, s, wp, n).sigma_minus)
    assert warm == cold
    _, beta = cavity_photon_number(Coherent(nbar=1.0), FIG1)
    block, _, _ = oracle._field_block(16, beta, Q1.chi)
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.0


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
