"""Truncated-Fock numerical validator for the analytic responses.

The probe sideband response of one qubit under vacuum or coherent light,
from a direct linear solve against the displaced-frame master equation on
n_fock Fock levels per qubit sector; it knows nothing about the series
expansions it is meant to check.  The qubit-excited block is dense and the
ground block diagonal, which is divided out.  The probe-independent Stark
block of the excited sector, its diagonal and the level index are cached
per (n_fock, beta, chi); a probe point then copies the block, sets its
diagonal and solves.  `check_supported` states the oracle's domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .detector import (Coherent, QubitParams, SystemParams, Vacuum,
                       cavity_photon_number, signal_frequency)


@dataclass(frozen=True)
class SteadyResponse:
    omega_p: float
    sigma_minus: complex
    a_expect: complex
    residual: float


def check_supported(params: SystemParams, sig: Union[Vacuum, Coherent],
                    n_fock: int) -> tuple[QubitParams, complex]:
    """(qubit, beta) of a system, signal and truncation the solve can take.

    The domain is one qubit, vacuum or coherent light, nbar <= 3 (beyond
    it the truncation stops being economical) and n_fock >= 4.  Raises
    ValueError naming the limit crossed.
    """
    # Vacuum derives from Coherent; incoherent and thermal light have no beta
    if not isinstance(sig, Coherent):
        raise ValueError("oracle supports vacuum and coherent signals only")
    nbar, beta = cavity_photon_number(sig, params)
    if len(params.qubits) != 1:
        raise ValueError("the Lindblad oracle handles exactly one qubit")
    if nbar > 3.0 + 1e-12:
        raise ValueError("keep nbar <= 3 for an economical truncation")
    if n_fock < 4:
        raise ValueError("n_fock must be at least 4")
    return params.qubits[0], beta


@lru_cache(maxsize=16)
def _field_block(n_fock: int, beta: complex, chi: float) -> tuple:
    """Read-only field 2 chi (a+ + beta*)(a + beta), its diagonal and levels.

    The Stark pull of the displaced field on the n_fock levels 0, 1, ... of
    the qubit-excited sector; none of the three depends on the probe
    frequency, so a sweep builds them once.
    """
    levels = np.arange(n_fock)
    lowering = np.diag(np.sqrt(levels[1:]), 1).astype(complex)
    eye = np.eye(n_fock, dtype=complex)
    disp = lowering + beta*eye
    disp_dag = lowering.conj().T + np.conj(beta)*eye
    field = 2.0*chi*(disp_dag @ disp)
    field.flags.writeable = levels.flags.writeable = False
    return field, field.diagonal(), levels


def lindblad_steady_response(params: SystemParams, sig: Union[Vacuum, Coherent],
                             omega_p: float, n_fock: int) -> SteadyResponse:
    """First-order probe response from the displaced-frame master equation.

    The zeroth-order steady state in the displaced frame is the pure state
    |g, 0>; the probe sideband perturbation keeps the <g,0| bra, so the
    sideband linear system closes on kets of dimension n_fock per qubit
    sector.  The qubit-excited block is dense (the displaced field couples
    neighbouring Fock levels) and goes through a dense solve; the ground
    block is diagonal and is divided out.  The returned sigma_minus is the
    probe-normalised response (directly comparable to
    qubit_response_coherent); a_expect keeps its Omega_p/2 drive factor.
    """
    qubit, beta = check_supported(params, sig, n_fock)
    omega = signal_frequency(sig, params)
    chi, gc = qubit.chi, params.cavity.gamma_c
    drive = 0.5                           # Omega_p/2 at unit probe amplitude

    # qubit-excited block of H(2) minus the ground-state reference energy,
    # with the damping folded in: the cached field block off the diagonal,
    # the probe detuning and the cavity term on it
    field, field_diag, levels = _field_block(n_fock, beta, chi)
    cavity = (params.omega_c_star - omega - 0.5j*gc)*levels
    block_e = -field
    block_e.ravel()[::n_fock + 1] = (
        (omega_p - qubit.omega_q + 1j*qubit.gamma_coh) - field_diag) - cavity
    diag_g = (omega_p - omega) - cavity

    rhs_e = np.zeros(n_fock, dtype=complex)
    rhs_e[0] = drive                      # (Omega_p/2)(g/(wq-wc)) |0>, g-scale divided out
    rhs_g = np.zeros(n_fock, dtype=complex)
    rhs_g[1] = drive                      # (Omega_p/2) a+ |0>

    if not diag_g.all():
        raise ArithmeticError("sideband linear solve failed")
    try:
        psi_e = np.linalg.solve(block_e, rhs_e)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("sideband linear solve failed") from exc
    psi_g = rhs_g/diag_g

    res = max(np.linalg.norm(block_e @ psi_e - rhs_e),
              np.linalg.norm(diag_g*psi_g - rhs_g))
    # <g,0|sigma^-|Psi> is the vacuum component of the excited block;
    # dividing by the drive gives the probe-normalised response that
    # qubit_response_coherent computes.  <a> keeps its Omega_p/2 factor.
    sigma_minus = chi*psi_e[0]/drive
    a_expect = psi_g[1]
    return SteadyResponse(omega_p=omega_p,
                          sigma_minus=complex(sigma_minus),
                          a_expect=complex(a_expect),
                          residual=float(res))
