"""Truncated-Fock numerical validator for the analytic responses.

Everything here works on a Fock space of dimension n_fock (optionally
tensored with one qubit) and knows nothing about the series expansions it
is meant to check: expectation values come out of direct linear solves
against the displaced-frame master equation.  The matrices are dense,
except that the sideband response divides out its diagonal ground block;
the probe-independent Stark block of its excited sector is cached per
(n_fock, beta, chi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .detector import (Coherent, QubitParams, SystemParams, Vacuum,
                       cavity_photon_number, signal_frequency)


@dataclass(frozen=True)
class FockOperatorSpace:
    """Cavity ladder algebra truncated at n_fock levels."""
    n_fock: int

    def __post_init__(self):
        if self.n_fock < 4:
            raise ValueError("n_fock must be at least 4")

    @property
    def lowering(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1, self.n_fock)), 1).astype(complex)

    @property
    def raising(self) -> np.ndarray:
        return self.lowering.conj().T

    @property
    def number(self) -> np.ndarray:
        return np.diag(np.arange(self.n_fock)).astype(complex)

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.n_fock, dtype=complex)

    # qubit factor (ground state = index 0), ordering qubit (x) cavity
    def qubit_sigma_z(self) -> np.ndarray:
        return np.kron(np.diag([-1.0, 1.0]).astype(complex), self.identity)

    def qubit_sigma_minus(self) -> np.ndarray:
        sm = np.zeros((2, 2), dtype=complex)
        sm[0, 1] = 1.0
        return np.kron(sm, self.identity)

    def cavity_op(self, op: np.ndarray) -> np.ndarray:
        return np.kron(np.eye(2, dtype=complex), op)


@dataclass(frozen=True)
class SteadyResponse:
    omega_p: float
    sigma_minus: complex
    a_expect: complex
    residual: float


def propagator_vacuum_element(space: FockOperatorSpace, w0: complex,
                              w: complex, b: complex) -> complex:
    """<0| (w0 - w a+a - b a+ - b* a)^-1 |0> by dense linear solve."""
    mat = (w0*space.identity - w*space.number
           - b*space.raising - np.conj(b)*space.lowering)
    rhs = np.zeros(space.n_fock, dtype=complex)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"singular propagator at w0={w0!r}") from exc
    return complex(sol[0])


def check_supported(params: SystemParams,
                    sig: Union[Vacuum, Coherent]) -> tuple[QubitParams, complex]:
    """(qubit, beta) of a system and signal the sideband solve can take.

    Raises TypeError for a signal state the oracle does not model and
    ValueError for more than one qubit or nbar above 3, where the
    truncation stops being economical.
    """
    nbar, beta = _coherent_photon_number(params, sig)
    qubit = _single_qubit(params)
    if nbar > 3.0 + 1e-12:
        raise ValueError("keep nbar <= 3 for an economical truncation")
    return qubit, beta


def _single_qubit(params: SystemParams) -> QubitParams:
    if len(params.qubits) != 1:
        raise ValueError("the Lindblad oracle handles exactly one qubit")
    return params.qubits[0]


def _coherent_photon_number(params: SystemParams,
                            sig: Union[Vacuum, Coherent]) -> tuple[float, complex]:
    # Vacuum derives from Coherent; incoherent and thermal light have no beta
    if not isinstance(sig, Coherent):
        raise TypeError("oracle supports vacuum and coherent signals only")
    return cavity_photon_number(sig, params)


@lru_cache(maxsize=16)
def _field_block(n_fock: int, beta: complex, chi: float) -> np.ndarray:
    """Read-only 2 chi (a+ + beta*)(a + beta) on n_fock levels.

    The Stark pull of the displaced field on the qubit-excited sector; it
    does not depend on the probe frequency, so a sweep builds it once.
    """
    space = FockOperatorSpace(n_fock)
    eye = space.identity
    disp = space.lowering + beta*eye
    disp_dag = space.raising + np.conj(beta)*eye
    field = 2.0*chi*(disp_dag @ disp)
    field.flags.writeable = False
    return field


def lindblad_steady_response(params: SystemParams, sig: Union[Vacuum, Coherent],
                             omega_p: float, n_fock: int,
                             probe_amplitude: float = 1.0) -> SteadyResponse:
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
    qubit, beta = check_supported(params, sig)
    omega = signal_frequency(sig, params)
    chi, gc = qubit.chi, params.cavity.gamma_c
    drive = 0.5*probe_amplitude

    # qubit-excited block of H(2) minus the ground-state reference energy,
    # with the damping folded in: the cached field block off the diagonal,
    # the probe detuning and the cavity term on it
    field = _field_block(n_fock, beta, chi)
    cavity = (params.omega_c_star - omega - 0.5j*gc)*np.arange(n_fock)
    block_e = -field
    np.fill_diagonal(block_e, ((omega_p - qubit.omega_q + 1j*qubit.gamma_coh)
                               - np.diagonal(field)) - cavity)
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


def liouvillian(params: SystemParams, sig: Union[Vacuum, Coherent],
                n_fock: int) -> np.ndarray:
    """Dense displaced-frame Liouvillian (no probe) acting on vec(rho).

    Cavity decay gamma_c, qubit decay gamma and pure dephasing gamma_phi,
    plus the dispersive Hamiltonian; used to cross-check the reduced
    sideband solve and the steady state.
    """
    _, beta = _coherent_photon_number(params, sig)
    qubit = _single_qubit(params)
    omega = signal_frequency(sig, params)
    space = FockOperatorSpace(n_fock)
    dim = 2*n_fock
    a = space.cavity_op(space.lowering)
    adag = space.cavity_op(space.raising)
    num = space.cavity_op(space.number)
    sz = space.qubit_sigma_z()
    sm = space.qubit_sigma_minus()
    sp = sm.conj().T
    eye = np.eye(dim, dtype=complex)
    chi, gc = qubit.chi, params.cavity.gamma_c

    disp = a + beta*eye
    ham = (-0.5*(omega - qubit.omega_q)*sz
           + chi*(disp.conj().T @ disp) @ (sz + eye)
           + (params.omega_c_star - omega)*num)

    def spre(op):
        return np.kron(op, np.eye(dim))

    def spost(op):
        return np.kron(np.eye(dim), op.T)

    def dissipator(op, rate):
        opd = op.conj().T
        return rate*(spre(op) @ spost(opd)
                     - 0.5*spre(opd @ op) - 0.5*spost(opd @ op))

    liou = -1j*(spre(ham) - spost(ham))
    liou += dissipator(a, gc)
    liou += dissipator(sm, qubit.gamma)
    # pure dephasing: coherence decay gamma_phi on the qubit coherences
    liou += dissipator(sp @ sm, 2.0*qubit.gamma_phi)
    return liou


def steady_state(params: SystemParams, sig: Union[Vacuum, Coherent],
                 n_fock: int) -> np.ndarray:
    """Steady density matrix of the displaced-frame master equation."""
    liou = liouvillian(params, sig, n_fock)
    dim = 2*n_fock
    # replace one row by the trace constraint
    mat = liou.copy()
    mat[0, :] = 0.0
    mat[0, ::dim + 1] = 1.0
    rhs = np.zeros(dim*dim, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(mat, rhs).reshape(dim, dim)
    return rho
