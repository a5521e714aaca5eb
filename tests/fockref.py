"""Dense truncated-Fock references the tests check the oracle against: the
cavity ladder algebra, the bare propagator element <0|G|0>, and the full
displaced-frame Liouvillian with its steady state, which cross-check the
reduced sideband solve of `starkprobe.oracle`."""

from dataclasses import dataclass

import numpy as np

from starkprobe.detector import signal_frequency
from starkprobe.oracle import check_supported


@dataclass(frozen=True)
class FockOperatorSpace:
    """Cavity ladder algebra truncated at n_fock levels."""
    n_fock: int

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


def propagator_vacuum_element(space: FockOperatorSpace, w0: complex,
                              w: complex, b: complex) -> complex:
    """<0| (w0 - w a+a - b a+ - b* a)^-1 |0> by dense linear solve."""
    mat = (w0*space.identity - w*space.number
           - b*space.raising - np.conj(b)*space.lowering)
    rhs = np.zeros(space.n_fock, dtype=complex)
    rhs[0] = 1.0
    return complex(np.linalg.solve(mat, rhs)[0])


def liouvillian(params, sig, n_fock: int) -> np.ndarray:
    """Dense displaced-frame Liouvillian (no probe) acting on vec(rho).

    Cavity decay gamma_c, qubit decay gamma and pure dephasing gamma_phi,
    plus the dispersive Hamiltonian, for a system and signal in the
    oracle's domain.
    """
    qubit, beta = check_supported(params, sig, n_fock)
    omega = signal_frequency(sig, params)
    space = FockOperatorSpace(n_fock)
    dim = 2*n_fock
    a = space.cavity_op(space.lowering)
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


def steady_state(params, sig, n_fock: int) -> np.ndarray:
    """Steady density matrix of the displaced-frame master equation."""
    liou = liouvillian(params, sig, n_fock)
    dim = 2*n_fock
    # replace one row by the trace constraint
    mat = liou.copy()
    mat[0, :] = 0.0
    mat[0, ::dim + 1] = 1.0
    rhs = np.zeros(dim*dim, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(mat, rhs).reshape(dim, dim)
