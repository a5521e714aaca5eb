"""Truncated-Fock numerical validator for the analytic responses.

The probe sideband response of one qubit in a field of amplitude beta,
from the displaced-frame master equation on n_fock Fock levels per qubit
sector; it knows nothing about the series expansions it is meant to check.
The ground block is diagonal and is divided out.  The qubit-excited block,
2 chi (a+ + beta*)(a + beta) plus a diagonal, is tridiagonal, so the
response chi [block^-1]_00 is a `tridiagonal` truncation, which that module
runs, checks, grows and caps.  What a (system, state) pair fixes is bound
once and kept for the pairs seen last.  `dense_sigma_minus` solves the
same block densely for the `oracle` command's explicit-truncation table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .detector import (Coherent, QubitParams, SystemParams, Vacuum,
                       cavity_photon_number, signal_frequency)
from . import tridiagonal
from .specfun import ConvergenceError

# the (system, state) bindings kept, the oldest dropped first
_KEPT_BINDINGS = 8


@dataclass(frozen=True)
class SteadyResponse:
    """Scalars for one probe point, arrays for a grid.  `residual` is the
    change of sigma_minus in its `tridiagonal.check`, stored by a sized
    truncation, and run and kept at the first read for an explicit one.
    Equality compares the points, the responses and n_fock, elementwise on
    a grid, and ignores the check.  The instance is frozen."""
    omega_p: Union[float, np.ndarray]
    sigma_minus: Union[complex, np.ndarray]
    a_expect: Union[complex, np.ndarray]
    n_fock: int
    # the check pass's inputs: the numerator, the point term and the block
    _check: tuple = field(repr=False, compare=False)

    def __eq__(self, other):
        return (type(other) is SteadyResponse and self.n_fock == other.n_fock
                and all(np.array_equal(getattr(self, key), getattr(other, key))
                        for key in ("omega_p", "sigma_minus", "a_expect")))

    @functools.cached_property
    def residual(self) -> float:
        return tridiagonal.check(self.n_fock, self.sigma_minus, *self._check)[1]


def _start_truncation(nbar: float) -> int:
    """Levels a sized truncation starts from: nbar, twelve Poisson standard
    deviations and a margin."""
    return math.ceil(nbar + 12.0*math.sqrt(nbar) + 40.0)


class _Binding(NamedTuple):
    """What a (system, state) pair fixes for every probe point, the excited
    block after omega_p among it; the entry keeps both objects, so their
    ids stay theirs.  pull is omega_c* - omega - i gc/2."""
    params: SystemParams
    sig: Coherent
    nbar: float
    qubit: QubitParams
    beta: complex
    omega: float
    pull: complex
    start: int
    block: tridiagonal.Block


# bindings by (id(params), id(sig)): both objects are frozen
_BINDINGS: dict = {}


def _bind(params: SystemParams, sig: Union[Vacuum, Coherent],
          n_fock: Optional[int]) -> _Binding:
    """The pair's binding, formed on first use, for a truncation n_fock
    that it can take; ValueError outside the oracle's domain."""
    key = (id(params), id(sig))
    binding = _BINDINGS.get(key)
    if binding is None:
        nbar, beta = cavity_photon_number(sig, params)
        # incoherent and thermal light carry no amplitude beta
        if beta is None:
            raise ValueError("oracle supports vacuum and coherent signals only")
        if len(params.qubits) != 1:
            raise ValueError("the Lindblad oracle handles exactly one qubit")
        qubit, omega = params.qubits[0], signal_frequency(sig, params)
        chi = qubit.chi
        pull = params.omega_c_star - omega - 0.5j*params.cavity.gamma_c
        b2 = abs(beta)**2
        # excited-block diagonal (omega_p - omega_q + i gamma_coh)
        # - 2 chi (n + |beta|^2) - pull n; off-diagonal 4 chi^2 |beta|^2 (k+1)
        block = tridiagonal.Block(2.0*chi*b2, 2.0*chi + pull.real,
                                  qubit.gamma_coh, -pull.imag, 4.0*chi*chi*b2)
        if len(_BINDINGS) == _KEPT_BINDINGS:
            del _BINDINGS[next(iter(_BINDINGS))]
        binding = _BINDINGS[key] = _Binding(params, sig, nbar, qubit, beta,
                                            omega, pull, _start_truncation(b2),
                                            block)
    cap = tridiagonal.MAX_FOCK
    if n_fock is None and binding.start > cap:
        raise ValueError(f"nbar = {binding.nbar:g} needs {binding.start} Fock "
                         f"levels, above the oracle's cap MAX_FOCK = {cap}")
    if n_fock is not None and not 4 <= n_fock <= cap:
        raise ValueError(f"n_fock must be at least 4 and at most "
                         f"MAX_FOCK = {cap}, got {n_fock}")
    return binding


def check_supported(params: SystemParams, sig: Union[Vacuum, Coherent],
                    n_fock: Optional[int] = None) -> tuple[QubitParams, complex]:
    """(qubit, beta) of a system, signal and truncation the oracle can take:
    one qubit, a state with an amplitude beta (vacuum or coherent light) and
    4 <= n_fock <= MAX_FOCK, n_fock None meaning the sized truncation's
    start; ValueError naming the limit crossed."""
    binding = _bind(params, sig, n_fock)
    return binding.qubit, binding.beta


def lindblad_steady_response(params: SystemParams, sig: Union[Vacuum, Coherent],
                             omega_p, n_fock: Optional[int] = None
                             ) -> SteadyResponse:
    """First-order probe response from the displaced-frame master equation.

    The zeroth-order steady state in the displaced frame is |g, 0>; the
    probe sideband keeps the <g,0| bra, so the sideband system closes on
    kets of n_fock levels per qubit sector.  omega_p is a float or a 1-D
    array.  sigma_minus is the probe-normalised response (comparable to
    qubit_response_coherent); a_expect keeps its Omega_p/2 drive factor.
    An explicit n_fock runs one `tridiagonal.fraction`, whose check runs
    when `residual` is first read; None runs `tridiagonal.sized` from
    `_start_truncation`, raising ConvergenceError where it stops at the cap.
    The `tridiagonal` functions are looked up in that module at every call.
    """
    binding = _bind(params, sig, n_fock)
    scalar = isinstance(omega_p, float) or np.ndim(omega_p) == 0
    wp = float(omega_p) if scalar else np.asarray(omega_p, dtype=float)
    omega, qubit = binding.omega, binding.qubit
    # ground-block diagonal (omega_p - omega) - pull n
    if (wp == omega) if scalar else (wp == omega).any():
        raise ArithmeticError("probing at the signal frequency leaves the "
                              "ground block singular")
    terms = (qubit.chi, wp - qubit.omega_q, binding.block)
    if n_fock is not None:        # its check runs when `residual` is read
        sigma, known = tridiagonal.fraction(n_fock, *terms), {}
    else:
        n_fock, sigma, change = tridiagonal.sized(binding.start, *terms)
        if change > tridiagonal.TOLERANCE:
            raise ConvergenceError(
                f"oracle truncation reached the cap MAX_FOCK = "
                f"{tridiagonal.MAX_FOCK}: {n_fock} -> "
                f"{tridiagonal.grown(n_fock)} levels still changed sigma_minus"
                f" by {change:.3e}")
        known = {"residual": change}
    # (Omega_p/2) a+ |0> over the ground block; the fields go in as the
    # constructor puts them, without its call
    pull = binding.pull
    a_expect = tridiagonal.quotient(0.5, (wp - omega) - pull.real, -pull.imag)
    result = object.__new__(SteadyResponse)
    result.__dict__.update(omega_p=wp, sigma_minus=sigma, a_expect=a_expect,
                           n_fock=n_fock, _check=terms, **known)
    return result


def dense_sigma_minus(params: SystemParams, sig: Union[Vacuum, Coherent],
                      omega_p: float, n_fock: int) -> complex:
    """sigma_minus at one probe point by a dense LAPACK solve of the block.

    The `oracle` command prints it for an explicit --n-fock: the benchmark's
    reference table for `oracle --n-fock 40` holds this solve's last bits,
    which the continued fraction moves.  It can go once that is recorded
    again.
    """
    binding = _bind(params, sig, n_fock)
    qubit, beta = binding.qubit, binding.beta
    if omega_p == binding.omega:
        raise ArithmeticError("probing at the signal frequency leaves the "
                              "ground block singular")
    levels = np.arange(n_fock)
    lowering = np.diag(np.sqrt(levels[1:]), 1).astype(complex)
    eye = np.eye(n_fock, dtype=complex)
    field = 2.0*qubit.chi*((lowering.conj().T + np.conj(beta)*eye)
                           @ (lowering + beta*eye))
    block = -field
    block.ravel()[::n_fock + 1] = (
        (omega_p - qubit.omega_q + 1j*qubit.gamma_coh) - field.diagonal()
    ) - binding.pull*levels
    try:
        return complex(qubit.chi*np.linalg.solve(block, eye[0])[0])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("sideband linear solve failed") from exc
