"""Truncated-Fock numerical validator for the analytic responses.

The probe sideband response of one qubit in a field of amplitude beta,
from the displaced-frame master equation on n_fock Fock levels per qubit
sector; it knows nothing about the series expansions it is meant to check.
The ground block is diagonal and is divided out.  The qubit-excited block,
2 chi (a+ + beta*)(a + beta) plus a diagonal, is tridiagonal, so the
response chi [block^-1]_00 is `tridiagonal.fraction`, run once per
truncation and per check.  Of the block, only the probe point's diagonal
term and the level count change from call to call: the rest is bound once
per (system, state) pair and kept for the pairs seen last.  A state
whose `photon_number` gives no beta (incoherent, thermal light) lies outside
the domain that `check_supported` states.  `dense_sigma_minus` solves the
same block densely for the `oracle` command's explicit-truncation table.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .detector import (Coherent, QubitParams, SystemParams, Vacuum,
                       cavity_photon_number, signal_frequency)
from .specfun import ConvergenceError
from .tridiagonal import Block, fraction

# the most Fock levels a truncation may hold
MAX_FOCK = 20000
# the (system, state) bindings kept, the oldest dropped first
_KEPT_BINDINGS = 8


@dataclass(frozen=True)
class SteadyResponse:
    """Scalars for one probe point, arrays for a grid.

    `residual` is the worst relative change of sigma_minus against
    ceil(1.5 n_fock) levels.  A sized truncation stores it from its growth
    loop; an explicit one runs that check when `residual` is first read and
    keeps it.  Equality compares the points, the responses and n_fock,
    elementwise on a grid, and ignores the check.  The instance is frozen.
    """
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
        check = fraction(math.ceil(1.5*self.n_fock), *self._check)
        return _change(self.sigma_minus, check)


def _start_truncation(nbar: float) -> int:
    """Levels a sized truncation starts from: nbar, twelve Poisson standard
    deviations and a margin."""
    return math.ceil(nbar + 12.0*math.sqrt(nbar) + 40.0)


class _Binding(NamedTuple):
    """What a (system, state) pair fixes for every probe point: the qubit,
    beta, the signal frequency omega, the pull omega_c* - omega - i gc/2,
    the sized truncation's start and the excited block after omega_p, whose
    per-level table is the one fraction table kept.  The entry keeps both
    objects, so their ids stay theirs."""
    params: SystemParams
    sig: Coherent
    nbar: float
    qubit: QubitParams
    beta: complex
    omega: float
    pull: complex
    start: int
    block: Block


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
        block = Block(2.0*chi*b2, 2.0*chi + pull.real, qubit.gamma_coh,
                      -pull.imag, 4.0*chi*chi*b2)
        if len(_BINDINGS) == _KEPT_BINDINGS:
            del _BINDINGS[next(iter(_BINDINGS))]
        binding = _BINDINGS[key] = _Binding(params, sig, nbar, qubit, beta,
                                            omega, pull, _start_truncation(b2),
                                            block)
    if n_fock is None:
        if binding.start > MAX_FOCK:
            raise ValueError(f"nbar = {binding.nbar:g} needs {binding.start} "
                             f"Fock levels, above the oracle's cap MAX_FOCK = "
                             f"{MAX_FOCK}")
    elif not 4 <= n_fock <= MAX_FOCK:
        raise ValueError(f"n_fock must be at least 4 and at most "
                         f"MAX_FOCK = {MAX_FOCK}, got {n_fock}")
    return binding


def check_supported(params: SystemParams, sig: Union[Vacuum, Coherent],
                    n_fock: Optional[int] = None) -> tuple[QubitParams, complex]:
    """(qubit, beta) of a system, signal and truncation the oracle can take.

    The domain is one qubit, a state with an amplitude beta (vacuum or
    coherent light) and 4 <= n_fock <= MAX_FOCK, where n_fock None means
    the sized truncation's start.  Raises ValueError naming the limit crossed.
    """
    binding = _bind(params, sig, n_fock)
    return binding.qubit, binding.beta


def _change(sigma, check) -> float:
    """The worst relative change of sigma against check, over a point or a
    grid; ArithmeticError once either pass has left the floats (nan or inf)."""
    with np.errstate(all="ignore"):
        change = float(np.max(abs(sigma - check)/abs(check), initial=0.0))
    if not math.isfinite(change):
        raise ArithmeticError("continued fraction is not finite")
    return change


def lindblad_steady_response(params: SystemParams, sig: Union[Vacuum, Coherent],
                             omega_p, n_fock: Optional[int] = None
                             ) -> SteadyResponse:
    """First-order probe response from the displaced-frame master equation.

    The zeroth-order steady state in the displaced frame is |g, 0>; the
    probe sideband keeps the <g,0| bra, so the sideband system closes on
    kets of n_fock levels per qubit sector.  omega_p is a float or a 1-D
    array.  sigma_minus is the probe-normalised response (comparable to
    qubit_response_coherent); a_expect keeps its Omega_p/2 drive factor.
    An explicit n_fock runs one recurrence of n_fock levels; its check at
    ceil(1.5 n_fock) levels runs when `residual` is first read.  None for
    n_fock starts at nbar + 12 sqrt(nbar) + 40 levels and grows them
    1.5-fold, each check becoming the next truncation, until the residual
    is at most 1e-13, raising ConvergenceError once the next truncation
    would pass MAX_FOCK.  A fraction that leaves the floats raises
    ArithmeticError: at the call, or for an explicit truncation's check,
    when `residual` is read.  The (system, state) pair's constants come
    from its binding; the truncation's checks, the probe point's terms and
    `fraction`, looked up in this module, run at every call.
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
    sigma = fraction(binding.start if n_fock is None else n_fock, *terms)
    if n_fock is not None:
        if not (cmath.isfinite(sigma) if scalar else np.isfinite(sigma).all()):
            raise ArithmeticError("continued fraction is not finite")
        known = {}                # its check runs when `residual` is read
    else:
        n_fock = binding.start
        while True:
            bigger = math.ceil(1.5*n_fock)
            check = fraction(bigger, *terms)
            change = _change(sigma, check)
            if change <= 1e-13:
                break
            if bigger > MAX_FOCK:
                raise ConvergenceError(
                    f"oracle truncation reached the cap MAX_FOCK = {MAX_FOCK}:"
                    f" {n_fock} -> {bigger} levels still changed sigma_minus"
                    f" by {change:.3e}")
            n_fock, sigma = bigger, check
        known = {"residual": change}
    # (Omega_p/2) a+ |0> over the ground block; the fields go in as the
    # constructor puts them, without its call
    result = object.__new__(SteadyResponse)
    result.__dict__.update(omega_p=wp, sigma_minus=sigma,
                           a_expect=0.5/((wp - omega) - binding.pull),
                           n_fock=n_fock, _check=terms, **known)
    return result


def dense_sigma_minus(params: SystemParams, sig: Union[Vacuum, Coherent],
                      omega_p: float, n_fock: int) -> complex:
    """sigma_minus at one probe point by a dense LAPACK solve of the block.

    The `oracle` command prints it for an explicit --n-fock: the rel_dev
    column sits at rounding level, the table that perfbench/refs records for
    `oracle --n-fock 40` holds this solve's last bits, and the continued
    fraction moves them.  It can go once those references are recorded
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
