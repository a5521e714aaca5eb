"""Steady state of a single driven artificial atom in an open waveguide.

No cavity here: the two-level system couples directly to the line, decays
radiatively at gamma1 and dephases at gamma_phi.  The reflection S11 and
transmission S21 = 1 + S11 follow from the steady-state dipole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import FINITE, NON_NEGATIVE, POSITIVE, check_values


@dataclass(frozen=True)
class AtomParams:
    delta_omega: float    # rad/s, drive detuning omega - omega_atom
    gamma1: float         # rad/s, radiative decay into the line
    gamma_phi: float      # rad/s, pure dephasing
    rabi: complex         # rad/s, drive Rabi frequency

    def __post_init__(self):
        check_values(vars(self), delta_omega=FINITE, gamma1=POSITIVE,
                     gamma_phi=NON_NEGATIVE, rabi=FINITE)

    @property
    def gamma_coh(self) -> float:
        """Coherence decay gamma1/2 + gamma_phi."""
        return 0.5*self.gamma1 + self.gamma_phi


def atom_steady_state(p: AtomParams) -> tuple[float, complex]:
    """(sigma_z, sigma_minus) of the driven atom.

    sigma_z = -(d^2 + g'^2) g1 / [(d^2 + g'^2) g1 + |Omega|^2 g'] and the
    matching dipole; sigma_z lies in [-1, 0].
    """
    g1, gp = p.gamma1, p.gamma_coh
    d = p.delta_omega
    denom = (d*d + gp*gp)*g1 + abs(p.rabi)**2*gp
    sigma_z = -(d*d + gp*gp)*g1/denom
    sigma_minus = -0.5*(d - 1j*gp)*g1*p.rabi/denom
    return sigma_z, sigma_minus


def atom_s_params(p: AtomParams) -> tuple[complex, complex]:
    """(S11, S21) seen by the drive; S21 = 1 + S11 identically."""
    g1, gp = p.gamma1, p.gamma_coh
    d = p.delta_omega
    denom = 1.0 + (d/gp)**2 + abs(p.rabi)**2/(g1*gp)
    s11 = -(g1/(2.0*gp))*(1.0 + 1j*d/gp)/denom
    return s11, 1.0 + s11

