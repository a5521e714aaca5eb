"""Transmission-line parameters from conformal mapping.

Two geometries: a parallel-plate line filled with two stacked dielectrics,
and a coplanar waveguide (CPW) on a layered substrate (oxide of thickness
h2 directly under the metal, substrate of thickness h1 below it, vacuum
underneath; upper half-plane vacuum, ground shield at infinity).

The static capacitance of the CPW composes the per-region conformal-map
capacitances C_i = eps0 * 2K(k_i)/K(k_i') through the interface-charge
relations; the effective (measured) quantities v, Z and C_eff differ from
the static ones because the interface polarisation currents enter the
inductance.  All outputs are plain SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import AT_LEAST_ONE, POSITIVE, POSITIVE_OR_INF, check_values
from .specfun import elliptic_k, elliptic_k_from_complement

MU0 = 4e-7*math.pi        # H/m
C_LIGHT = 2.99792458e8    # m/s
EPS0 = 1.0/(MU0*C_LIGHT**2)   # F/m, consistent with MU0 and C_LIGHT


@dataclass(frozen=True)
class ParallelPlateGeometry:
    """Signal and ground plates of width w_plate, two dielectric fills."""
    w_plate: float      # m
    d1: float           # m, thickness of layer with eps1
    d2: float           # m, thickness of layer with eps2
    eps1_rel: float
    eps2_rel: float

    def __post_init__(self):
        check_values(vars(self), w_plate=POSITIVE, d1=POSITIVE, d2=POSITIVE,
                     eps1_rel=AT_LEAST_ONE, eps2_rel=AT_LEAST_ONE)


@dataclass(frozen=True)
class CpwGeometry:
    """CPW: centre strip width w, gap s, oxide h2 on substrate h1."""
    w: float            # m
    s: float            # m
    h1: float           # m, substrate (eps1) thickness; may be math.inf
    h2: float           # m, oxide (eps2) thickness
    eps1_rel: float
    eps2_rel: float

    def __post_init__(self):
        check_values(vars(self), w=POSITIVE, s=POSITIVE, h1=POSITIVE_OR_INF,
                     h2=POSITIVE, eps1_rel=AT_LEAST_ONE,
                     eps2_rel=AT_LEAST_ONE)


@dataclass(frozen=True)
class WaveguideParams:
    c_line: float       # F/m, static C'
    l_line: float       # H/m, L'
    v: float            # m/s
    eps_eff: float
    c_eff: float        # F/m, 1/(L' v^2)
    z: float            # Ohm, v L'
    z_static: float     # Ohm, sqrt(L'/C')

    def __post_init__(self):
        # from a checked geometry, a value out of range is a numerical failure
        vals = (self.c_line, self.l_line, self.v, self.eps_eff, self.c_eff,
                self.z, self.z_static)
        if any(not (x > 0) for x in vals):
            raise ArithmeticError(f"non-positive waveguide parameter in {self}")
        if self.v > C_LIGHT*(1 + 1e-12):
            raise ArithmeticError("phase velocity exceeds c")

    def as_dict(self) -> dict:
        return {"c_line_f_per_m": self.c_line, "l_line_h_per_m": self.l_line,
                "v_m_per_s": self.v, "v_over_c": self.v/C_LIGHT,
                "eps_eff": self.eps_eff, "c_eff_f_per_m": self.c_eff,
                "z_ohm": self.z, "z_static_ohm": self.z_static}


def _derived(c_line: float, l_line: float, eps_eff: float) -> WaveguideParams:
    v = C_LIGHT/math.sqrt(eps_eff)
    return WaveguideParams(
        c_line=c_line, l_line=l_line, v=v, eps_eff=eps_eff,
        c_eff=1.0/(l_line*v*v), z=v*l_line, z_static=math.sqrt(l_line/c_line))


def parallel_plate_params(geom: ParallelPlateGeometry) -> WaveguideParams:
    """Two-dielectric parallel-plate line (edge effects neglected)."""
    e1 = geom.eps1_rel*EPS0
    e2 = geom.eps2_rel*EPS0
    stack = geom.d1/e1 + geom.d2/e2
    v = math.sqrt((geom.d1/e1**2 + geom.d2/e2**2)/(MU0*stack))
    c_line = geom.w_plate/stack
    l_line = MU0*e2*stack/geom.w_plate
    return _derived(c_line, l_line, (C_LIGHT/v)**2)


def _shape_factor(w: float, s: float, depth: float) -> float:
    """Dimensionless capacitance 2K(k)/K(k') of a slab of the given depth
    under the strip, or of a half-plane (depth inf, k = w/(w+2s)).

    The slab has k = tanh(a)/tanh(b) with a = pi w/2h, b = pi (w+2s)/2h,
    and k'^2 = sinh(b-a) sinh(b+a)/(cosh^2 a sinh^2 b) = 4 e^(-2a) r, a
    form in which nothing cancels where k -> 1 (a slab thinner than the
    strip) and nothing overflows.
    """
    k = None
    if math.isinf(depth):
        k = w/(w + 2.0*s)
        kp = math.sqrt((1.0 - k)*(1.0 + k))
    else:
        a = math.pi*w/(2.0*depth)
        b = math.pi*(w + 2.0*s)/(2.0*depth)
        r = (math.expm1(-2.0*(b - a))*math.expm1(-2.0*(b + a))
             / ((1.0 + math.exp(-2.0*a))*math.expm1(-2.0*b))**2)
        if a > 20.0:
            # k' < 5e-9, and it underflows past a = 745: K(k) ~ ln(4/k')
            # taken as ln 2 + a - ln(r)/2, K(k') -> pi/2
            return 2.0*(math.log(2.0) + a - 0.5*math.log(r))/(math.pi/2.0)
        kp = 2.0*math.exp(-a)*math.sqrt(r)
    if not 0.0 < kp < 1.0:
        # a checked geometry whose modulus rounds to 0 or 1
        raise ArithmeticError(f"degenerate conformal modulus k'={kp}")
    # K(k') from k where it is at hand: rebuilt from k', a small k (a gap
    # much wider than the strip) loses its digits
    k_of_kp = elliptic_k(kp) if k is None else elliptic_k_from_complement(k)
    return 2.0*elliptic_k_from_complement(kp)/k_of_kp


def cpw_params(geom: CpwGeometry) -> WaveguideParams:
    """Layered CPW line parameters.

    The lower half-plane capacitance follows from eliminating the
    per-region potentials against the interface boundary conditions,

        1/C_d = 1/C_0 + (1/e1 - 1)/C_1 + (1/e2 - 1/e1)/C_2,

    with every C_i a vacuum shape factor (region 0 the vacuum half-plane,
    region 1 the slab down to h1+h2, region 2 the oxide slab h2) and e_i
    the relative permittivities.  The effective permittivity and the
    parallel inductance composition L' = mu0/(C_u/eps0 + C_d/eps2) carry
    the interface-current corrections.
    """
    w, s = geom.w, geom.s
    e1, e2 = geom.eps1_rel, geom.eps2_rel
    c0 = _shape_factor(w, s, math.inf)
    c1 = _shape_factor(w, s, geom.h1 + geom.h2)
    c2 = _shape_factor(w, s, geom.h2)

    r1, r2 = 1.0/e1, 1.0/e2
    inv_cd = 1.0/c0 + (r1 - 1.0)/c1 + (r2 - r1)/c2
    if inv_cd <= 0:
        raise ValueError("degenerate CPW composition (check layer ordering)")
    cd = 1.0/inv_cd

    c_line = EPS0*(c0 + cd)
    bracket = ((1.0 - c0/c1)*(r1 - 1.0)*((r1 - 1.0)/c1 + 2.0*(r2 - r1)/c2)
               + (1.0 - c0/c2)*(r1 - r2)**2/c2)
    inv_eps = 2.0*c0/(c0 + cd) + bracket*cd*cd/(c0 + cd)
    l_line = MU0/(c0 + cd/e2)
    return _derived(c_line, l_line, 1.0/inv_eps)


def half_plane_params(w: float, s: float, eps_rel: float) -> WaveguideParams:
    """CPW over a uniform dielectric half-plane (vacuum above).

    h1 -> infinity limit of the layered model: C_d = eps_rel * C_0 and
    eps_eff = (1 + eps_rel)/2 exactly.  The inductance applies the
    composition L' = mu0/(C_u/eps0 + C_d/eps) with the dielectric half
    entering through its vacuum shape factor, L' = mu0/(C_0 (1 + 1/eps)),
    which reproduces the published two-half-plane line constants; feeding
    the filled capacitance instead would give mu0/(2 C_0).
    """
    check_values(dict(w=w, s=s, eps_rel=eps_rel), w=POSITIVE, s=POSITIVE,
                 eps_rel=AT_LEAST_ONE)
    c0 = _shape_factor(w, s, math.inf)
    c_line = EPS0*c0*(1.0 + eps_rel)
    l_line = MU0/(c0*(1.0 + 1.0/eps_rel))
    return _derived(c_line, l_line, (1.0 + eps_rel)/2.0)
