import math

import pytest

from starkprobe.waveguide import (C_LIGHT, EPS0, MU0, CpwGeometry,
                                  ParallelPlateGeometry, _shape_factor,
                                  cpw_params, half_plane_params,
                                  parallel_plate_params)
from starkprobe.presets import TABLE_GEOMETRY

from closedform import NOMINAL_GEOMETRY, TABLE_ROWS


def columns(p):
    return (p.c_line, p.v/C_LIGHT, p.eps_eff, p.l_line, p.c_eff, p.z,
            p.z_static)


def test_parallel_plate_vacuum_limit():
    geom = ParallelPlateGeometry(w_plate=10e-6, d1=1e-6, d2=2e-6,
                                 eps1_rel=1.0, eps2_rel=1.0)
    p = parallel_plate_params(geom)
    assert abs(p.v/C_LIGHT - 1.0) < 1e-12
    assert abs(p.c_line - EPS0*10e-6/3e-6) < 1e-20
    assert abs(p.z/p.z_static - 1.0) < 1e-10


def test_parallel_plate_single_dielectric_consistency():
    geom = ParallelPlateGeometry(w_plate=5e-6, d1=1e-6, d2=3e-6,
                                 eps1_rel=4.0, eps2_rel=4.0)
    p = parallel_plate_params(geom)
    assert abs(1.0/math.sqrt(p.l_line*p.c_line) - p.v) < 1e-6*p.v
    assert abs(p.v - C_LIGHT/2.0) < 1e-6*p.v


def test_parallel_plate_two_dielectric_value():
    d = 1e-6
    geom = ParallelPlateGeometry(w_plate=10e-6, d1=d, d2=d,
                                 eps1_rel=2.0, eps2_rel=1.0)
    p = parallel_plate_params(geom)
    # direct arithmetic from the defining expression
    e1, e2 = 2.0*EPS0, EPS0
    v_ref = math.sqrt((d/e1**2 + d/e2**2)/(MU0*(d/e1 + d/e2)))
    assert abs(p.v - v_ref) < 1e-9*v_ref


def test_cpw_vacuum_reduction():
    geom = CpwGeometry(w=10e-6, s=6.6e-6, h1=500e-6, h2=550e-9,
                       eps1_rel=1.0, eps2_rel=1.0)
    p = cpw_params(geom)
    assert abs(p.v/C_LIGHT - 1.0) < 1e-10
    assert abs(p.z/p.z_static - 1.0) < 1e-10
    assert abs(p.c_eff/p.c_line - 1.0) < 1e-10


def test_effective_capacitance_identity():
    for p in (cpw_params(TABLE_GEOMETRY),
              half_plane_params(10e-6, 7.5e-6, 11.6),
              parallel_plate_params(ParallelPlateGeometry(
                  10e-6, 500e-6, 550e-9, 11.6, 3.78))):
        assert abs(p.c_eff*p.l_line*p.v**2 - 1.0) < 1e-12


def test_velocity_monotone_in_substrate_permittivity():
    last = None
    for eps1 in (2.0, 4.0, 8.0, 11.6, 16.0):
        p = cpw_params(CpwGeometry(w=10e-6, s=6.6e-6, h1=500e-6, h2=550e-9,
                                   eps1_rel=eps1, eps2_rel=3.78))
        if last is not None:
            assert p.v < last
        last = p.v


@pytest.mark.parametrize("row", sorted(TABLE_ROWS))
def test_published_line_constant_rows(row):
    if row == "two_half_planes":
        p = half_plane_params(TABLE_GEOMETRY.w, TABLE_GEOMETRY.s,
                              TABLE_GEOMETRY.eps1_rel)
    elif row == "eps2_eq_eps1":
        g = TABLE_GEOMETRY
        p = cpw_params(CpwGeometry(g.w, g.s, g.h1, g.h2, g.eps1_rel,
                                   g.eps1_rel))
    else:
        p = cpw_params(TABLE_GEOMETRY)
    for got, ref in zip(columns(p), TABLE_ROWS[row]):
        assert abs(got/ref - 1.0) < 0.01


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        CpwGeometry(w=-1e-6, s=6.6e-6, h1=500e-6, h2=550e-9,
                    eps1_rel=11.6, eps2_rel=3.78)
    with pytest.raises(ValueError):
        ParallelPlateGeometry(10e-6, 1e-6, 1e-6, 0.5, 1.0)


def test_thin_layers_against_mpmath():
    # a substrate thinner than the strip (k -> 1) returns finite constants
    thin = cpw_params(CpwGeometry(w=10e-6, s=7.5e-6, h1=100e-9, h2=100e-9,
                                  eps1_rel=11.6, eps2_rel=3.78))
    assert all(math.isfinite(v) and v > 0 for v in thin.as_dict().values())
    mpmath = pytest.importorskip("mpmath")
    g = TABLE_GEOMETRY
    with mpmath.workdps(60):
        for a in [10.0 + 0.5*i for i in range(41)]:    # a = pi w/2h
            depth = math.pi*g.w/(2.0*a)
            k = (mpmath.tanh(mpmath.pi*g.w/(2*mpmath.mpf(depth)))
                 / mpmath.tanh(mpmath.pi*(g.w + 2*g.s)/(2*mpmath.mpf(depth))))
            ref = 2*mpmath.ellipk(k*k)/mpmath.ellipk(1 - k*k)
            got = _shape_factor(g.w, g.s, depth)
            assert abs(got/ref - 1) < 1e-12, a
            # the substrate slab, then the oxide, at that depth
            for h1, h2 in ((0.5*depth, 0.5*depth), (g.h1, depth)):
                p = cpw_params(CpwGeometry(g.w, g.s, h1, h2, g.eps1_rel,
                                           g.eps2_rel))
                assert all(math.isfinite(v) for v in p.as_dict().values())


def test_wide_gap_half_plane_against_mpmath():
    # a gap much wider than the strip (k -> 0): K(k') comes from k itself
    mpmath = pytest.importorskip("mpmath")
    w = TABLE_GEOMETRY.w
    with mpmath.workdps(60):
        for ratio in (100.0, 1e3, 1e4):
            k = mpmath.mpf(w)/(w + 2*mpmath.mpf(ratio*w))
            ref = 2*mpmath.ellipk(k*k)/mpmath.ellipk(1 - k*k)
            got = _shape_factor(w, ratio*w, math.inf)
            assert abs(got/ref - 1) <= 1e-13, ratio


def test_nominal_gap_moves_impedance_columns_not_velocity():
    # the 6.6 um fabrication gap against the table's effective 7.5 um
    table = cpw_params(TABLE_GEOMETRY).as_dict()
    nominal = cpw_params(NOMINAL_GEOMETRY).as_dict()
    shift = {key: abs(nominal[key]/table[key] - 1) for key in table}
    for key in ("c_line_f_per_m", "l_line_h_per_m", "c_eff_f_per_m", "z_ohm",
                "z_static_ohm"):
        assert 0.034 < shift[key] < 0.038, key
    assert shift["v_m_per_s"] < 5e-4
    assert shift["eps_eff"] < 1e-3
