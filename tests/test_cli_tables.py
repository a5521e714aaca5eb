"""The `cavity`, `atom` and `waveguide` outputs, pinned to the tables the
commands wrote while they computed on numpy: each table is rebuilt here with
np.linspace, np.real and np.imag, and a run must write it character for
character.  The one exception is S21 in `cavity_sweep.csv` (below)."""

import dataclasses
import json
import math

import numpy as np
import pytest

from starkprobe import atom, cavity, waveguide
from starkprobe.cli import run_cli
from starkprobe.config import parse_quantity
from starkprobe.presets import (ATOM, PLATE_GEOMETRY, TABLE_GEOMETRY,
                                resonator_preset)

SWEEP_HEADER = "omega_hz,re_s21,im_s21,abs_s21,re_s11,im_s11,abs_s11"


def _numpy_csv(header, *columns):
    # each column through np.asarray(col, dtype=float), 17 digits a value
    rows = [header] + [",".join(format(v, ".17g") for v in row) for row in
                       zip(*(np.asarray(col, dtype=float).tolist()
                             for col in columns))]
    return "\n".join(rows) + "\n"


def _cavity_sweep(geom, grid, omegas):
    s21, s11 = zip(*(cavity.bare_s_params(geom, w) for w in omegas))
    return _numpy_csv(SWEEP_HEADER, grid/math.tau,
                      np.real(s21), np.imag(s21), [abs(v) for v in s21],
                      np.real(s11), np.imag(s11), [abs(v) for v in s11])


def test_cavity_tables(tmp_path):
    assert run_cli(["cavity", "--points", "21", "--out", str(tmp_path)]) == 0
    geom = resonator_preset(0.005)
    modes = cavity.resonances(geom, 3)
    assert (tmp_path/"cavity_modes.csv").read_text() == _numpy_csv(
        "n,f_n_hz,gamma_n_hz,q_factor", [m.n for m in modes],
        [m.omega_n/math.tau for m in modes],
        [m.gamma_n/math.tau for m in modes], [m.q_factor for m in modes])
    grid = np.linspace(0.5*modes[0].omega_n, 1.15*modes[-1].omega_n, 21)
    written = (tmp_path/"cavity_sweep.csv").read_text()
    # the grid's points as floats: bare_s_params' own arithmetic
    assert written == _cavity_sweep(geom, grid, grid.tolist())


def test_cavity_s21_moved_by_an_ulp_at_most(tmp_path):
    # Fed an np.float64, bare_s_params divided by the Python complex
    # denominator in numpy's scalar arithmetic, which multiplies by a rounded
    # reciprocal where Python divides: S21 moves by up to an ulp (2 in its
    # modulus), and every other column keeps its bits.
    assert run_cli(["cavity", "--points", "1001", "--out", str(tmp_path)]) == 0
    geom = resonator_preset(0.005)
    modes = cavity.resonances(geom, 3)
    grid = np.linspace(0.5*modes[0].omega_n, 1.15*modes[-1].omega_n, 1001)
    old = _cavity_sweep(geom, grid, grid).splitlines()
    new = (tmp_path/"cavity_sweep.csv").read_text().splitlines()
    assert new[0] == old[0] == SWEEP_HEADER and len(new) == len(old)
    for old_row, new_row in zip(old[1:], new[1:]):
        for col, (a, b) in enumerate(zip(old_row.split(","),
                                         new_row.split(","))):
            ulps = {1: 1, 2: 1, 3: 2}.get(col, 0)
            assert abs(float(b) - float(a)) <= ulps*math.ulp(float(a))


@pytest.mark.parametrize("span", [None, "12 MHz"])
def test_atom_table(tmp_path, span):
    argv = ["atom", "--points", "21", "--out", str(tmp_path/"out")]
    if span is not None:
        (tmp_path/"atom.cfg").write_text(f"span = {span}\n")
        argv += ["--config", str(tmp_path/"atom.cfg")]
    assert run_cli(argv) == 0
    half = 10.0*ATOM.gamma_coh if span is None else parse_quantity(span)
    grid = np.linspace(-half, half, 21)
    s11, s21 = zip(*(atom.atom_s_params(dataclasses.replace(
        ATOM, delta_omega=d)) for d in grid))
    assert (tmp_path/"out"/"atom_sweep.csv").read_text() == _numpy_csv(
        "delta_hz,re_s11,im_s11,re_s21,im_s21", grid/math.tau,
        np.real(s11), np.imag(s11), np.real(s21), np.imag(s21))


_MODELS = {
    "full": lambda: waveguide.cpw_params(TABLE_GEOMETRY),
    "eps2-eq-eps1": lambda: waveguide.cpw_params(dataclasses.replace(
        TABLE_GEOMETRY, eps2_rel=TABLE_GEOMETRY.eps1_rel)),
    "two-half-planes": lambda: waveguide.half_plane_params(
        TABLE_GEOMETRY.w, TABLE_GEOMETRY.s, TABLE_GEOMETRY.eps1_rel),
    "parallel-plate": lambda: waveguide.parallel_plate_params(PLATE_GEOMETRY),
}


@pytest.mark.parametrize("model", _MODELS)
def test_waveguide_report(tmp_path, capsys, model):
    assert run_cli(["waveguide", "--model", model, "--out", str(tmp_path)]) == 0
    data = {"model": model, **_MODELS[model]().as_dict()}
    text = "".join(f"{k} = {format(v, '.17g') if isinstance(v, float) else v}\n"
                   for k, v in data.items())
    assert (tmp_path/f"waveguide_{model}.txt").read_text() == text
    assert capsys.readouterr().out == text
    assert (tmp_path/f"waveguide_{model}.json").read_text() == json.dumps(
        data, indent=2, sort_keys=True, default=float) + "\n"
