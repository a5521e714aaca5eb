import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from starkprobe.atom import AtomParams
from starkprobe.cavity import ResonatorGeometry
from starkprobe.cli import run_cli
from starkprobe.config import ConfigError, load_config, parse_quantity
from starkprobe.detector import (CavityParams, Coherent, QubitParams, Spectrum,
                                 Thermal, Vacuum, figure_of_merit, sweep)
from starkprobe.output import emit_spectrum, spectrum_to_csv
from starkprobe.presets import FIGURES
from starkprobe.waveguide import CpwGeometry, ParallelPlateGeometry

TWO_PI = 2.0*math.pi


# ---------------------------------------------------------------------------
# configuration parsing

def test_parse_quantities():
    assert parse_quantity("9 GHz") == TWO_PI*9e9
    assert parse_quantity("100 kHz") == TWO_PI*100e3
    assert parse_quantity("6.6 um") == pytest.approx(6.6e-6, rel=1e-15)
    assert parse_quantity("1 ns") == 1e-9
    assert parse_quantity("0.25") == 0.25
    assert parse_quantity("3 rad/s") == 3.0


def test_parse_rejects_garbage():
    for bad in ("", "x GHz", "1 2 3", "5 lightyears"):
        with pytest.raises(ConfigError):
            parse_quantity(bad)


def test_load_text_config(tmp_path):
    cfg = tmp_path/"run.cfg"
    cfg.write_text("""
# detector settings
omega_q = 10 GHz
omega_c = 9 GHz
chi     = 10 MHz   # Stark shift
gamma_c = 100 kHz
""")
    out = load_config(cfg, ("omega_q", "omega_c", "chi", "gamma_c"))
    assert out["omega_q"] == TWO_PI*10e9
    assert out["chi"] == TWO_PI*10e6


def test_load_json_config(tmp_path):
    cfg = tmp_path/"run.json"
    cfg.write_text(json.dumps({"omega_q": "10 GHz", "gamma_c": TWO_PI*1e5}))
    out = load_config(cfg, ("omega_q", "gamma_c"))
    assert out["omega_q"] == TWO_PI*10e9
    assert out["gamma_c"] == TWO_PI*1e5


def test_load_config_bad_line(tmp_path):
    cfg = tmp_path/"run.cfg"
    cfg.write_text("omega_q 10 GHz\n")
    with pytest.raises(ConfigError):
        load_config(cfg, ("omega_q",))
    # a key the command does not read is named, in either format
    cfg.write_text("omega_q = 10 GHz\ngama = 1 MHz\n")
    with pytest.raises(ConfigError, match="unknown key gama "):
        load_config(cfg, ("omega_q", "gamma"))
    cfg = tmp_path/"run.json"
    cfg.write_text(json.dumps({"tau_c": "1 ps"}))
    with pytest.raises(ConfigError, match="unknown key tau_c "):
        load_config(cfg, ("omega_q",))


@pytest.mark.parametrize("suffix", [".cfg", ".json"])
def test_config_key_given_twice(tmp_path, capsys, suffix):
    # a key given twice is refused, not read as its later value: exit 2,
    # nothing written
    cfg = tmp_path/f"run{suffix}"
    if suffix == ".json":
        cfg.write_text(json.dumps(_ONE_QUBIT)[:-1] + ', "chi": "1 MHz"}')
        where = f"{cfg}: "
    else:
        cfg.write_text("".join(f"{key} = {value}\n"
                               for key, value in _ONE_QUBIT.items())
                       + "\n# a second Stark shift\nchi = 1 MHz\n")
        where = f"{cfg}:7: "
    message = where + "key chi given twice"
    with pytest.raises(ConfigError) as caught:
        load_config(cfg, _ONE_QUBIT)
    assert str(caught.value).startswith(message)
    if suffix == ".cfg":
        assert str(caught.value) == message + ", first on line 4"
    out = tmp_path/"out"
    assert run_cli(["detect", "--config", str(cfg), "--points", "5",
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {message}" in capsys.readouterr().err


# every float field of every parameter class, with a valid value
_PARAMETER_CLASSES = [
    (QubitParams, dict(omega_q=1.0, chi=1.0, gamma=0.0, gamma_phi=0.0)),
    (CavityParams, dict(omega_c=1.0, gamma_c=1.0)),
    (AtomParams, dict(delta_omega=0.0, gamma1=1.0, gamma_phi=0.0, rabi=0.0)),
    (ResonatorGeometry, dict(length=1.0, gap_capacitance=1.0,
                             line_capacitance=1.0, velocity=1.0)),
    (ParallelPlateGeometry, dict(w_plate=1.0, d1=1.0, d2=1.0, eps1_rel=1.0,
                                 eps2_rel=1.0)),
    (CpwGeometry, dict(w=1.0, s=1.0, h1=1.0, h2=1.0, eps1_rel=1.0,
                       eps2_rel=1.0)),
]


@pytest.mark.parametrize("cls,good", _PARAMETER_CLASSES,
                         ids=[cls.__name__ for cls, _ in _PARAMETER_CLASSES])
def test_constructors_reject_non_finite(cls, good):
    cls(**good)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            if (cls, name, bad) == (CpwGeometry, "h1", math.inf):
                assert cls(**{**good, name: bad}).h1 == math.inf
                continue
            with pytest.raises(ValueError, match=f"^{name} must be "):
                cls(**{**good, name: bad})


# ---------------------------------------------------------------------------
# emission

def csv_to_spectrum(path: Path) -> Spectrum:
    """Inverse of spectrum_to_csv (base columns only)."""
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = {name: i for i, name in enumerate(header)}
    omega, s21 = [], []
    for line in lines[1:]:
        cells = line.split(",")
        omega.append(float(cells[idx["omega_p_hz"]])*math.tau)
        s21.append(complex(float(cells[idx["re_s21"]]),
                           float(cells[idx["im_s21"]])))
    return Spectrum(omega_p=np.array(omega), s21=np.array(s21))


def check_sidecar(json_path: Path, csv_path: Path) -> dict:
    """The written sidecar has exactly its four keys and describes the
    written CSV: its column names and its number of rows."""
    doc = json.loads(json_path.read_text())
    header, *rows = csv_path.read_text().splitlines()
    assert sorted(doc) == ["columns", "format", "parameters", "points"]
    assert doc["format"] == "starkprobe-spectrum-v1"
    assert doc["columns"] == header.split(",")
    assert doc["points"] == len(rows)
    return doc


def small_spectrum():
    fp = FIGURES["fig1"]
    system = fp.system()
    grid = np.linspace(fp.omega_q - 3.0*fp.chi, fp.omega_q + 3.0*fp.chi, 21)
    return sweep(system, Coherent(nbar=1.0), grid, with_components=True)


def test_csv_roundtrip_bitwise(tmp_path):
    spec = small_spectrum()
    path = tmp_path/"spec.csv"
    spectrum_to_csv(spec, path)
    back = csv_to_spectrum(path)
    # S21 columns round-trip bitwise; the grid is serialised in Hz, so the
    # rad/s reconstruction can differ by one ulp of the 2 pi conversion
    assert np.array_equal(back.s21, spec.s21)
    assert np.all(np.abs(back.omega_p - spec.omega_p)
                  <= np.spacing(spec.omega_p))
    # a second serialisation cycle is byte-identical
    again = tmp_path/"spec2.csv"
    spectrum_to_csv(Spectrum(back.omega_p, back.s21), again)
    first_cols = [line.split(",")[:4] for line
                  in path.read_text().splitlines()]
    second_cols = [line.split(",")[:4] for line
                   in again.read_text().splitlines()]
    assert first_cols == second_cols


def test_json_sidecar_describes_csv(tmp_path):
    spec = small_spectrum()
    csv_path, json_path = emit_spectrum(spec, tmp_path, "spec",
                                        formats=("csv", "json"))
    doc = check_sidecar(json_path, csv_path)
    assert doc["points"] == 21
    # the per-term columns are named too
    assert "re_cavity" in doc["columns"]
    assert doc["parameters"]["state"] == "coherent"


def test_svg_polylines(tmp_path):
    spec = small_spectrum()
    paths = emit_spectrum(spec, tmp_path, "s", formats=("svg",))
    text = paths[0].read_text()
    assert text.count("<polyline") == 3
    # a flat S21 (all three channels 0) is drawn along the bottom edge
    flat = Spectrum(omega_p=np.array([1.0, 2.0, 3.0]), s21=np.zeros(3))
    text = emit_spectrum(flat, tmp_path, "flat", formats=("svg",))[0].read_text()
    assert text.count('points="40.00,440.00 450.00,440.00 860.00,440.00"') == 3
    with pytest.raises(ValueError, match="unknown format 'pdf'"):
        emit_spectrum(flat, tmp_path, "flat", formats=("pdf",))


def test_emit_deterministic(tmp_path):
    spec = small_spectrum()
    a = emit_spectrum(spec, tmp_path/"a", "spec", formats=("csv", "json"))
    b = emit_spectrum(spec, tmp_path/"b", "spec", formats=("csv", "json"))
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


# ---------------------------------------------------------------------------
# CLI end-to-end

def test_cli_waveguide(tmp_path, capsys):
    rc = run_cli(["waveguide", "--model", "full", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path/"waveguide_full.json").read_text())
    assert abs(report["z_ohm"]/30.8 - 1.0) < 0.01


def test_cli_waveguide_with_config(tmp_path):
    cfg = tmp_path/"geom.cfg"
    cfg.write_text("w = 10 um\ns = 6.6 um\nh1 = 500 um\nh2 = 550 nm\n"
                   "eps1_rel = 11.6\neps2_rel = 3.78\n")
    rc = run_cli(["waveguide", "--model", "full", "--config", str(cfg),
                  "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path/"waveguide_full.json").read_text())
    # nominal gap lands a few percent away from the published row
    assert abs(report["z_ohm"]/30.8 - 1.0) < 0.06


def test_cli_cavity(tmp_path):
    rc = run_cli(["cavity", "--ratio", "0.01", "--modes", "3",
                  "--points", "101", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path/"cavity_modes.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    sweep_lines = (tmp_path/"cavity_sweep.csv").read_text().strip().splitlines()
    assert len(sweep_lines) == 102


def test_cli_atom(tmp_path):
    rc = run_cli(["atom", "--points", "51", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path/"atom_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 52


def test_cli_detect_preset(tmp_path):
    rc = run_cli(["detect", "--preset", "fig1", "--state", "coherent",
                  "--nbar", "1", "--points", "41", "--out", str(tmp_path),
                  "--format", "all"])
    assert rc == 0
    for ext in ("csv", "json", "svg"):
        assert (tmp_path/f"full_fig1_coherent.{ext}").exists()
    doc = check_sidecar(tmp_path/"full_fig1_coherent.json",
                        tmp_path/"full_fig1_coherent.csv")
    assert doc["points"] == 41


def test_cli_detect_determinism(tmp_path):
    args = ["detect", "--preset", "fig2bis", "--state", "incoherent",
            "--nbar", "1", "--points", "31", "--format", "csv"]
    rc1 = run_cli(args + ["--out", str(tmp_path/"a")])
    rc2 = run_cli(args + ["--out", str(tmp_path/"b")])
    assert rc1 == rc2 == 0
    assert ((tmp_path/"a"/"full_fig2bis_incoherent.csv").read_bytes()
            == (tmp_path/"b"/"full_fig2bis_incoherent.csv").read_bytes())


def test_cli_comb(tmp_path):
    rc = run_cli(["comb", "--preset", "fig1", "--state", "incoherent",
                  "--nbar", "1", "--points", "41", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path/"comb_fig1_incoherent.csv").exists()


def test_cli_detect_thermal_with_config(tmp_path):
    cfg = tmp_path/"sys.cfg"
    cfg.write_text("omega_q = 10 GHz\nomega_c = 9 GHz\nchi = 10 MHz\n"
                   "gamma_c = 100 kHz\ngamma = 250 kHz\n")
    rc = run_cli(["detect", "--config", str(cfg), "--state", "thermal",
                  "--nbar", "1", "--tau-c", "1e-12", "--points", "21",
                  "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path/"full_thermal.csv").exists()


def test_cli_figure_oracle_check(tmp_path, capsys):
    rc = run_cli(["figure", "--preset", "fig1", "--state", "vacuum",
                  "--points", "11", "--out", str(tmp_path),
                  "--oracle-check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rel_dev" in out


def test_cli_oracle(tmp_path):
    rc = run_cli(["oracle", "--preset", "fig1", "--nbar", "1",
                  "--points", "5", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path/"oracle_check.txt").read_text()
    devs = [float(line.split()[-1]) for line in text.splitlines()[1:]]
    assert max(devs) < 1e-6


def test_cli_oracle_explicit_truncation(tmp_path, capsys):
    # an explicit --n-fock prints the dense solve beside the analytic response
    assert run_cli(["oracle", "--preset", "fig1", "--n-fock", "40",
                    "--points", "9", "--out", str(tmp_path)]) == 0
    lines = (tmp_path/"oracle_check.txt").read_text().splitlines()
    assert lines[0].split() == ["omega_p_hz", "analytic_re", "analytic_im",
                                "oracle_re", "oracle_im", "rel_dev"]
    devs = [float(line.split()[-1]) for line in lines[1:]]
    assert len(devs) == 9 and max(devs) <= 1e-10, devs
    assert capsys.readouterr().out.splitlines() == lines


def test_cli_oracle_beyond_nbar_3(tmp_path, capsys):
    # the sized truncation takes any nbar up to its cap
    for argv in (["oracle", "--preset", "fig1", "--nbar", "9"],
                 ["figure", "--preset", "fig1", "--nbar", "4", "--oracle-check"]):
        assert run_cli([*argv, "--points", "5", "--out", str(tmp_path)]) == 0, argv
    capsys.readouterr()
    assert run_cli(["oracle", "--preset", "fig1", "--nbar", "1000",
                    "--points", "9", "--out", str(tmp_path)]) == 0
    text = (tmp_path/"oracle_check.txt").read_text()
    devs = [float(line.split()[-1]) for line in text.splitlines()[1:]]
    assert len(devs) == 9 and max(devs) <= 1e-10


def test_preset_caption_fidelity():
    # parameters equal the caption values exactly, unit-converted
    fig1 = FIGURES["fig1"]
    assert fig1.omega_q == TWO_PI*10e9
    assert fig1.omega_c == TWO_PI*9e9
    assert fig1.chi == TWO_PI*10e6
    assert fig1.gamma_c == TWO_PI*100e3
    assert fig1.gamma == TWO_PI*250e3 and fig1.gamma_phi == 0.0
    assert FIGURES["fig4"].gamma_c == TWO_PI*500e6
    assert FIGURES["fig4"].chi == TWO_PI*100e3
    assert FIGURES["fig5q"].n_qubits == 5
    assert FIGURES["fig6"].nbar == 2.0
    assert FIGURES["fig7"].tau_c_choices == (1e-12/TWO_PI, 1e-9/TWO_PI,
                                             1e-8/TWO_PI)
    assert FIGURES["fig10"].detunings_frac == (-1.0/3.0, 1.0/3.0)


def test_cli_fig1_peak_positions(tmp_path):
    # the three tallest local maxima of |S21| sit at 10.00, 10.02 and
    # 10.04 GHz (photon numbers 0, 1, 2), resolved to better than 0.1 MHz
    rc = run_cli(["figure", "--preset", "fig1", "--state", "coherent",
                  "--nbar", "1", "--points", "40001",
                  "--format", "csv", "--out", str(tmp_path)])
    assert rc == 0
    spec = csv_to_spectrum(tmp_path/"full_fig1_coherent.csv")
    mag = np.abs(spec.s21)
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
    peaks = np.where(interior)[0] + 1
    top3 = peaks[np.argsort(mag[peaks])[-3:]]
    freqs = np.sort(spec.omega_p[top3])/TWO_PI
    for got, ref in zip(freqs, (10.00e9, 10.02e9, 10.04e9)):
        assert abs(got - ref) < 0.1e6, (got, ref)


def test_cli_detect_no_qubits_is_bare_cavity(tmp_path):
    from starkprobe.detector import SystemParams, CavityParams, s21_signal
    cfg = tmp_path/"cavity_only.cfg"
    cfg.write_text("omega_c = 9 GHz\ngamma_c = 100 kHz\nn_qubits = 0\n"
                   "probe_center = 9 GHz\nprobe_span = 1 MHz\n")
    rc = run_cli(["detect", "--config", str(cfg), "--state", "vacuum",
                  "--points", "21", "--out", str(tmp_path)])
    assert rc == 0
    spec = csv_to_spectrum(tmp_path/"full_vacuum.csv")
    system = SystemParams(CavityParams(TWO_PI*9e9, TWO_PI*100e3), ())
    # one ulp of the Hz serialisation moves the steep Lorentzian by ~1e-11
    for w, s in zip(spec.omega_p, spec.s21):
        assert abs(s - s21_signal(w, system)) < 1e-9


def test_cli_figure_five_qubits(tmp_path):
    rc = run_cli(["figure", "--preset", "fig5q", "--state", "coherent",
                  "--nbar", "1", "--points", "21", "--format", "csv",
                  "--out", str(tmp_path)])
    assert rc == 0
    spec = csv_to_spectrum(tmp_path/"full_fig5q_coherent.csv")
    assert spec.omega_p.size == 21


def test_cli_figure_tau_sweep(tmp_path):
    rc = run_cli(["figure", "--preset", "fig7", "--state", "thermal",
                  "--nbar", "1", "--points", "15", "--format", "csv",
                  "--out", str(tmp_path)])
    assert rc == 0
    for i in (1, 2, 3):
        assert (tmp_path/f"full_fig7_thermal_tau{i}.csv").exists()


def test_cli_figure_fom_per_tau_run(tmp_path):
    # one ratio file per coherence time, each against the vacuum spectrum
    rc = run_cli(["figure", "--preset", "fig7", "--state", "thermal",
                  "--nbar", "1", "--points", "15", "--format", "csv",
                  "--fom", "--out", str(tmp_path)])
    assert rc == 0
    fp = FIGURES["fig7"]
    system, grid = fp.system(), fp.probe_grid_default(15)
    vac = sweep(system, Vacuum(), grid)
    assert not (tmp_path/"full_fig7_thermal_fom.csv").exists()
    for i, tau in enumerate(fp.tau_c_choices, 1):
        spec = sweep(system, Thermal(tau_c=tau, nbar=1.0), grid)
        text = (tmp_path/f"full_fig7_thermal_tau{i}_fom.csv").read_text()
        ratio = [float(row.split(",")[1]) for row in text.splitlines()[1:]]
        assert np.array_equal(ratio, figure_of_merit(spec, vac)), i


def test_cli_failed_run_writes_nothing(tmp_path):
    # the third coherence time reaches the thermal series cap after the
    # first two have returned: nothing of the run is written
    out = tmp_path/"out"
    assert run_cli(["figure", "--preset", "fig7", "--state", "thermal",
                    "--nbar", "300", "--points", "21", "--out", str(out)]) == 3
    assert not out.exists()


def test_cli_comb_sideband_cap_writes_nothing(tmp_path, capsys):
    out = tmp_path/"out"
    assert run_cli(["comb", "--preset", "fig1", "--state", "incoherent",
                    "--nbar", "20000", "--points", "5", "--out", str(out)]) == 3
    assert "comb sideband table cap" in capsys.readouterr().err
    assert not out.exists()


def test_cli_active_spectrum_writes_nothing(tmp_path, capsys):
    # fig3's coherent series loses every digit by nbar 1000 (|S21| of order
    # 1e24); no passive device transmits more than it receives
    out = tmp_path/"out"
    assert run_cli(["detect", "--preset", "fig3", "--state", "coherent",
                    "--nbar", "1000", "--points", "51", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "coherent spectrum is not passive at nbar=1e+03: |S21| = 7.86e+24" in err, err
    assert "at omega_p = " in err, err
    assert not out.exists()


def test_cli_figure_detuning_error_and_fom(tmp_path):
    rc = run_cli(["figure", "--preset", "fig10", "--state", "coherent",
                  "--nbar", "1", "--points", "15", "--format", "csv",
                  "--fom", "--out", str(tmp_path)])
    assert rc == 0
    err = (tmp_path/"full_fig10_coherent_detuning_error.csv").read_text()
    header = err.splitlines()[0].split(",")
    assert len(header) == 3 and header[0] == "omega_p_hz"
    fom = (tmp_path/"full_fig10_coherent_fom.csv").read_text()
    assert fom.splitlines()[0] == "omega_p_hz,ratio"
    assert len(fom.splitlines()) == 16


def test_cli_figure_fig10_needs_a_signal(tmp_path, capsys):
    # fig10 is the detuning-error table, which the vacuum has no signal for:
    # refused before anything is computed, where it used to be left out
    out = tmp_path/"no"
    assert run_cli(["figure", "--preset", "fig10", "--state", "vacuum",
                    "--points", "5", "--out", str(out)]) == 2
    assert ("config error: figure --preset fig10 is a detuning-error table"
            in capsys.readouterr().err)
    assert not out.exists()
    # detect and comb write the spectrum alone, as for any preset
    for command in ("detect", "comb"):
        assert run_cli([command, "--preset", "fig10", "--state", "vacuum",
                        "--points", "5", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "comb_fig10_vacuum.csv", "comb_fig10_vacuum.json",
        "full_fig10_vacuum.csv", "full_fig10_vacuum.json"]


def test_cli_exit_codes(tmp_path, capsys):
    # missing config -> 2
    assert run_cli(["detect", "--out", str(tmp_path)]) == 2
    # a series that cannot converge inside its term cap -> 3
    assert run_cli(["detect", "--preset", "fig1", "--state", "incoherent",
                    "--nbar", "300", "--points", "3",
                    "--out", str(tmp_path)]) == 3
    # unwritable output (a file where a directory is needed) -> 4
    blocker = tmp_path/"blocked"
    blocker.write_text("")
    assert run_cli(["atom", "--points", "5", "--out", str(blocker)]) == 4
    # unknown unit in config -> 2
    cfg = tmp_path/"bad.cfg"
    cfg.write_text("omega_q = 10 lightyears\n")
    assert run_cli(["detect", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2
    # rejected values and oracle preconditions -> 2, before anything is
    # written
    fig1 = ["figure", "--preset", "fig1"]
    no_qubit = tmp_path/"no_qubit.cfg"
    no_qubit.write_text("omega_c = 10 GHz\ngamma_c = 1 MHz\nn_qubits = 0\n"
                        "probe_center = 10 GHz\nprobe_span = 10 MHz\n")
    one_qubit = ("omega_c = 9 GHz\ngamma_c = 100 kHz\nomega_q = 10 GHz\n"
                 "chi = 10 MHz\nprobe_center = 10 GHz\nprobe_span = 500 MHz\n")

    def config(name, text):
        (tmp_path/name).write_text(text)
        return ["--config", str(tmp_path/name)]

    detect = ["detect", "--points", "5"]
    rejected = [
        ["atom", *config("atom.cfg", "gamma1 = -1 MHz\n")],
        [*detect, *config("gc.cfg", one_qubit.replace("100 kHz", "0 kHz"))],
        [*detect, *config("chi.cfg", one_qubit.replace("10 MHz", "0 MHz"))],
        [*detect, *config("gamma.cfg", one_qubit + "gamma = -1 kHz\n")],
        ["waveguide", *config("w.cfg", "w = -1 um\n")],
        ["waveguide", "--model", "two-half-planes",
         *config("eps.cfg", "eps1_rel = 0.5\n")],
        [*detect, *config("span.cfg", one_qubit.replace("500 MHz", "0 MHz"))],
        ["cavity", "--modes", "0"],
    ]
    for n_qubits in ("2.5", "-3", "inf", "nan"):
        rejected.append([*detect, *config(f"n{n_qubits}.cfg",
                                          one_qubit + f"n_qubits = {n_qubits}\n")])
    for argv in ([*fig1, "--nbar", "-1"], [*fig1, "--nbar", "nan"],
                 [*fig1, "--state", "thermal", "--tau-c", "inf"],
                 ["cavity", "--ratio", "0"], ["oracle", "--nbar", "-1"],
                 ["oracle", "--nbar", "nan"], ["oracle", "--n-fock", "3"],
                 ["oracle", "--n-fock", "0"],
                 ["oracle", "--preset", "fig5q"], ["detect", "--points", "0"],
                 [*fig1, "--points", "1"],
                 [*fig1, "--state", "thermal", "--oracle-check"],
                 ["figure", "--preset", "fig5q", "--oracle-check"],
                 ["detect", "--config", str(no_qubit), "--oracle-check"],
                 ["detect", "--preset", "fig1", "--detuning", "nan"],
                 ["detect", "--preset", "fig1", "--points", "5", "--format", ","],
                 ["detect", "--preset", "fig1", "--state", "incoherent",
                  "--detuning", "inf"],
                 [*detect, *config("partial.cfg", "omega_c = 9 GHz\n")],
                 [*detect, "--state", "thermal",
                  *config("no_tau.cfg", one_qubit)], *rejected):
        assert run_cli([*argv, "--out", str(tmp_path/"no")]) == 2, argv
        assert not (tmp_path/"no").exists(), argv
    err = capsys.readouterr().err
    assert err.count("n_qubits must be a non-negative integer") == 4
    assert "config must define gamma_c, omega_q, chi" in err
    assert "thermal state needs --tau-c" in err
    # computations that fail past the checked inputs -> 3: a W that
    # overflows, Poisson weights that leave the floats (fig3's qubit with
    # gamma_c = 4 chi at nbar 3000), a conformal modulus rounded to 0, plates
    # so thin that the line constants underflow
    r4 = ("omega_c = 9 GHz\ngamma_c = 4 MHz\nomega_q = 10 GHz\n"
          "chi = 1 MHz\n")
    for argv in ([*detect, "--preset", "fig1", "--detuning", "1e300"],
                 [*detect, *config("r4.cfg", r4), "--nbar", "3000"],
                 ["waveguide", *config("thin_w.cfg", "w = 1e-20 m\n")],
                 ["waveguide", "--model", "parallel-plate",
                  *config("plates.cfg", "d1 = 1e-300 m\nd2 = 1e-300 m\n")]):
        assert run_cli([*argv, "--out", str(tmp_path/"no")]) == 3, argv
        assert not (tmp_path/"no").exists(), argv
    assert ("coherent response Poisson weights overflow: nbar=3e+03, "
            "|W|=1.5e+03") in capsys.readouterr().err
    # non-finite values, keys no command reads and the cavity's mode-1
    # limit -> 2, each named in the message
    for argv, needle in (
            (["atom", *config("g1.cfg", "gamma1 = nan Hz\n")], "gamma1 must be"),
            (["atom", *config("rabi.cfg", "rabi = inf MHz\n")], "rabi must be"),
            ([*detect, *config("gc_inf.cfg",
                               one_qubit.replace("100 kHz", "inf Hz"))],
             "gamma_c must be"),
            ([*detect, *config("g_nan.cfg", one_qubit + "gamma = nan Hz\n")],
             "gamma must be"),
            ([*detect, *config("pc_nan.cfg", one_qubit.replace(
                "center = 10 GHz", "center = nan Hz"))],
             "probe_center must be"),
            ([*detect, *config("chi_nan.cfg",
                               one_qubit.replace("10 MHz", "nan MHz"))],
             "chi must be"),
            ([*detect, *config("wc_nan.cfg",
                               one_qubit.replace("9 GHz", "nan GHz"))],
             "omega_c must be"),
            (["waveguide", *config("w_inf.cfg", "w = inf m\n")], "w must be"),
            (["cavity", "--ratio", "inf"], "gap_capacitance must be"),
            ([*detect, "--config", str(tmp_path/"missing.cfg")], "cannot read "),
            ([*detect, *config("brace.json", "{")], "bad JSON in "),
            ([*detect, *config("list.json", "[1, 2]")],
             "JSON config must be an object"),
            ([*detect, *config("null.json", '{"chi": null}')],
             "config key 'chi': unsupported value None"),
            ([*detect, *config("bare.cfg", "omega_c = 10 GHz\ngamma_c = 1 MHz\n"
                               "n_qubits = 0\n")],
             "no qubits: config must set probe_center and probe_span"),
            (["detect", "--preset", "fig1", "--format", "bogus"],
             "unknown format 'bogus'"),
            (["cavity", "--ratio", "nan"], "gap_capacitance must be"),
            ([*detect, *config("gama.cfg", one_qubit + "gama = 1 MHz\n")],
             "unknown key gama ("),
            ([*detect, *config("tau.cfg", one_qubit + "tau_c = 1 ps\n")],
             "unknown key tau_c ("),
            (["cavity", "--ratio", "5"],
             "gap ratio C/(C'L) = 5 is not below 1.79556"),
            (["cavity", "--ratio", "1e-165"],
             "gap ratio C/(C'L) = 1e-165 is so small that the width of mode 1 "
             "underflows (Q_n must stay finite, which needs a ratio above "
             "2.1e-155)"),
            (["oracle", "--nbar", "1e5"],
             "nbar = 100000 needs 103835 Fock levels, above the oracle's cap "
             "MAX_FOCK = 20000"),
            (["oracle", "--n-fock", "20001"],
             "n_fock must be at least 4 and at most MAX_FOCK = 20000, got 20001"),
            # spectrum flags that cannot change what the state writes
            ([*detect, "--preset", "fig1", "--state", "vacuum", "--nbar", "7",
              "--tau-c", "1e-3"], "--nbar does not apply to --state vacuum"),
            ([*detect, "--preset", "fig1", "--state", "vacuum", "--flux", "1e6"],
             "--flux does not apply to --state vacuum"),
            ([*detect, "--preset", "fig1", "--tau-c", "1e-12"],
             "--tau-c does not apply to --state coherent"),
            ([*fig1, "--state", "incoherent", "--tau-c", "1e-12"],
             "--tau-c does not apply to --state incoherent"),
            ([*fig1, "--state", "vacuum", "--fom"],
             "--fom does not apply to --state vacuum"),
            *(([command, "--preset", "fig1", "--points", "5", "--state",
                "vacuum", "--detuning", detuning],
               "--detuning does not apply to --state vacuum")
              for command in ("detect", "comb", "figure")
              for detuning in ("1e6", "0"))):
        assert run_cli([*argv, "--out", str(tmp_path/"no")]) == 2, argv
        assert not (tmp_path/"no").exists(), argv
        err = capsys.readouterr().err
        assert f": {needle}" in err, (argv, err)


# a valid value, away from the command's default, for every config key
_KEY_VALUES = {
    "w": "12 um", "s": "5 um", "h1": "300 um", "h2": "1 um",
    "eps1_rel": "9", "eps2_rel": "4.5", "w_plate": "12 um", "d1": "400 um",
    "d2": "1 um", "length": "0.03 m", "gap_capacitance": "2 fF",
    "line_capacitance": "150 pF/m", "velocity": "1.1e8 m/s",
    "gamma1": "2 MHz", "gamma_phi": "100 kHz", "rabi": "1 MHz",
    "span": "5 MHz", "omega_c": "8.9 GHz", "gamma_c": "200 kHz",
    "omega_q": "10.1 GHz", "chi": "5 MHz", "gamma": "100 kHz",
    "n_qubits": "2", "probe_center": "10.01 GHz", "probe_span": "100 MHz",
}
_ONE_QUBIT = {"omega_c": "9 GHz", "gamma_c": "100 kHz", "omega_q": "10 GHz",
              "chi": "10 MHz"}
_KEYED_COMMANDS = {
    ("waveguide", "--model", "full"): ("w", "s", "h1", "h2", "eps1_rel",
                                       "eps2_rel"),
    ("waveguide", "--model", "eps2-eq-eps1"): ("w", "s", "h1", "h2",
                                               "eps1_rel"),
    ("waveguide", "--model", "two-half-planes"): ("w", "s", "eps1_rel"),
    ("waveguide", "--model", "parallel-plate"): ("w_plate", "d1", "d2",
                                                 "eps1_rel", "eps2_rel"),
    ("cavity", "--points", "21"): ("length", "gap_capacitance",
                                   "line_capacitance", "velocity"),
    ("atom", "--points", "21"): ("gamma1", "gamma_phi", "rabi", "span"),
    **{(command, "--points", "21"): ("omega_c", "gamma_c", "omega_q", "chi",
                                     "gamma", "gamma_phi", "n_qubits",
                                     "probe_center", "probe_span")
       for command in ("detect", "comb")},
}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, keys in _KEYED_COMMANDS.items()
    for key in keys], ids=lambda v: v if isinstance(v, str)
    else v[2] if v[0] == "waveguide" else v[0])
def test_cli_every_accepted_key_is_read(tmp_path, capsys, command, key):
    # a config key that a command accepts changes what it writes
    base = _ONE_QUBIT if command[0] in ("detect", "comb") else {}

    def run(name, cfg):
        path = tmp_path/f"{name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        assert run_cli([*command, "--config", str(path),
                        "--out", str(tmp_path/name)]) == 0
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in (tmp_path/name).iterdir()}

    assert run("with", {**base, key: _KEY_VALUES[key]}) != run("base", base)
    # and any key it does not accept is rejected, by name
    other = next(k for k in _KEY_VALUES if k not in _KEYED_COMMANDS[command])
    (tmp_path/"other.cfg").write_text(f"{other} = {_KEY_VALUES[other]}\n")
    assert run_cli([*command, "--config", str(tmp_path/"other.cfg"),
                    "--out", str(tmp_path/"no")]) == 2
    assert f"unknown key {other} (" in capsys.readouterr().err


def test_cli_config_or_preset(tmp_path):
    # a spectrum takes its system from --preset or --config, not both; oracle
    # and figure run presets only and take no --config
    cfg = tmp_path/"run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _ONE_QUBIT.items()))
    for argv in (["detect", "--preset", "fig1", "--config", str(cfg)],
                 ["comb", "--config", str(cfg), "--preset", "fig1"],
                 ["figure", "--preset", "fig1", "--config", str(cfg)],
                 ["oracle", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exited:
            run_cli([*argv, "--out", str(tmp_path/"no")])
        assert exited.value.code == 2, argv
        assert not (tmp_path/"no").exists(), argv


def test_cli_warning_is_one_plain_line(tmp_path):
    # the command line prints a validity warning as one plain line
    path = [str(Path(__file__).resolve().parents[1]/"src"),
            *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "starkprobe", "comb", "--preset", "fig4",
         "--points", "51", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: comb approximation needs gamma_c << chi "
                           "(ratio 5000.00)\n")
    # and leaves the caller's warning format as it found it
    before = warnings.formatwarning
    with pytest.warns(UserWarning, match="comb approximation"):
        assert run_cli(["comb", "--preset", "fig4", "--points", "5",
                        "--out", str(tmp_path)]) == 0
    assert warnings.formatwarning is before


def test_cli_format_only_for_spectra(tmp_path):
    # detect, comb and figure choose their output formats; the other commands
    # write fixed files and reject --format as a usage error
    for command in ("waveguide", "cavity", "atom", "oracle"):
        with pytest.raises(SystemExit) as exited:
            run_cli([command, "--format", "svg", "--out", str(tmp_path/"no")])
        assert exited.value.code == 2, command
        assert not (tmp_path/"no").exists(), command


def test_cli_format_given_twice(tmp_path, capsys):
    # a format named twice would write and list its file twice
    for fmts in ("csv,csv,json", "json, svg,json"):
        assert run_cli(["detect", "--preset", "fig1", "--points", "5",
                        "--format", fmts, "--out", str(tmp_path/"no")]) == 2
        assert not (tmp_path/"no").exists()
    err = capsys.readouterr().err
    assert "format 'csv' given twice" in err
    assert "format 'json' given twice" in err


def test_cli_components_only_for_detect(tmp_path):
    # the comb model has no per-term columns: comb rejects --components as a
    # usage error, and so does sweep
    with pytest.raises(SystemExit) as exited:
        run_cli(["comb", "--preset", "fig1", "--points", "5", "--components",
                 "--out", str(tmp_path/"no")])
    assert exited.value.code == 2
    assert not (tmp_path/"no").exists()
    fp = FIGURES["fig1"]
    with pytest.raises(ValueError, match="comb model has no per-term"):
        sweep(fp.system(), Coherent(nbar=1.0), fp.probe_grid_default(5),
              model="comb", with_components=True)


def test_cli_oracle_check_columns_agree(tmp_path, capsys):
    # the table sets the analytic per-qubit response beside the oracle's
    for state in ("vacuum", "coherent"):
        assert run_cli(["figure", "--preset", "fig1", "--state", state,
                        "--points", "21", "--format", "csv", "--oracle-check",
                        "--out", str(tmp_path)]) == 0
        rows = [row.split() for row in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 7
        for _, *ana, ore, oim, dev in rows:
            for a, o in zip(ana, (ore, oim)):   # one unit in the last digit
                assert abs(float(a) - float(o)) <= 10.0**(int(a[-3:]) - 6), rows
            assert float(dev) < 1e-5, rows


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the coherent series sums complex Poisson weights that cancel about "
    "exp(0.11 nbar)-fold on fig3: at nbar 1000 the analytic response is "
    "about 1e27 against the oracle's 5e-4, so |S21| passes 1 and the "
    "command exits 3"))
def test_cli_fig3_coherent_oracle_check_at_nbar_1000(tmp_path, capsys):
    assert run_cli(["detect", "--preset", "fig3", "--state", "coherent",
                    "--nbar", "1000", "--oracle-check", "--points", "21",
                    "--format", "csv", "--out", str(tmp_path)]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 7
    assert max(float(row[-1]) for row in rows) <= 1e-10, rows
