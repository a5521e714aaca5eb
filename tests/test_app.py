import json
import math

import numpy as np
import pytest

from starkprobe.cli import run_cli
from starkprobe.config import ConfigError, load_config, parse_quantity
from starkprobe.detector import (Coherent, Spectrum, Thermal, Vacuum,
                                 figure_of_merit, sweep)
from starkprobe.output import (csv_to_spectrum, emit_spectrum, sidecar_dict,
                               spectrum_to_csv, validate_sidecar)
from starkprobe.presets import FIGURES

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
    out = load_config(cfg)
    assert out["omega_q"] == TWO_PI*10e9
    assert out["chi"] == TWO_PI*10e6


def test_load_json_config(tmp_path):
    cfg = tmp_path/"run.json"
    cfg.write_text(json.dumps({"omega_q": "10 GHz", "gamma_c": TWO_PI*1e5}))
    out = load_config(cfg)
    assert out["omega_q"] == TWO_PI*10e9
    assert out["gamma_c"] == TWO_PI*1e5


def test_load_config_bad_line(tmp_path):
    cfg = tmp_path/"run.cfg"
    cfg.write_text("omega_q 10 GHz\n")
    with pytest.raises(ConfigError):
        load_config(cfg)


# ---------------------------------------------------------------------------
# emission

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


def test_json_sidecar_schema(tmp_path):
    spec = small_spectrum()
    doc = sidecar_dict(spec)
    validate_sidecar(doc)
    bad = dict(doc)
    del bad["columns"]
    with pytest.raises(ValueError):
        validate_sidecar(bad)


def test_svg_polylines(tmp_path):
    spec = small_spectrum()
    paths = emit_spectrum(spec, tmp_path, "s", formats=("svg",))
    text = paths[0].read_text()
    assert text.count("<polyline") == 3


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
    doc = json.loads((tmp_path/"full_fig1_coherent.json").read_text())
    validate_sidecar(doc)
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


def test_cli_exit_codes(tmp_path):
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
    for argv in ([*fig1, "--nbar", "-1"], [*fig1, "--nbar", "nan"],
                 [*fig1, "--state", "thermal", "--tau-c", "inf"],
                 ["cavity", "--ratio", "0"], ["oracle", "--nbar", "-1"],
                 ["oracle", "--nbar", "nan"], ["oracle", "--n-fock", "3"],
                 ["oracle", "--n-fock", "0"],
                 ["oracle", "--preset", "fig1", "--nbar", "9"],
                 ["oracle", "--preset", "fig5q"], ["detect", "--points", "0"],
                 [*fig1, "--points", "1"],
                 [*fig1, "--state", "thermal", "--oracle-check"],
                 [*fig1, "--nbar", "4", "--oracle-check"],
                 ["figure", "--preset", "fig5q", "--oracle-check"],
                 ["detect", "--config", str(no_qubit), "--oracle-check"],
                 ["detect", "--preset", "fig1", "--detuning", "nan"],
                 ["detect", "--preset", "fig1", "--state", "vacuum",
                  "--detuning", "inf"]):
        assert run_cli([*argv, "--out", str(tmp_path/"no")]) == 2, argv
        assert not (tmp_path/"no").exists(), argv


def test_cli_format_only_for_spectra(tmp_path):
    # detect, comb and figure choose their output formats; the other commands
    # write fixed files and reject --format as a usage error
    for command in ("waveguide", "cavity", "atom", "oracle"):
        with pytest.raises(SystemExit) as exited:
            run_cli([command, "--format", "svg", "--out", str(tmp_path/"no")])
        assert exited.value.code == 2, command
        assert not (tmp_path/"no").exists(), command


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
