"""Command line interface.

Subcommands: waveguide, cavity, atom, detect, comb, oracle, figure.
Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 output/IO error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import atom as atom_mod
from . import cavity as cavity_mod
from . import detector, oracle, output, presets, waveguide
from .config import ConfigError, load_config
from .specfun import ConvergenceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkprobe",
        description="Probe-transmission spectra of transmon arrays in a "
                    "waveguide cavity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="key/value or JSON config")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")

    def add_spectrum(p, preset_required=False):
        add_common(p)
        # only the spectrum commands choose their output formats
        p.add_argument("--format", default="csv,json",
                       help="comma list of csv,json,svg or 'all'")
        p.add_argument("--preset", required=preset_required,
                       choices=sorted(presets.FIGURES))
        p.add_argument("--state", default="coherent",
                       choices=["vacuum", "coherent", "incoherent", "thermal"])
        p.add_argument("--nbar", type=float)
        p.add_argument("--flux", type=float, help="photon flux [1/s]")
        p.add_argument("--tau-c", type=float, help="coherence time [s]")
        p.add_argument("--detuning", type=float, default=0.0,
                       help="signal detuning from omega_c* [Hz]")
        p.add_argument("--points", type=int, default=2001)
        p.add_argument("--oracle-check", action="store_true",
                       help="print analytic-vs-oracle deviations")

    p = sub.add_parser("waveguide", help="transmission line parameters")
    add_common(p)
    p.add_argument("--model", default="full",
                   choices=["full", "eps2-eq-eps1", "two-half-planes",
                            "parallel-plate"])

    p = sub.add_parser("cavity", help="bare resonator spectrum and S-params")
    add_common(p)
    p.add_argument("--ratio", type=float, default=0.005,
                   help="gap capacitance ratio C/(C'L)")
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--points", type=int, default=1001)

    p = sub.add_parser("atom", help="artificial atom S11/S21 detuning sweep")
    add_common(p)
    p.add_argument("--points", type=int, default=801)

    for name in ("detect", "comb"):
        p = sub.add_parser(name, help="probe transmission spectrum "
                           + ("(comb approximation)" if name == "comb" else ""))
        add_spectrum(p)
        p.add_argument("--components", action="store_true",
                       help="emit per-term columns")

    p = sub.add_parser("oracle", help="analytic vs truncated-Fock deviations")
    add_common(p)
    p.add_argument("--preset", default="fig1", choices=sorted(presets.FIGURES))
    p.add_argument("--nbar", type=float, default=1.0)
    p.add_argument("--n-fock", type=int, default=40)
    p.add_argument("--points", type=int, default=9)

    p = sub.add_parser("figure", help="published-figure parameter presets")
    add_spectrum(p, preset_required=True)
    p.add_argument("--fom", action="store_true",
                   help="also emit |S21|/|S21_vacuum| (panel-4 ratio)")
    return parser


def _formats(arg: str) -> tuple[str, ...]:
    if arg == "all":
        return ("csv", "json", "svg")
    fmts = tuple(s.strip() for s in arg.split(",") if s.strip())
    for f in fmts:
        if f not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown format {f!r}")
    return fmts


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), reporting a rejected input as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_waveguide(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    if args.model == "parallel-plate":
        geom = waveguide.ParallelPlateGeometry(
            w_plate=cfg.get("w_plate", 10e-6),
            d1=cfg.get("d1", 500e-6), d2=cfg.get("d2", 550e-9),
            eps1_rel=cfg.get("eps1_rel", 11.6),
            eps2_rel=cfg.get("eps2_rel", 3.78))
        params = waveguide.parallel_plate_params(geom)
    else:
        base = presets.TABLE_GEOMETRY
        w = cfg.get("w", base.w)
        s = cfg.get("s", base.s)
        eps1 = cfg.get("eps1_rel", base.eps1_rel)
        eps2 = cfg.get("eps2_rel", base.eps2_rel)
        if args.model == "two-half-planes":
            params = waveguide.half_plane_params(w, s, eps1)
        else:
            if args.model == "eps2-eq-eps1":
                eps2 = eps1
            geom = waveguide.CpwGeometry(
                w=w, s=s, h1=cfg.get("h1", base.h1), h2=cfg.get("h2", base.h2),
                eps1_rel=eps1, eps2_rel=eps2)
            params = waveguide.cpw_params(geom)
    stem = f"waveguide_{args.model}"
    texts = output.report_texts({"model": args.model, **params.as_dict()},
                                stem)
    output.write_texts(args.out, texts)
    print(texts[f"{stem}.txt"], end="")
    return 0


def _cmd_cavity(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    if {"length", "gap_capacitance", "line_capacitance", "velocity"} <= set(cfg):
        geom = _checked(
            cavity_mod.ResonatorGeometry,
            length=cfg["length"], gap_capacitance=cfg["gap_capacitance"],
            line_capacitance=cfg["line_capacitance"], velocity=cfg["velocity"])
    else:
        geom = _checked(presets.resonator_preset, args.ratio)
    modes = cavity_mod.resonances(geom, args.modes)
    mode_table = output.csv_text(
        "n,f_n_hz,gamma_n_hz,q_factor", [m.n for m in modes],
        [m.omega_n/math.tau for m in modes],
        [m.gamma_n/math.tau for m in modes], [m.q_factor for m in modes])
    grid = np.linspace(0.5*modes[0].omega_n, 1.15*modes[-1].omega_n,
                       args.points)
    s21, s11 = zip(*(cavity_mod.bare_s_params(geom, w) for w in grid))
    # abs() per value: np.abs may differ from it in the last digit
    sweep_table = output.csv_text(
        "omega_hz,re_s21,im_s21,abs_s21,re_s11,im_s11,abs_s11", grid/math.tau,
        np.real(s21), np.imag(s21), [abs(v) for v in s21],
        np.real(s11), np.imag(s11), [abs(v) for v in s11])
    output.write_texts(args.out, {"cavity_modes.csv": mode_table,
                                  "cavity_sweep.csv": sweep_table})
    print(mode_table, end="")
    return 0


def _cmd_atom(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    gamma1 = cfg.get("gamma1", math.tau*1e6)
    gamma_phi = cfg.get("gamma_phi", 0.0)
    rabi = cfg.get("rabi", 0.0)
    span = cfg.get("span", 10.0*(0.5*gamma1 + gamma_phi))
    grid = np.linspace(-span, span, args.points)
    s11, s21 = zip(*(atom_mod.atom_s_params(atom_mod.AtomParams(
        delta_omega=d, gamma1=gamma1, gamma_phi=gamma_phi, rabi=rabi))
        for d in grid))
    table = output.csv_text("delta_hz,re_s11,im_s11,re_s21,im_s21",
                            grid/math.tau, np.real(s11), np.imag(s11),
                            np.real(s21), np.imag(s21))
    path, = output.write_texts(args.out, {"atom_sweep.csv": table})
    print(f"wrote {args.points} points to {path}")
    return 0


def _system_from(args) -> tuple[detector.SystemParams, dict]:
    if args.preset:
        fp = presets.FIGURES[args.preset]
        return fp.system(), {"preset": fp, "config": {}}
    cfg = load_config(args.config) if args.config else {}
    if not {"omega_c", "gamma_c"} <= set(cfg):
        raise ConfigError("need --preset or a config defining at least "
                          "omega_c and gamma_c")
    n_qubits = int(cfg.get("n_qubits", 1))
    if n_qubits > 0:
        if not {"omega_q", "chi"} <= set(cfg):
            raise ConfigError("config must define omega_q and chi "
                              "(or set n_qubits = 0)")
        qubit = detector.QubitParams(
            omega_q=cfg["omega_q"], chi=cfg["chi"],
            gamma=cfg.get("gamma", math.tau*250e3),
            gamma_phi=cfg.get("gamma_phi", 0.0))
        qubits = (qubit,)*n_qubits
    else:
        qubits = ()
    system = detector.SystemParams(
        cavity=detector.CavityParams(cfg["omega_c"], cfg["gamma_c"]),
        qubits=qubits)
    return system, {"preset": None, "config": cfg}


def _signal_from(args, system, preset) -> detector.SignalState:
    omega = system.omega_c_star + math.tau*args.detuning
    nbar = args.nbar
    flux = args.flux
    if nbar is None and flux is None:
        nbar = preset.nbar if preset is not None else 1.0
    fields = {"flux": flux, "nbar": nbar, "signal_omega": omega}
    if args.state == "vacuum":
        return _checked(detector.Vacuum, signal_omega=omega)
    if args.state == "coherent":
        return _checked(detector.Coherent, **fields)
    if args.state == "incoherent":
        return _checked(detector.Incoherent, **fields)
    tau = args.tau_c
    if tau is None and preset is not None:
        tau = preset.tau_c
    if tau is None:
        raise ConfigError("thermal state needs --tau-c")
    return _checked(detector.Thermal, tau_c=tau, **fields)


def _probe_grid(args, system, preset, cfg) -> np.ndarray:
    if "probe_center" in cfg and "probe_span" in cfg:
        center, span = cfg["probe_center"], cfg["probe_span"]
    elif preset is not None:
        return preset.probe_grid_default(args.points)
    elif system.qubits:
        q = system.qubits[0]
        center = q.omega_q
        span = 50.0*max(abs(q.chi), q.gamma_coh)
    else:
        raise ConfigError("no qubits: config must set probe_center and "
                          "probe_span")
    return np.linspace(center - span, center + span, args.points)


# truncation of the oracle table that `--oracle-check` prints
_ORACLE_CHECK_FOCK = 40


def _oracle_table(system, sig, grid, n_fock: int) -> str:
    """The first qubit's response R on the grid against the truncated-Fock
    oracle's, with their relative deviation."""
    analytic = detector.response_function(system, sig)(grid, system.qubits[0])
    lines = ["omega_p_hz  analytic_re  analytic_im  oracle_re  oracle_im  rel_dev"]
    for wp, ana in zip(grid, analytic):
        orc = oracle.lindblad_steady_response(system, sig, wp, n_fock=n_fock)
        dev = abs(orc.sigma_minus - ana)/max(abs(ana), 1e-300)
        lines.append(f"{wp/math.tau:.6e}  {ana.real:+.6e}  {ana.imag:+.6e}  "
                     f"{orc.sigma_minus.real:+.6e}  "
                     f"{orc.sigma_minus.imag:+.6e}  {dev:.3e}")
    return "\n".join(lines)


def _cmd_spectrum(args, model: str) -> int:
    if args.oracle_check and args.state not in ("vacuum", "coherent"):
        raise ConfigError("--oracle-check supports vacuum/coherent only")
    system, info = _system_from(args)
    preset = info.get("preset")
    sig = _signal_from(args, system, preset)
    if args.oracle_check:
        _checked(oracle.check_supported, system, sig, _ORACLE_CHECK_FOCK)
    grid = _probe_grid(args, system, preset, info.get("config", {}))
    fmts = _formats(args.format)
    stem = (f"{model}_{args.preset}_{args.state}" if preset is not None
            else f"{model}_{args.state}")

    runs = [(stem, sig)]
    if (preset is not None and args.state == "thermal"
            and args.tau_c is None and preset.tau_c_choices):
        # figure presets that sweep the coherence time emit one spectrum
        # per listed tau_c
        runs = [(f"{stem}_tau{i + 1}", dataclasses.replace(sig, tau_c=tau))
                for i, tau in enumerate(preset.tau_c_choices)]

    # every output is computed before the first is written, so a run that
    # fails leaves nothing behind
    spectra = {run_stem: detector.sweep(
        system, run_sig, grid, model=model,
        with_components=getattr(args, "components", False))
        for run_stem, run_sig in runs}
    tables = {}
    if getattr(args, "fom", False) and args.state != "vacuum":
        vac = detector.sweep(system, detector.Vacuum(), grid, model=model)
        for run_stem, spec in spectra.items():
            tables[f"{run_stem}_fom.csv"] = output.csv_text(
                "omega_p_hz,ratio", grid/math.tau,
                detector.figure_of_merit(spec, vac))
    if (preset is not None and preset.detunings_frac
            and args.state != "vacuum"):
        gc = system.cavity.gamma_c
        detunings = [f*gc for f in preset.detunings_frac]
        errs = detector.detuning_error(system, sig, detunings, grid)
        header = "omega_p_hz," + ",".join(
            f"err_detuning_{f:+.4g}_gc" for f in preset.detunings_frac)
        tables[f"{stem}_detuning_error.csv"] = output.csv_text(
            header, grid/math.tau, *(errs[d] for d in detunings))
    check = (_oracle_table(system, sig, np.linspace(grid[0], grid[-1], 7),
                           _ORACLE_CHECK_FOCK) if args.oracle_check else None)

    written = []
    for run_stem, spec in spectra.items():
        written += output.emit_spectrum(spec, args.out, run_stem, fmts)
    written += output.write_texts(args.out, tables)
    print(f"wrote {', '.join(str(p) for p in written)}")
    if check is not None:
        print(check)
    return 0


def _cmd_oracle(args) -> int:
    fp = presets.FIGURES[args.preset]
    system = fp.system()
    sig = _checked(detector.Coherent, nbar=args.nbar)
    _checked(oracle.check_supported, system, sig, args.n_fock)
    text = _oracle_table(system, sig, fp.probe_grid_default(args.points),
                         args.n_fock)
    output.write_texts(args.out, {"oracle_check.txt": text + "\n"})
    print(text)
    return 0


_COMMANDS = {
    "waveguide": _cmd_waveguide,
    "cavity": _cmd_cavity,
    "atom": _cmd_atom,
    "detect": lambda args: _cmd_spectrum(args, "full"),
    "comb": lambda args: _cmd_spectrum(args, "comb"),
    "figure": lambda args: _cmd_spectrum(args, "full"),
    "oracle": _cmd_oracle,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "points", 2) < 2:
            raise ConfigError("--points must be at least 2")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError, np.linalg.LinAlgError,
            ValueError, TypeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
