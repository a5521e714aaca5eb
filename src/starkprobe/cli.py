"""Command line interface.

Subcommands: waveguide, cavity, atom, detect, comb, oracle, figure.
`run_cli` alone maps what a command raises to its exit code: 3 for an
ArithmeticError, 2 for any other ValueError (each names the input it
rejects), 4 for an OSError, and 0 on success.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

# each command imports the modules it runs, so it starts up loading no other
from . import presets
from .config import ConfigError, load_config

if TYPE_CHECKING:
    from . import detector


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkprobe",
        description="Probe-transmission spectra of transmon arrays in a "
                    "waveguide cavity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")

    def add_config(p):
        p.add_argument("--config", type=Path, help="key/value or JSON config")

    def add_spectrum(p):
        add_out(p)
        # only the spectrum commands choose their output formats
        p.add_argument("--format", default="csv,json",
                       help="comma list of csv,json,svg or 'all'")
        p.add_argument("--state", default="coherent",
                       choices=["vacuum", "coherent", "incoherent", "thermal"])
        p.add_argument("--nbar", type=float)
        p.add_argument("--flux", type=float, help="photon flux [1/s]")
        p.add_argument("--tau-c", type=float, help="coherence time [s]")
        p.add_argument("--detuning", type=float,
                       help="signal detuning from omega_c* [Hz] (default 0)")
        p.add_argument("--points", type=int, default=2001)
        p.add_argument("--oracle-check", action="store_true",
                       help="print analytic-vs-oracle deviations")

    p = sub.add_parser("waveguide", help="transmission line parameters")
    add_out(p)
    add_config(p)
    p.add_argument("--model", default="full", choices=list(_WAVEGUIDE_KEYS))

    p = sub.add_parser("cavity", help="bare resonator spectrum and S-params")
    add_out(p)
    add_config(p)
    p.add_argument("--ratio", type=float, default=0.005,
                   help="gap capacitance ratio C/(C'L)")
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--points", type=int, default=1001)

    p = sub.add_parser("atom", help="artificial atom S11/S21 detuning sweep")
    add_out(p)
    add_config(p)
    p.add_argument("--points", type=int, default=801)

    for name in ("detect", "comb"):
        p = sub.add_parser(name, help="probe transmission spectrum "
                           + ("(comb approximation)" if name == "comb" else ""))
        add_spectrum(p)
        system = p.add_mutually_exclusive_group()
        system.add_argument("--preset", choices=sorted(presets.FIGURES))
        add_config(system)
        if name == "detect":
            p.add_argument("--components", action="store_true",
                           help="emit per-term columns")

    p = sub.add_parser("oracle", help="analytic vs truncated-Fock deviations")
    add_out(p)
    p.add_argument("--preset", default="fig1", choices=sorted(presets.FIGURES))
    p.add_argument("--nbar", type=float, default=1.0)
    p.add_argument("--n-fock", type=int,
                   help="Fock levels (default: sized from nbar until converged)")
    p.add_argument("--points", type=int, default=9)

    p = sub.add_parser("figure", help="published-figure parameter presets")
    add_spectrum(p)
    p.add_argument("--preset", required=True, choices=sorted(presets.FIGURES))
    p.add_argument("--fom", action="store_true",
                   help="also emit |S21|/|S21_vacuum| (panel-4 ratio)")
    return parser


def _formats(arg: str) -> tuple[str, ...]:
    if arg == "all":
        return ("csv", "json", "svg")
    fmts = tuple(s.strip() for s in arg.split(",") if s.strip())
    for i, f in enumerate(fmts):
        if f not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown format {f!r}")
        if f in fmts[:i]:
            raise ConfigError(f"format {f!r} given twice")
    if not fmts:
        raise ConfigError(f"no output format in {arg!r}")
    return fmts


# the config keys each command reads, each of which changes its output; a
# config holding any other key is rejected
_WAVEGUIDE_KEYS = {
    "full": ("w", "s", "h1", "h2", "eps1_rel", "eps2_rel"),
    "eps2-eq-eps1": ("w", "s", "h1", "h2", "eps1_rel"),
    "two-half-planes": ("w", "s", "eps1_rel"),
    "parallel-plate": ("w_plate", "d1", "d2", "eps1_rel", "eps2_rel"),
}
_CAVITY_KEYS = ("length", "gap_capacitance", "line_capacitance", "velocity")
_ATOM_KEYS = ("gamma1", "gamma_phi", "rabi", "span")
_SPECTRUM_KEYS = ("omega_c", "gamma_c", "omega_q", "chi", "gamma",
                  "gamma_phi", "n_qubits", "probe_center", "probe_span")


def _cmd_waveguide(args) -> int:
    from . import output, waveguide
    cfg = (load_config(args.config, _WAVEGUIDE_KEYS[args.model])
           if args.config else {})
    if args.model == "parallel-plate":
        params = waveguide.parallel_plate_params(
            dataclasses.replace(presets.PLATE_GEOMETRY, **cfg))
    else:
        geom = dataclasses.replace(presets.TABLE_GEOMETRY, **cfg)
        if args.model == "two-half-planes":
            params = waveguide.half_plane_params(geom.w, geom.s, geom.eps1_rel)
        else:
            if args.model == "eps2-eq-eps1":
                geom = dataclasses.replace(geom, eps2_rel=geom.eps1_rel)
            params = waveguide.cpw_params(geom)
    stem = f"waveguide_{args.model}"
    texts = output.report_texts({"model": args.model, **params.as_dict()},
                                stem)
    output.write_texts(args.out, texts)
    print(texts[f"{stem}.txt"], end="")
    return 0


def _cmd_cavity(args) -> int:
    from . import cavity, output
    cfg = load_config(args.config, _CAVITY_KEYS) if args.config else {}
    geom = dataclasses.replace(presets.resonator_preset(args.ratio), **cfg)
    modes = cavity.resonances(geom, args.modes)
    mode_table = output.csv_text(
        "n,f_n_hz,gamma_n_hz,q_factor", [m.n for m in modes],
        [m.omega_n/math.tau for m in modes],
        [m.gamma_n/math.tau for m in modes], [m.q_factor for m in modes])
    grid = presets.linspace(0.5*modes[0].omega_n, 1.15*modes[-1].omega_n,
                            args.points)
    s21, s11 = zip(*(cavity.bare_s_params(geom, w) for w in grid))
    sweep_table = output.csv_text(
        "omega_hz,re_s21,im_s21,abs_s21,re_s11,im_s11,abs_s11",
        [w/math.tau for w in grid],
        [v.real for v in s21], [v.imag for v in s21], [abs(v) for v in s21],
        [v.real for v in s11], [v.imag for v in s11], [abs(v) for v in s11])
    output.write_texts(args.out, {"cavity_modes.csv": mode_table,
                                  "cavity_sweep.csv": sweep_table})
    print(mode_table, end="")
    return 0


def _cmd_atom(args) -> int:
    from . import atom as atom_mod, output
    cfg = load_config(args.config, _ATOM_KEYS) if args.config else {}
    span = cfg.pop("span", None)
    atom = dataclasses.replace(presets.ATOM, **cfg)
    grid = presets.atom_grid(atom, args.points, span)
    s11, s21 = zip(*(atom_mod.atom_s_params(
        dataclasses.replace(atom, delta_omega=d)) for d in grid))
    table = output.csv_text("delta_hz,re_s11,im_s11,re_s21,im_s21",
                            [d/math.tau for d in grid],
                            [v.real for v in s11], [v.imag for v in s11],
                            [v.real for v in s21], [v.imag for v in s21])
    path, = output.write_texts(args.out, {"atom_sweep.csv": table})
    print(f"wrote {args.points} points to {path}")
    return 0


def _preset_from(args) -> presets.FigurePreset:
    """The named figure preset, or the config's system over CONFIG_DEFAULT."""
    if args.preset:
        return presets.FIGURES[args.preset]
    if not args.config:
        raise ConfigError("need --preset or --config")
    cfg = load_config(args.config, _SPECTRUM_KEYS)
    fp = dataclasses.replace(presets.CONFIG_DEFAULT, **cfg)
    required = ("omega_c", "gamma_c") + (("omega_q", "chi") if fp.n_qubits
                                         else ())
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ConfigError(f"config must define {', '.join(missing)}")
    return fp


def _signal_from(args, system, fp) -> detector.SignalState:
    from . import detector
    vacuum = args.state == "vacuum"
    # a flag that cannot change what the state writes is refused
    for flag, unread in (("--nbar", vacuum and args.nbar is not None),
                         ("--flux", vacuum and args.flux is not None),
                         ("--detuning", vacuum and args.detuning is not None),
                         ("--tau-c", args.state != "thermal"
                          and args.tau_c is not None),
                         ("--fom", vacuum and getattr(args, "fom", False))):
        if unread:
            raise ConfigError(f"{flag} does not apply to --state {args.state}")
    if vacuum and args.command == "figure" and fp.detunings_frac:
        raise ConfigError(f"figure --preset {args.preset} is a detuning-error "
                          "table, which --state vacuum has no signal for")
    omega = system.omega_c_star + math.tau*(args.detuning or 0.0)
    nbar = args.nbar
    flux = args.flux
    if nbar is None and flux is None:
        nbar = fp.nbar
    fields = {"flux": flux, "nbar": nbar, "signal_omega": omega}
    if vacuum:
        return detector.Vacuum(signal_omega=omega)
    if args.state == "coherent":
        return detector.Coherent(**fields)
    if args.state == "incoherent":
        return detector.Incoherent(**fields)
    tau = fp.tau_c if args.tau_c is None else args.tau_c
    if tau is None:
        raise ConfigError("thermal state needs --tau-c")
    return detector.Thermal(tau_c=tau, **fields)


def _oracle_table(system, sig, grid, n_fock=None) -> str:
    """The first qubit's response R on the grid against the truncated-Fock
    oracle's, with their relative deviation."""
    from . import detector, oracle
    analytic = detector.response_function(system, sig)(grid, system.qubits[0])
    if n_fock is None:
        orc = oracle.lindblad_steady_response(system, sig, grid).sigma_minus
    else:
        orc = [oracle.dense_sigma_minus(system, sig, wp, n_fock) for wp in grid]
    lines = ["omega_p_hz  analytic_re  analytic_im  oracle_re  oracle_im  rel_dev"]
    for wp, ana, sigma in zip(grid, analytic, orc):
        dev = abs(sigma - ana)/max(abs(ana), 1e-300)
        lines.append(f"{wp/math.tau:.6e}  {ana.real:+.6e}  {ana.imag:+.6e}  "
                     f"{sigma.real:+.6e}  {sigma.imag:+.6e}  {dev:.3e}")
    return "\n".join(lines)


def _cmd_spectrum(args, model: str) -> int:
    from . import detector, output
    fp = _preset_from(args)
    system = fp.system()
    sig = _signal_from(args, system, fp)
    if args.oracle_check:
        from . import oracle
        oracle.check_supported(system, sig)
    grid = fp.probe_grid_default(args.points)
    fmts = _formats(args.format)
    stem = (f"{model}_{args.preset}_{args.state}" if args.preset
            else f"{model}_{args.state}")

    runs = [(stem, sig)]
    if args.state == "thermal" and args.tau_c is None and fp.tau_c_choices:
        # figure presets that sweep the coherence time emit one spectrum
        # per listed tau_c
        runs = [(f"{stem}_tau{i + 1}", dataclasses.replace(sig, tau_c=tau))
                for i, tau in enumerate(fp.tau_c_choices)]

    # every output is computed before the first is written, so a run that
    # fails leaves nothing behind
    spectra = {run_stem: detector.sweep(
        system, run_sig, grid, model=model,
        with_components=getattr(args, "components", False))
        for run_stem, run_sig in runs}
    tables = {}
    if getattr(args, "fom", False):
        vac = detector.sweep(system, detector.Vacuum(), grid, model=model)
        for run_stem, spec in spectra.items():
            tables[f"{run_stem}_fom.csv"] = output.csv_text(
                "omega_p_hz,ratio", grid/math.tau,
                detector.figure_of_merit(spec, vac))
    if fp.detunings_frac and args.state != "vacuum":
        gc = system.cavity.gamma_c
        detunings = [f*gc for f in fp.detunings_frac]
        errs = detector.detuning_error(system, sig, detunings, grid)
        header = "omega_p_hz," + ",".join(
            f"err_detuning_{f:+.4g}_gc" for f in fp.detunings_frac)
        tables[f"{stem}_detuning_error.csv"] = output.csv_text(
            header, grid/math.tau, *(errs[d] for d in detunings))
    check = (_oracle_table(system, sig,
                           presets.linspace(grid[0], grid[-1], 7))
             if args.oracle_check else None)

    written = []
    for run_stem, spec in spectra.items():
        written += output.emit_spectrum(spec, args.out, run_stem, fmts)
    written += output.write_texts(args.out, tables)
    print(f"wrote {', '.join(str(p) for p in written)}")
    if check is not None:
        print(check)
    return 0


def _cmd_oracle(args) -> int:
    from . import detector, oracle, output
    fp = presets.FIGURES[args.preset]
    system = fp.system()
    sig = detector.Coherent(nbar=args.nbar)
    oracle.check_supported(system, sig, args.n_fock)
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
    """Run one command and return its exit code, by what it raised."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return _COMMANDS[args.command](args)
    except (ArithmeticError, TypeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = format_warning


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
