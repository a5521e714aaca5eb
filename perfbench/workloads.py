"""The benchmark's three workloads and the reference check for their outputs.

Every workload is a fixed list of operations built from the paper's preset
parameter sets; the run's seed only orders them.  `build(name, smoke,
in_process)` is also what a fresh interpreter runs when set-up is timed.

  figures       full `sweep` of presets fig1 and fig5q x four signal states at
                the preset nbar, and the coherent comb, on 2001-point default
                grids (the ROADMAP table): many points, short series, five
                identical qubits on fig5q.
  single-qubit  fig1 with its one qubit: full and comb sweeps at large nbar on
                101 points (few points, long series: per-term cost), and the
                truncated-Fock `lindblad_steady_response` at n_fock 40 and 80
                against the analytic `response_function` on 401 points
                (LAPACK, not Python).
  cli           short `python -m starkprobe` runs: interpreter start, import,
                argument handling and the CSV/JSON/SVG emitters.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from starkprobe import cli, detector, oracle, presets

# ROADMAP: a change of more than 1e-12 relative is a regression.
RTOL = 1e-12

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE/"refs"
WORK = HERE/"out"

WORKLOADS = ("figures", "single-qubit", "cli")


@dataclass
class Op:
    name: str                     # unique in its workload; key of its reference
    kind: str                     # group reported together (state, model, command)
    latency: str                  # name of the latency it is reported under
    run: Callable[[], Any]        # the timed call
    collect: Callable[[Any], Any] = lambda result: result   # untimed: output to check


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Optional[Op]          # untimed first op; None keeps the run cold
    compare: Callable[[Any, Any], bool]
    children: bool = False        # operations run in child processes


def _close(ref, out) -> bool:
    """Pointwise complex relative agreement within RTOL."""
    ref = np.asarray(ref)
    out = np.asarray(out)
    return out.shape == ref.shape and bool(np.all(np.abs(out - ref) <= RTOL*np.abs(ref)))


def _signals(fp: presets.FigurePreset, nbar: float) -> dict:
    return {"vacuum": detector.Vacuum(),
            "coherent": detector.Coherent(nbar=nbar),
            "incoherent": detector.Incoherent(nbar=nbar),
            "thermal": detector.Thermal(tau_c=fp.tau_c, nbar=nbar)}


def _sweep_op(name, kind, system, sig, grid, model) -> Op:
    # detector.sweep is looked up at call time so that a traced run sees it
    return Op(name, kind, "sweep_s",
              lambda: detector.sweep(system, sig, grid, model=model).s21)


def figures(smoke: bool) -> Workload:
    points = 21 if smoke else 2001
    ops = []
    for pid in ("fig1", "fig5q"):
        fp = presets.FIGURES[pid]
        system = fp.system()
        grid = fp.probe_grid_default(points)
        for state, sig in _signals(fp, fp.nbar).items():
            ops.append(_sweep_op(f"{pid}.{state}.full", state, system, sig, grid, "full"))
        ops.append(_sweep_op(f"{pid}.coherent.comb", "comb", system,
                             detector.Coherent(nbar=fp.nbar), grid, "comb"))
    return Workload("figures", ops, ops[0], _close)


def deep_series(smoke: bool) -> list[Op]:
    fp = presets.FIGURES["fig1"]
    system = fp.system()
    # 101 points, not 401, so that each sweep repeats often enough in a run
    # for its fastest repetition to be steady
    grid = fp.probe_grid_default(11 if smoke else 101)
    # thermal stays below nbar 9, where fig1 reaches the 5000-term cap
    cases = [("coherent", 50.0), ("coherent", 200.0), ("incoherent", 10.0),
             ("incoherent", 30.0), ("thermal", 8.0)]
    return [_sweep_op(f"fig1.{state}-{nbar:g}.{model}",
                      "comb" if model == "comb" else state, system,
                      _signals(fp, nbar)[state], grid, model)
            for state, nbar in cases for model in ("full", "comb")]


def oracle_points(smoke: bool) -> list[Op]:
    fp = presets.FIGURES["fig1"]
    system = fp.system()
    qubit = system.qubits[0]
    # every point costs the same solves, so 401 points show what 2001 do and
    # leave time for each point to repeat often enough to be steady
    grid = fp.probe_grid_default(5 if smoke else 401)
    ops = []
    for nbar in (1.0, 3.0):
        sig = detector.Coherent(nbar=nbar)
        respond = detector.response_function(system, sig)

        def point(wp, sig=sig, respond=respond):
            # one probe point of the oracle check: the truncation at both
            # sizes and the analytic value they are checked against
            return np.array([
                oracle.lindblad_steady_response(system, sig, wp, n_fock=40).sigma_minus,
                oracle.lindblad_steady_response(system, sig, wp, n_fock=80).sigma_minus,
                respond(wp, qubit)])

        ops += [Op(f"nbar{nbar:g}.{i:04d}", f"nbar{nbar:g}", "oracle_point_s",
                   lambda wp=wp, point=point: point(wp))
                for i, wp in enumerate(grid)]
    return ops


def single_qubit(smoke: bool) -> Workload:
    ops = deep_series(smoke) + oracle_points(smoke)
    # the warm-up is an oracle point, which brings up the BLAS threads
    return Workload("single-qubit", ops, ops[-1], _close)


# ---------------------------------------------------------------------------
# cli: every invocation writes into its own directory under WORK, which is
# read back and removed after the timed call.

_CONFIG = """\
# unit-suffixed text config, one qubit
omega_c      = 9 GHz
gamma_c      = 100 kHz
omega_q      = 10 GHz
chi          = 10 MHz
gamma        = 250 kHz
probe_center = 10 GHz
probe_span   = 500 MHz
"""


def cli_argvs(smoke: bool, config: Path) -> dict[str, list[str]]:
    pts = "21" if smoke else "401"
    return {
        "detect-vacuum": ["detect", "--preset", "fig1", "--state", "vacuum",
                          "--components", "--format", "all", "--points", pts],
        "detect-coherent": ["detect", "--preset", "fig1", "--state", "coherent",
                            "--points", pts],
        "comb": ["comb", "--preset", "fig1", "--state", "coherent", "--points", pts],
        "figure-fig10": ["figure", "--preset", "fig10", "--fom", "--points", pts],
        "detect-config": ["detect", "--config", str(config), "--state", "coherent",
                          "--nbar", "2", "--points", pts],
        "cavity": ["cavity", "--points", "21" if smoke else "1001"],
        "waveguide": ["waveguide"],
        "atom": ["atom", "--points", "21" if smoke else "801"],
        "oracle": ["oracle", "--n-fock", "40", "--points", "3" if smoke else "9"],
    }


def _read_outputs(out_dir: Path) -> dict[str, str]:
    texts = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    shutil.rmtree(out_dir)
    return texts


def _subprocess_run(argv: list[str], env: dict) -> None:
    proc = subprocess.run([sys.executable, "-m", "starkprobe", *argv], cwd=ROOT,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")


def _in_process_run(argv: list[str]) -> None:
    # cli.run_cli is looked up at call time so that a traced run sees it
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-300:]}")


def cli_runs(smoke: bool, in_process: bool = False) -> Workload:
    work = WORK/"cli-work"
    config = work/"run.cfg"
    env = python_env()
    call = _in_process_run if in_process else lambda argv: _subprocess_run(argv, env)
    ops = []
    for name, argv in cli_argvs(smoke, config).items():
        out_dir = work/name
        full = [*argv, "--out", str(out_dir)]
        ops.append(Op(name, argv[0], "cli_run_s", lambda full=full: call(full),
                      lambda _, out_dir=out_dir: _read_outputs(out_dir)))
    return Workload("cli", ops, None, _same_files,
                    children=not in_process)


def prepare_cli() -> None:
    """Fresh work directory holding the text config the CLI reads."""
    work = WORK/"cli-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work/"run.cfg").write_text(_CONFIG)


def cleanup_cli() -> None:
    shutil.rmtree(WORK/"cli-work", ignore_errors=True)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _printed_unit(token: str) -> float:
    """One unit in the last printed digit of a number token; 0 for integers."""
    mantissa, _, exponent = token.lower().partition("e")
    if "." not in mantissa and not exponent:
        return 0.0
    return 10.0**(int(exponent or 0) - len(mantissa.partition(".")[2]))


def _same_tokens(ref: str, out: str) -> bool:
    """Same text apart from numbers, which agree within RTOL relative or one
    unit of their printed precision (SVG coordinates, 6-digit tables)."""
    if _NUMBER.split(ref) != _NUMBER.split(out):
        return False
    return all(abs(float(o) - float(r)) <= max(RTOL*abs(float(r)), _printed_unit(r))
               for r, o in zip(_NUMBER.findall(ref), _NUMBER.findall(out)))


def _same_csv(ref: str, out: str) -> bool:
    """Same header; every column within RTOL of its largest magnitude (a
    real or imaginary part may cross zero, so pointwise is too strict)."""
    ref_lines, out_lines = ref.splitlines(), out.splitlines()
    if len(ref_lines) != len(out_lines) or ref_lines[0] != out_lines[0]:
        return False
    r = np.array([[float(c) for c in line.split(",")] for line in ref_lines[1:]])
    o = np.array([[float(c) for c in line.split(",")] for line in out_lines[1:]])
    return bool(np.all(np.abs(o - r) <= RTOL*np.abs(r).max(axis=0, initial=0.0)))


def _same_files(ref: dict, out: dict) -> bool:
    if sorted(ref) != sorted(out):
        return False
    return all((_same_csv if name.endswith(".csv") else _same_tokens)(ref[name], out[name])
               for name in ref)


# ---------------------------------------------------------------------------

def python_env() -> dict:
    """Environment for child interpreters: the checkout's `src` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT/"src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build(name: str, smoke: bool = False, in_process: bool = False) -> Workload:
    if name == "figures":
        return figures(smoke)
    if name == "single-qubit":
        return single_qubit(smoke)
    if name == "cli":
        return cli_runs(smoke, in_process)
    raise ValueError(f"unknown workload {name!r}")


def _ref_path(name: str, smoke: bool) -> Path:
    suffix = "json.gz" if name == "cli" else "npz"
    return REFS/f"{name}{'-smoke' if smoke else ''}.{suffix}"


def save_refs(name: str, smoke: bool, outputs: dict) -> Path:
    path = _ref_path(name, smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    if name == "cli":
        # fixed mtime keeps the archive byte-identical across recordings
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(outputs, sort_keys=True).encode())
    else:
        # one names/values pair per output shape (sweeps, oracle triples)
        groups: dict = {}
        for key, value in outputs.items():
            groups.setdefault(np.shape(value), []).append((key, value))
        arrays = {}
        for i, items in enumerate(groups.values()):
            arrays[f"names{i}"] = np.array([key for key, _ in items])
            arrays[f"values{i}"] = np.stack([value for _, value in items])
        np.savez(path, **arrays)
    return path


def load_refs(name: str, smoke: bool) -> dict:
    path = _ref_path(name, smoke)
    if name == "cli":
        with gzip.open(path, "rt") as fh:
            return json.load(fh)
    refs = {}
    with np.load(path, allow_pickle=False) as data:
        for key in data.files:
            if key.startswith("names"):
                refs.update(zip(data[key].tolist(), data["values" + key[5:]]))
    return refs
