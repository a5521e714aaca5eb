"""What a command loads when it starts, and the lazy package namespace.

`import starkprobe` loads no module of the package: each public name
resolves on first use, and each command imports only the modules it runs.
The line, resonator and atom commands compute on Python floats and never
load numpy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starkprobe

SRC = Path(__file__).resolve().parents[1]/"src"

# a fresh interpreter records what a bare `import starkprobe` loaded, runs
# the commands given as JSON and prints their exit codes, the package's
# modules loaded then and whether numpy was, as its last line
_CHILD = """\
import json, sys
import starkprobe
bare = [m for m in sys.modules
        if m.startswith("starkprobe.") or m.partition(".")[0] == "numpy"]
from starkprobe.cli import run_cli
codes = [run_cli(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"bare": bare, "codes": codes, "loaded": sorted(
    m for m in sys.modules if m.startswith("starkprobe")),
    "numpy": "numpy" in sys.modules}))
"""

_SPECTRUM = {"cli", "config", "presets", "output", "detector", "specfun"}
# one interpreter per command family: its commands, and the most modules
# they may load between them
FAMILIES = {
    "waveguide": ([["waveguide", "--model", model] for model in
                   ("full", "eps2-eq-eps1", "two-half-planes",
                    "parallel-plate")],
                  {"cli", "config", "presets", "output", "waveguide",
                   "specfun"}),
    "cavity": ([["cavity", "--points", "5"]],
               {"cli", "config", "presets", "output", "cavity", "specfun"}),
    "atom": ([["atom", "--points", "5"]],
             {"cli", "config", "presets", "output", "atom"}),
    "spectrum": ([["detect", "--preset", "fig1", "--points", "5"],
                  ["comb", "--preset", "fig1", "--points", "5"],
                  ["figure", "--preset", "fig10", "--fom", "--points", "5"]],
                 _SPECTRUM),
    "oracle-check": ([["detect", "--preset", "fig1", "--points", "5",
                       "--oracle-check"]],
                     _SPECTRUM | {"oracle", "tridiagonal"}),
    "oracle": ([["oracle", "--n-fock", "40", "--points", "3"]],
               _SPECTRUM | {"oracle", "tridiagonal"}),
}


# the families that run on Python floats alone
NUMPY_FREE = {"waveguide", "cavity", "atom"}


@pytest.fixture(scope="module")
def started(tmp_path_factory):
    """Each family's record; the six interpreters run side by side."""
    out = tmp_path_factory.mktemp("startup")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    procs = {}
    for family, (argvs, _) in FAMILIES.items():
        argvs = [[*argv, "--out", str(out/family/str(i))]
                 for i, argv in enumerate(argvs)]
        procs[family] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    records = {}
    for family, proc in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        records[family] = json.loads(stdout.splitlines()[-1])
    return records


@pytest.mark.parametrize("family", FAMILIES)
def test_command_loads_only_its_modules(started, family):
    argvs, allowed = FAMILIES[family]
    record = started[family]
    assert record["codes"] == [0]*len(argvs)
    loaded = {m.partition(".")[2] for m in record["loaded"]} - {""}
    assert loaded <= allowed, sorted(loaded - allowed)


@pytest.mark.parametrize("family", FAMILIES)
def test_only_the_spectrum_and_oracle_commands_load_numpy(started, family):
    assert started[family]["numpy"] is (family not in NUMPY_FREE)


def test_bare_import_loads_no_module_and_no_numpy(started):
    for family, record in started.items():
        assert record["bare"] == [], family


def test_every_public_name_is_its_home_modules_object():
    for name in starkprobe.__all__:
        value = getattr(starkprobe, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        home = value.__module__
        if home == "typing":
            # the one alias, a Union of the signal states
            assert name == "SignalState"
            home = "starkprobe.detector"
        assert home.startswith("starkprobe."), name
        assert value is getattr(sys.modules[home], name), name


def test_dir_and_star_import_list_every_name():
    assert set(starkprobe.__all__) <= set(dir(starkprobe))
    namespace = {}
    exec("from starkprobe import *", namespace)
    assert set(starkprobe.__all__) <= set(namespace)


def test_misspelt_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'starkprobe' has no "
                       "attribute 'sweeep'"):
        starkprobe.sweeep
    assert not hasattr(starkprobe, "sweeep")
    with pytest.raises(ImportError):
        from starkprobe import sweeep  # noqa: F401


def test_line_and_atom_presets_are_built_once():
    from starkprobe import presets
    from starkprobe.atom import AtomParams
    from starkprobe.presets import ATOM, PLATE_GEOMETRY, TABLE_GEOMETRY
    from starkprobe.waveguide import CpwGeometry, ParallelPlateGeometry
    assert TABLE_GEOMETRY == CpwGeometry(w=10e-6, s=7.5e-6, h1=500e-6,
                                         h2=550e-9, eps1_rel=11.6,
                                         eps2_rel=3.78)
    assert PLATE_GEOMETRY == ParallelPlateGeometry(
        w_plate=10e-6, d1=500e-6, d2=550e-9, eps1_rel=11.6, eps2_rel=3.78)
    assert ATOM == AtomParams(delta_omega=0.0, gamma1=math.tau*1e6,
                              gamma_phi=0.0, rabi=0.0)
    from starkprobe.presets import ATOM as atom_again
    from starkprobe.presets import PLATE_GEOMETRY as plate_again
    from starkprobe.presets import TABLE_GEOMETRY as table_again
    assert table_again is TABLE_GEOMETRY
    assert plate_again is PLATE_GEOMETRY
    assert atom_again is ATOM
    assert presets.ATOM is ATOM
    with pytest.raises(AttributeError, match="has no attribute 'ATOMS'"):
        presets.ATOMS
