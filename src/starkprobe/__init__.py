"""starkprobe: dispersive probe-transmission spectra of transmon arrays.

The package computes the complex transmission S21 seen by a weak probe
scanning a qubit array in a waveguide cavity while a signal field
(vacuum, coherent, incoherent or thermal) populates the cavity, along
with the supporting transmission-line, bare-cavity and open-waveguide
atom models, and a truncated-Fock master-equation solve of the probe
response that validates the single-qubit vacuum and coherent spectra.

Importing the package loads none of its modules: each public name below
resolves on first use, from the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    "atom": ("AtomParams", "atom_s_params", "atom_steady_state"),
    "cavity": ("CavityMode", "ResonatorGeometry", "bare_s_params",
               "resonances"),
    "detector": ("CavityParams", "Coherent", "Incoherent", "QubitParams",
                 "SignalState", "Spectrum", "SystemParams", "Thermal",
                 "Vacuum", "cavity_photon_number", "comb_spectrum",
                 "derive_qubit", "detuning_error", "figure_of_merit",
                 "qubit_response_coherent", "qubit_response_incoherent",
                 "qubit_response_thermal", "response_function", "s21_probe",
                 "s21_signal", "sweep"),
    "oracle": ("SteadyResponse", "lindblad_steady_response"),
    "waveguide": ("CpwGeometry", "ParallelPlateGeometry", "WaveguideParams",
                  "cpw_params", "half_plane_params", "parallel_plate_params"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
