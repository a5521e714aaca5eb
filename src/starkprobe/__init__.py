"""starkprobe: dispersive probe-transmission spectra of transmon arrays.

The package computes the complex transmission S21 seen by a weak probe
scanning a qubit array in a waveguide cavity while a signal field
(vacuum, coherent, incoherent or thermal) populates the cavity, along
with the supporting transmission-line, bare-cavity and open-waveguide
atom models, and a truncated-Fock master-equation solve of the probe
response that validates the single-qubit vacuum and coherent spectra.
"""

from .atom import AtomParams, atom_s_params, atom_steady_state
from .cavity import CavityMode, ResonatorGeometry, bare_s_params, resonances
from .detector import (CavityParams, Coherent, Incoherent, QubitParams,
                       SignalState, Spectrum, SystemParams, Thermal, Vacuum,
                       cavity_photon_number, comb_spectrum, derive_qubit,
                       detuning_error, figure_of_merit,
                       qubit_response_coherent, qubit_response_incoherent,
                       qubit_response_thermal, response_function, s21_probe,
                       s21_signal, sweep)
from .oracle import SteadyResponse, lindblad_steady_response
from .waveguide import (CpwGeometry, ParallelPlateGeometry, WaveguideParams,
                        cpw_params, half_plane_params, parallel_plate_params)

__version__ = "0.1.0"

__all__ = [
    "AtomParams", "atom_s_params", "atom_steady_state",
    "CavityMode", "ResonatorGeometry", "bare_s_params", "resonances",
    "CavityParams", "Coherent", "Incoherent", "QubitParams", "SignalState",
    "Spectrum", "SystemParams", "Thermal", "Vacuum",
    "cavity_photon_number", "comb_spectrum", "derive_qubit",
    "detuning_error", "figure_of_merit", "qubit_response_coherent",
    "qubit_response_incoherent", "qubit_response_thermal",
    "response_function", "s21_probe", "s21_signal", "sweep",
    "SteadyResponse", "lindblad_steady_response",
    "CpwGeometry", "ParallelPlateGeometry", "WaveguideParams",
    "cpw_params", "half_plane_params", "parallel_plate_params",
    "__version__",
]
