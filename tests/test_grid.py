"""One pass over the probe grid: the grid evaluation of every spectrum must
agree with the same probe points evaluated one at a time, identical qubits
must add up, and a spectrum never comes back non-finite."""

import warnings

import numpy as np
import pytest

from starkprobe.detector import (CavityParams, Coherent, Incoherent,
                                 QubitParams, SystemParams, Thermal, Vacuum,
                                 comb_spectrum, response_function, s21_probe,
                                 sweep)
from starkprobe.presets import FIGURES
from starkprobe.specfun import ConvergenceError


def _states(fp):
    # fig10 names no coherence time; it gets the short one of the others
    tau_c = fp.tau_c if fp.tau_c is not None else 1e-12
    return {"vacuum": Vacuum(), "coherent": Coherent(nbar=fp.nbar),
            "incoherent": Incoherent(nbar=fp.nbar),
            "thermal": Thermal(tau_c=tau_c, nbar=fp.nbar)}


@pytest.mark.parametrize("preset", sorted(FIGURES))
def test_grid_equals_pointwise(preset):
    # every fourth point of the grid alone: a size-1 incoherent call costs
    # about 1.5 ms, so all 201 would add some 10 s to the suite
    fp = FIGURES[preset]
    system = fp.system()
    grid = fp.probe_grid_default(201)
    for state, sig in _states(fp).items():
        full = sweep(system, sig, grid).s21[::4]
        one = np.array([s21_probe(float(wp), system, sig) for wp in grid[::4]])
        assert np.all(np.abs(full - one) <= 1e-13*np.abs(one)), state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # fig4/fig5q lie outside the comb's range
        sig = Coherent(nbar=fp.nbar)
        comb = sweep(system, sig, grid, model="comb").s21
        one = np.array([comb_spectrum(float(wp), system, sig) for wp in grid])
    assert np.all(np.abs(comb - one) <= 1e-13*np.abs(one))


# fig5q incoherent on its 2001-point default grid, as computed by the
# point-by-point code before the grid pass.  The expint series branch turns
# one rounding bit in its argument into ~1e-12 here: at these points a fused
# complex product moved the spectrum by 1.4e-12 to 2.0e-12.
FIG5Q_INCOHERENT = {
    1063: complex(0.00063937154572998639, 0.00012827897707479424),
    1098: complex(0.00036034955039710749, 4.8556209139622071e-05),
    1099: complex(0.00035390568516828052, 4.6003782038584362e-05),
}


def test_fig5q_incoherent_pinned_values():
    fp = FIGURES["fig5q"]
    spec = sweep(fp.system(), Incoherent(nbar=fp.nbar), fp.probe_grid_default(2001))
    for idx, ref in FIG5Q_INCOHERENT.items():
        assert abs(spec.s21[idx] - ref) <= 1e-13*abs(ref), idx


def test_identical_qubits_add_up():
    fp = FIGURES["fig5q"]
    system = fp.system()
    assert len(system.qubits) == 5
    grid = fp.probe_grid_default(201)
    gc, omega_c = system.cavity.gamma_c, system.cavity.omega_c
    for sig in (Coherent(nbar=1.0), Incoherent(nbar=1.0)):
        respond = response_function(system, sig)
        q = system.qubits[0]
        one = (0.5j*gc*respond(grid, q)/(grid - omega_c + 0.5j*gc)
               + 0.5j*gc*np.conj(respond(-grid, q))/(grid + omega_c + 0.5j*gc))
        parts = {}
        total = s21_probe(grid, system, sig, parts=parts)
        assert sorted(parts) == ["cavity"] + [f"qubit_{i}" for i in range(5)]
        for i in range(5):
            assert np.array_equal(parts[f"qubit_{i}"], one)
        expect = parts["cavity"] + 5.0*one
        assert np.all(np.abs(total - expect) <= 1e-14*np.abs(expect))


def test_comb_sweep_warns_once():
    fp = FIGURES["fig5q"]   # gamma_c = chi: outside the comb's validity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep(fp.system(), Coherent(nbar=fp.nbar), fp.probe_grid_default(2001),
              model="comb")
    assert len(caught) == 1
    assert "comb approximation" in str(caught[0].message)


def _lossless_system():
    q = QubitParams(omega_q=2*np.pi*10e9, chi=2*np.pi*10e6, gamma=0.0,
                    gamma_phi=0.0)
    return SystemParams(CavityParams(2*np.pi*9e9, 2*np.pi*100e3), (q,)), q


@pytest.mark.parametrize("sig", [Vacuum(), Incoherent(nbar=1.0)],
                         ids=["vacuum", "incoherent"])
def test_pole_on_grid_raises(sig):
    # with gamma = gamma_phi = 0 the response has a pole at omega_q itself
    system, q = _lossless_system()
    grid = np.array([q.omega_q - q.chi, q.omega_q, q.omega_q + q.chi])
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no silent NaN from numpy either
        with pytest.raises(ConvergenceError, match="not finite at omega_p = "
                           f"{q.omega_q:.17g}"):
            sweep(system, sig, grid)
        off = sweep(system, sig, grid[[0, 2]])
    assert np.all(np.isfinite(off.s21))
