import cmath
import functools
import itertools
import math
import operator
import warnings

import numpy as np
import pytest

import starkprobe.detector as det
import starkprobe.specfun as specfun
from starkprobe.cavity import ResonatorGeometry, derive_qubit, position_coupling
from starkprobe.detector import (CavityParams, Coherent, Incoherent,
                                 QubitParams, Spectrum, SystemParams, Thermal,
                                 Vacuum, cavity_photon_number, comb_spectrum,
                                 detuning_error, figure_of_merit,
                                 qubit_response_coherent,
                                 qubit_response_incoherent,
                                 qubit_response_thermal, s21_probe,
                                 s21_signal, sweep)
from starkprobe.presets import FIGURES
from starkprobe.specfun import ConvergenceError, expint_scaled
from starkprobe.waveguide import WaveguideParams

from closedform import coherent_response_closed, coherent_series_mp, kummer_u
from peakfit import analyze_comb, response_from_s21

TWO_PI = 2.0*math.pi

FIG1 = FIGURES["fig1"].system()
Q1 = FIG1.qubits[0]


def fig1_like(chi=TWO_PI*10e6, gamma_c=TWO_PI*100e3, gamma=TWO_PI*250e3,
              gamma_phi=0.0, n_qubits=1):
    qubit = QubitParams(omega_q=TWO_PI*10e9, chi=chi, gamma=gamma,
                        gamma_phi=gamma_phi)
    return SystemParams(CavityParams(TWO_PI*9e9, gamma_c), (qubit,)*n_qubits)


# ---------------------------------------------------------------------------
# photon statistics

def test_coherent_photon_number_on_resonance():
    gc = FIG1.cavity.gamma_c
    nbar, beta = cavity_photon_number(Coherent(flux=gc/2.0), FIG1)
    assert abs(nbar - 1.0) < 1e-12
    assert abs(abs(beta)**2 - nbar) < 1e-12
    assert beta.imag < 1e-9*abs(beta)
    assert beta.real > 0


def test_coherent_photon_number_half_maximum():
    gc = FIG1.cavity.gamma_c
    sig = Coherent(flux=gc, signal_omega=FIG1.omega_c_star + gc/2.0)
    nbar, beta = cavity_photon_number(sig, FIG1)
    assert abs(nbar - 1.0) < 1e-9
    assert abs(abs(beta)**2 - nbar) < 1e-9


def test_thermal_photon_number():
    tau = 1e-9/TWO_PI
    sig = Thermal(tau_c=tau, flux=TWO_PI*1e9)
    nbar, beta = cavity_photon_number(sig, FIG1)
    assert abs(nbar - 1.0) < 1e-12
    assert beta is None


def test_thermal_kernel_takes_the_photon_number_of_its_state(monkeypatch):
    # the sidecar's nbar and the Bose factor of the thermal kernel come from
    # one Lorentzian-line rule, to the bit, on every preset
    fills = []
    real = det._lorentzian_fill
    monkeypatch.setattr(det, "_lorentzian_fill",
                        lambda *args: fills.append(real(*args)) or fills[-1])
    for fp in FIGURES.values():
        system = fp.system()
        gc = system.cavity.gamma_c
        for tau, d, f in itertools.product((1e-14, 1e-13, 1e-12, 1e-11, 3e-11),
                                           (0.0, gc/3.0, -gc/3.0, gc),
                                           (0.5, 1.0, 3.0, 30.0)):
            sig = Thermal(tau, flux=f/tau, signal_omega=system.omega_c_star + d)
            nbar, _ = sig.photon_number(system)
            fills.clear()
            sig.response(system)(fp.omega_q, system.qubits[0])
            # the binding's flux, then the kernel's nbar and its nbar_p
            assert len(fills) == 3 and fills[1][2] == nbar, (fp, tau, d, f)


def test_thermal_warns_on_long_coherence():
    with pytest.warns(UserWarning):
        cavity_photon_number(Thermal(tau_c=1e-4, flux=1e4), FIG1)


def test_nbar_flux_exclusivity():
    with pytest.raises(ValueError):
        Coherent(flux=1.0, nbar=1.0)
    with pytest.raises(ValueError):
        Incoherent()
    for bad in (math.nan, math.inf, -math.inf):
        for name, make in (
                ("flux", lambda: Incoherent(flux=bad)),
                ("nbar", lambda: Coherent(nbar=bad)),
                ("tau_c", lambda: Thermal(bad, nbar=1.0)),
                ("signal_omega", lambda: Coherent(nbar=1.0, signal_omega=bad)),
                ("signal_omega", lambda: Vacuum(signal_omega=bad)),
                ("signal_omega",
                 lambda: Thermal(1e-9, nbar=1.0, signal_omega=bad)),
                ("flux", lambda: qubit_response_thermal(Q1.omega_q, Q1, FIG1,
                                                        bad, 1e-12))):
            with pytest.raises(ValueError, match=f"^{name} must be "):
                make()
    with pytest.raises(ValueError, match="^flux must be non-negative"):
        qubit_response_thermal(Q1.omega_q, Q1, FIG1, -1.0, 1e-12)


# ---------------------------------------------------------------------------
# coherent response

def test_vacuum_reduction_is_lorentzian():
    for dwp in (-3.0, 0.0, 1.7):
        wp = Q1.omega_q + dwp*Q1.chi
        got = qubit_response_coherent(wp, Q1, FIG1, 0.0)
        ref = Q1.chi/(wp - Q1.omega_q + 1j*Q1.gamma_coh)
        assert abs(got - ref) < 1e-12*abs(ref)


def test_dual_path_identity_spot():
    sig = Coherent(nbar=1.3)
    _, beta = cavity_photon_number(sig, FIG1)
    for dwp in (-5.0, 0.0, 1.0, 2.3):
        wp = Q1.omega_q + dwp*2.0*Q1.chi
        series = qubit_response_coherent(wp, Q1, FIG1, beta)
        closed = coherent_response_closed(wp, Q1, FIG1, beta)
        assert abs(series - closed) < 1e-10*abs(series)


def test_beta_phase_invariance():
    wp = Q1.omega_q + 2.0*Q1.chi
    base = qubit_response_coherent(wp, Q1, FIG1, math.sqrt(1.3))
    for phase in (0.7, 2.1, -1.3):
        rot = qubit_response_coherent(wp, Q1, FIG1,
                                      math.sqrt(1.3)*cmath.exp(1j*phase))
        assert abs(rot - base) < 1e-12*abs(base)


def test_coherent_series_runs_to_term_w():
    # a lane may not stop before term |W|.  On a line that neither the
    # qubit nor the cavity widens, term 0 outweighs terms 1-3 by more than
    # 1e12, while the Poisson weights near |W| = 30 still count: stopping at
    # the first three small terms drops 2e-5 of the sum.  Small units keep
    # D_0 exact: at GHz scale the spacing of omega_p alone holds |D_0|
    # above 4e-6 rad/s, too wide for terms 1-3 to fall that far.
    pytest.importorskip("mpmath")
    qubit = QubitParams(omega_q=1.0, chi=2.0**-7, gamma=0.0, gamma_phi=0.0)
    params = SystemParams(CavityParams(omega_c=2.0, gamma_c=2.0**-64), (qubit,))
    sig = Coherent(nbar=30.0)
    _, beta = cavity_photon_number(sig, params)
    # the n = 0 line: D_0 = i |beta|^2 gamma_c/2
    ref = coherent_series_mp(1.0, qubit, params, beta)
    respond = sig.response(params)
    lone = respond(1.0, qubit)
    grid = respond(np.array([0.99, 1.0, 1.01]), qubit)[1]
    assert abs(lone - ref) <= 1e-12*abs(ref)
    assert abs(grid - ref) <= 1e-12*abs(ref)


def test_weak_cavity_poisson_comb_reduction():
    # gamma_c << chi and matched signal: explicit Poisson-comb expression
    params = fig1_like(gamma_c=TWO_PI*1e3)
    q = params.qubits[0]
    nbar = 1.0
    gc = params.cavity.gamma_c
    for dwp in np.linspace(-1.0, 7.0, 23):
        wp = q.omega_q + dwp*q.chi
        got = qubit_response_coherent(wp, q, params, math.sqrt(nbar))
        ref = q.chi*sum(
            math.exp(-nbar)*nbar**n/math.factorial(n)
            / (wp - q.omega_q - 2.0*q.chi*n
               + 1j*((n + nbar)*gc/2.0 + q.gamma_coh))
            for n in range(60))
        assert abs(got - ref) < 5e-3*abs(ref)


def test_low_q_single_line_shift():
    # gamma_c >> chi: single line displaced by 2 chi nbar
    params = fig1_like(chi=TWO_PI*100e3, gamma_c=TWO_PI*500e6)
    q = params.qubits[0]
    nbar = 1.0
    peak = None
    grid = q.omega_q + np.linspace(0.0, 4.0, 4001)*q.chi
    vals = [abs(qubit_response_coherent(w, q, params, math.sqrt(nbar)))
            for w in grid]
    peak = grid[int(np.argmax(vals))]
    assert abs(peak - (q.omega_q + 2.0*q.chi*nbar)) < 0.1*q.chi


# ---------------------------------------------------------------------------
# incoherent response

def test_incoherent_matches_quadrature():
    # P-representation: Gaussian average of the coherent response over
    # the in-cavity intensity
    nbar = 1.0
    x, wgt = np.polynomial.legendre.leggauss(600)
    umax = 40.0*nbar
    u = 0.5*umax*(x + 1.0)
    wgt = wgt*0.5*umax
    for dwp in (-0.5, 0.5, 1.0, 2.2):
        wp = Q1.omega_q + dwp*2.0*Q1.chi
        vals = np.array([qubit_response_coherent(wp, Q1, FIG1, math.sqrt(ui))
                         for ui in u])
        ref = np.sum(wgt*np.exp(-u/nbar)/nbar*vals)
        got = qubit_response_incoherent(wp, Q1, FIG1, nbar)
        assert abs(got - ref) < 1e-8*abs(ref)


def test_incoherent_matches_quadrature_detuned():
    nbar = 0.7
    delta = FIG1.cavity.gamma_c/3.0
    omega = FIG1.omega_c_star + delta
    x, wgt = np.polynomial.legendre.leggauss(600)
    umax = 40.0*nbar
    u = 0.5*umax*(x + 1.0)
    wgt = wgt*0.5*umax
    wp = Q1.omega_q + 2.0*Q1.chi
    vals = np.array([qubit_response_coherent(wp, Q1, FIG1, math.sqrt(ui), omega)
                     for ui in u])
    ref = np.sum(wgt*np.exp(-u/nbar)/nbar*vals)
    got = qubit_response_incoherent(wp, Q1, FIG1, nbar, omega)
    assert abs(got - ref) < 1e-8*abs(ref)


def test_incoherent_geometric_comb_limit():
    # high-Q conditions: gamma_c << chi and gamma_c << (1+n)(G/2+Gphi)/n
    params = fig1_like(gamma_c=TWO_PI*1e3)
    q = params.qubits[0]
    nbar = 1.0
    gc = params.cavity.gamma_c
    worst = 0.0
    for dwp in np.linspace(-1.0, 7.0, 41):
        wp = q.omega_q + dwp*q.chi
        got = qubit_response_incoherent(wp, q, params, nbar)
        ref = q.chi*sum(
            (nbar**n/(nbar + 1.0)**(n + 1))
            / (wp - q.omega_q - 2.0*q.chi*n + 1j*(n*gc/2.0 + q.gamma_coh))
            for n in range(200))
        worst = max(worst, abs(got - ref)/abs(ref))
    assert worst < 0.01


def test_incoherent_low_q_kummer_form():
    # gamma_c >> chi: single-term reduction through U(1,1,.)
    params = fig1_like(chi=TWO_PI*100e3, gamma_c=TWO_PI*500e6)
    q = params.qubits[0]
    nbar = 1.0
    worst = 0.0
    for dwp in np.linspace(-8.0, 8.0, 33):
        wp = q.omega_q + dwp*q.chi
        got = qubit_response_incoherent(wp, q, params, nbar)
        y = (wp - q.omega_q + 1j*q.gamma_coh)/(2.0*nbar*q.chi)
        closed = -0.5/nbar*expint_scaled(1, -y)
        worst = max(worst, abs(got - closed)/abs(got))
    assert worst < 1e-3
    # and the same closed form through the Tricomi function
    y = (2.0*q.chi + 1j*q.gamma_coh)/(2.0*nbar*q.chi)
    assert abs(expint_scaled(1, -y) - kummer_u(1.0, 1, -y)) \
        < 1e-12*abs(kummer_u(1.0, 1, -y))


def test_incoherent_vacuum_limit():
    wp = Q1.omega_q + 3.0*Q1.chi
    got = qubit_response_incoherent(wp, Q1, FIG1, 1e-6)
    ref = qubit_response_coherent(wp, Q1, FIG1, 0.0)
    assert abs(got - ref) < 1e-4*abs(ref)


def test_incoherent_requires_positive_nbar():
    with pytest.raises(ValueError):
        qubit_response_incoherent(Q1.omega_q, Q1, FIG1, 0.0)


def test_large_nbar_against_quadrature():
    # stress the scaled accumulations well beyond a single photon
    nbar = 12.0
    x, wgt = np.polynomial.legendre.leggauss(1200)
    umax = 14.0*nbar
    u = 0.5*umax*(x + 1.0)
    wgt = wgt*0.5*umax
    wp = Q1.omega_q + 2.0*Q1.chi*10.0
    vals = np.array([qubit_response_coherent(wp, Q1, FIG1, math.sqrt(ui))
                     for ui in u])
    ref = np.sum(wgt*np.exp(-u/nbar)/nbar*vals)
    got = qubit_response_incoherent(wp, Q1, FIG1, nbar)
    assert abs(got - ref) < 1e-6*abs(ref)
    # coherent dual path at the same intensity
    series = qubit_response_coherent(wp, Q1, FIG1, math.sqrt(nbar))
    closed = coherent_response_closed(wp, Q1, FIG1, math.sqrt(nbar))
    assert abs(series - closed) < 1e-9*abs(series)


# ---------------------------------------------------------------------------
# thermal response

def test_thermal_no_signal_is_lorentzian():
    for dwp in (-2.0, 0.0, 3.0):
        wp = Q1.omega_q + dwp*Q1.chi
        got = qubit_response_thermal(wp, Q1, FIG1, 0.0, 1e-12)
        ref = Q1.chi/(wp - Q1.omega_q + 1j*Q1.gamma_coh)
        assert abs(got - ref) < 1e-10*abs(ref)


def test_thermal_high_q_widths_table():
    tau = 1e-12
    nbar = 1.0
    gc = FIG1.cavity.gamma_c

    def respond(wp):
        return qubit_response_thermal(wp, Q1, FIG1, nbar/tau, tau)

    widths = [gc*((2.0*nbar + 1.0)*n + nbar) + Q1.gamma_coh for n in range(6)]
    centers = [Q1.omega_q + 2.0*Q1.chi*n for n in range(6)]
    _, poles = analyze_comb(respond, centers, widths)
    for n in range(4):
        assert abs(-poles[n].imag/widths[n] - 1.0) < 0.01, n


def test_thermal_matches_coherent_at_low_q():
    params = fig1_like(chi=TWO_PI*100e3, gamma_c=TWO_PI*500e6)
    q = params.qubits[0]
    tau = 1e-14
    nbar = 1.0
    for dwp in np.linspace(-20.0, 20.0, 21):
        wp = q.omega_q + dwp*q.chi
        th = qubit_response_thermal(wp, q, params, nbar/tau, tau)
        co = qubit_response_coherent(wp, q, params, math.sqrt(nbar))
        assert abs(th - co) < 2e-4*abs(co)


def test_thermal_line_sharpens_with_coherence_time():
    # small tau_c is the fully thermal (broadest) case; a longer coherence
    # time suppresses the Bose factor seen by the probe sideband and the
    # lines sharpen towards the incoherent ones
    q = Q1
    wp = q.omega_q + 2.0*q.chi
    mags = []
    for tau in (1e-12, 1e-9):
        mags.append(abs(qubit_response_thermal(wp, q, FIG1, 1.0/tau, tau)))
    assert mags[1] > 2.0*mags[0]


# ---------------------------------------------------------------------------
# vacuum coincidence of the three states

def test_vacuum_coincidence_pairwise():
    nbar = 1e-6
    tau = 1e-12
    grid = Q1.omega_q + np.linspace(-3.0, 3.0, 13)*Q1.chi
    for wp in grid:
        coh = qubit_response_coherent(wp, Q1, FIG1, math.sqrt(nbar))
        inc = qubit_response_incoherent(wp, Q1, FIG1, nbar)
        th = qubit_response_thermal(wp, Q1, FIG1, nbar/tau, tau)
        scale = abs(coh)
        assert abs(coh - inc) < 1e-4*scale
        assert abs(coh - th) < 1e-4*scale
        assert abs(inc - th) < 1e-4*scale


@pytest.mark.parametrize("preset", ["fig1", "fig5q"])
def test_zero_photon_states_are_the_vacuum(preset):
    fp = FIGURES[preset]
    system = fp.system()
    grid = fp.probe_grid_default(201)
    for model in ("full", "comb"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # fig5q is outside the comb's range
            vac, coh, inc = (sweep(system, sig, grid, model=model).s21 for sig in
                             (Vacuum(), Coherent(nbar=0.0), Incoherent(nbar=0.0)))
        assert np.array_equal(coh, vac) and np.array_equal(inc, vac), model


# ---------------------------------------------------------------------------
# transmission assembly

def test_s21_signal_values():
    gc = FIG1.cavity.gamma_c
    wcs = FIG1.omega_c_star
    # -1 up to the counter-rotating term of order gamma_c/(4 omega_c*)
    on_res = s21_signal(wcs, FIG1)
    assert abs(on_res + 1.0) < 2.0*gc/wcs
    half = s21_signal(wcs + gc/2.0, FIG1)
    assert abs(abs(half)**2 - 0.5) < 1e-5
    far = s21_signal(wcs + 1000.0*gc, FIG1)
    assert abs(far) < 1e-3


def test_s21_conjugation_symmetry():
    sig = Coherent(nbar=1.0)
    for dwp in (-1.0, 0.4, 2.0):
        wp = Q1.omega_q + dwp*Q1.chi
        plus = s21_probe(wp, FIG1, sig)
        minus = s21_probe(-wp, FIG1, sig)
        assert abs(minus - plus.conjugate()) < 1e-12*abs(plus)


def test_far_off_resonance_cavity_tail():
    sig = Vacuum()
    wp = Q1.omega_q + 400.0*Q1.chi
    got = s21_probe(wp, FIG1, sig)
    background = s21_signal_term(wp, FIG1)
    assert abs(got - background) < 0.005*abs(background)
    # single-branch Lorentzian tail up to the counter-rotating piece
    tail = -0.5j*FIG1.cavity.gamma_c/(wp - FIG1.cavity.omega_c)
    assert abs(got - tail) < 0.25*abs(tail)


def test_vacuum_single_line_width():
    sig = Vacuum()

    def respond(wp):
        return qubit_response_coherent(wp, Q1, FIG1, 0.0)

    _, poles = analyze_comb(respond, [Q1.omega_q], [Q1.gamma_coh])
    assert abs(-poles[0].imag/(TWO_PI*125e3) - 1.0) < 1e-3
    assert abs(poles[0].real - Q1.omega_q) < 1e-6*Q1.gamma_coh


def test_comb_vs_full_near_peaks():
    # the comb keeps the cavity prefactor frozen at omega_q - omega_c, so
    # its pointwise error grows by 2 chi n/(omega_q - omega_c) = 2% per
    # sideband: 2.5% covers n <= 1, the n = 2 peak sits at ~5%
    sig = Coherent(nbar=1.0)
    for n in range(3):
        tol = 0.025 if n <= 1 else 0.05
        for frac in (-0.6, 0.0, 0.6):
            wp = (Q1.omega_q + 2.0*Q1.chi*n
                  + frac*((n + 1.0)*FIG1.cavity.gamma_c/2.0 + Q1.gamma_coh))
            full = s21_probe(wp, FIG1, sig)
            comb = comb_spectrum(wp, FIG1, sig)
            assert abs(full - comb) < tol*abs(full), (n, frac)


def test_comb_weights_table_values():
    gc = FIG1.cavity.gamma_c
    assert abs(Coherent(nbar=1.0).sideband(0, 1.0, gc)[0] - math.exp(-1)) < 1e-12
    assert abs(Coherent(nbar=1.0).sideband(2, 1.0, gc)[0]
               - math.exp(-1)/2.0) < 1e-12
    for n in range(5):
        assert abs(Incoherent(nbar=1.0).sideband(n, 1.0, gc)[0]
                   - 0.5**(n + 1)) < 1e-12


def test_comb_weight_normalisation():
    for nbar in (0.3, 1.0, 5.0, 20.0):
        for sig in (Coherent(nbar=nbar), Incoherent(nbar=nbar)):
            total, n = 0.0, 0
            while total < 1.0 - 1e-10 and n < 100000:
                total += sig.sideband(n, nbar, 1.0)[0]
                n += 1
            assert total > 1.0 - 1e-10
            assert abs(sum(sig.sideband(k, nbar, 1.0)[0] for k in range(n + 200))
                       - 1.0) < 1e-10


def test_comb_sideband_table_cap(monkeypatch):
    # a Bose table needs about 23 nbar sidebands for a weight of 1 - 1e-10,
    # more than the cap of 100000 for incoherent light at nbar 2e4 and
    # thermal light at 5e3, and so does a Poisson table past nbar 1e5: each
    # raises before it forms a sideband.  The Poisson table stays narrow.
    fp = FIGURES["fig1"]
    grid = fp.probe_grid_default(5)
    with monkeypatch.context() as m:
        for state in (Coherent, Incoherent, Thermal):
            m.setattr(state, "sideband", None)
        for sig in (Incoherent(nbar=2e4), Thermal(tau_c=fp.tau_c, nbar=5e3),
                    Coherent(nbar=1.01e5)):
            with pytest.raises(ConvergenceError,
                               match="comb sideband table cap: 100000 sidebands"):
                comb_spectrum(grid, FIG1, sig)
    assert np.all(np.isfinite(comb_spectrum(grid, FIG1, Coherent(nbar=1e4))))


def test_comb_sideband_cap_edge():
    # The up-front bound leaves room for the table's rounding.  At nbar 4345
    # the exact Bose tail past 100000 sidebands is 1.02e-10, yet the table's
    # running sum reaches 1 - 1e-10 within the cap, so the comb returns, as
    # it did before the bound (about 0.8 s for one point on 2 cores); at
    # nbar 4400 the table reaches the cap short of its weight and raises.
    wp = float(FIGURES["fig1"].probe_grid_default(5)[2])
    assert math.exp(-1e5*math.log1p(1/4345.0)) > 1e-10
    assert cmath.isfinite(comb_spectrum(wp, FIG1, Incoherent(nbar=4345.0)))
    with pytest.raises(ConvergenceError, match="cover a weight of 0.9999999999"):
        comb_spectrum(wp, FIG1, Incoherent(nbar=4400.0))


def test_multi_qubit_sum():
    sig = Vacuum()
    one = fig1_like(n_qubits=1)
    five = fig1_like(n_qubits=5)
    wp = one.qubits[0].omega_q + 0.5*one.qubits[0].chi
    gc = one.cavity.gamma_c
    s_one = s21_probe(wp, one, sig)
    s_five = s21_probe(wp, five, sig)
    # qubit terms add; cavity term shifts through omega_c_star
    qt_one = s_one - s21_signal_term(wp, one)
    qt_five = s_five - s21_signal_term(wp, five)
    assert abs(qt_five - 5.0*qt_one) < 0.02*abs(qt_five)


def s21_signal_term(wp, params):
    gc = params.cavity.gamma_c
    wcs = params.omega_c_star
    return (-0.5j*gc/(wp - wcs + 0.5j*gc)
            - 0.5j*gc/(wp + wcs + 0.5j*gc))


def _compensated_sum(items, start=0):
    """The builtin `sum` of Python 3.12 and 3.13: floats by Neumaier's
    compensated sum, anything else (complex numbers) added plainly."""
    items = list(items)
    if not all(isinstance(item, float) for item in items):
        return functools.reduce(operator.add, items, start)
    total, comp = float(start), 0.0
    for item in items:
        step = total + item
        comp += ((total - step) + item if abs(total) >= abs(item)
                 else (item - step) + total)
        total = step
    return total + comp


def test_outputs_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # psi(n) of the incoherent series' e^z E_n(z) and omega_c* = omega_c -
    # sum chi are summed left to right, so a Python whose float `sum`
    # compensates its rounding (3.12 on) gives the bits of 3.10 and 3.11
    def outputs():
        fp = FIGURES["fig5q"]
        s21 = sweep(fp.system(), Incoherent(nbar=3.0),
                    fp.probe_grid_default(401)).s21
        qubits = tuple(QubitParams(omega_q=TWO_PI*10e9, chi=TWO_PI*chi,
                                   gamma=TWO_PI*250e3, gamma_phi=0.0)
                       for chi in (1.2e6, 2.1e6, 3.7e6))
        system = SystemParams(CavityParams(TWO_PI*9e9, TWO_PI*100e3), qubits)
        return s21, system.omega_c_star

    plain_s21, plain_star = outputs()
    for module in (det, specfun):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    s21, star = outputs()
    assert np.array_equal(s21, plain_s21)
    assert star == plain_star


# ---------------------------------------------------------------------------
# figures of merit

def test_figure_of_merit_vacuum_identity():
    grid = Q1.omega_q + np.linspace(-2.0, 2.0, 21)*Q1.chi
    vac = sweep(FIG1, Vacuum(), grid)
    ratio = figure_of_merit(vac, vac)
    assert np.allclose(ratio, 1.0)


def test_figure_of_merit_extrema():
    q = Q1
    grid = np.sort(np.concatenate([
        q.omega_q + np.linspace(-0.5, 3.5, 161)*2.0*q.chi,
        [q.omega_q - 80.0*q.chi, q.omega_q + 120.0*q.chi]]))
    vac = sweep(FIG1, Vacuum(), grid)
    coh = sweep(FIG1, Coherent(nbar=1.0), grid)
    ratio = figure_of_merit(coh, vac)
    idx_peak1 = int(np.argmin(np.abs(grid - (q.omega_q + 2.0*q.chi))))
    idx_res = int(np.argmin(np.abs(grid - q.omega_q)))
    assert ratio[idx_peak1] > 1.5
    assert ratio[idx_res] < 0.7
    assert abs(ratio[0] - 1.0) < 0.05
    assert abs(ratio[-1] - 1.0) < 0.05


def test_figure_of_merit_grid_mismatch():
    grid = Q1.omega_q + np.linspace(-1.0, 1.0, 5)*Q1.chi
    a = sweep(FIG1, Vacuum(), grid)
    b = sweep(FIG1, Vacuum(), grid + 1.0)
    with pytest.raises(ValueError):
        figure_of_merit(a, b)


def test_detuning_error_zero_and_asymmetry():
    params = fig1_like(chi=TWO_PI*1e6)
    q = params.qubits[0]
    gc = params.cavity.gamma_c
    windows = [q.omega_q + 2.0*q.chi*n + np.linspace(-1.0, 1.0, 41)*q.chi
               for n in (0, 1)]
    grid = np.sort(np.concatenate(windows))
    sig = Coherent(nbar=1.0)
    errs = detuning_error(params, sig, [0.0, gc/3.0, -gc/3.0], grid)
    assert np.max(errs[0.0]) < 1e-14
    # opposite detunings produce distinct curves (complex beta asymmetry)
    assert np.max(np.abs(errs[gc/3.0] - errs[-gc/3.0])) > 1e-3
    # errors peak near the comb lines and the n=1 sideband responds more
    # strongly than the n=0 line (the growth saturates once the Poisson
    # weights die off at higher n)
    half = grid.size//2
    e = errs[gc/3.0]
    assert np.max(e[half:]) > np.max(e[:half]) > 10.0*min(e[0], e[half - 1])


def test_detuning_error_sweeps_each_detuning_once(monkeypatch):
    calls = []
    real = det.sweep
    monkeypatch.setattr(det, "sweep", lambda *a: calls.append(a) or real(*a))
    d = FIG1.cavity.gamma_c/3.0
    grid = Q1.omega_q + np.linspace(-1.0, 1.0, 5)*Q1.chi
    errs = detuning_error(FIG1, Coherent(nbar=1.0), [0.0, d, 0.0, -d], grid)
    assert len(calls) == 3 and sorted(errs) == [-d, 0.0, d]
    # a detuning past gamma_c leaves the cavity line, with a warning
    with pytest.warns(UserWarning, match=r"^detuning -1.26e\+06 exceeds gamma_c$"):
        detuning_error(FIG1, Coherent(nbar=1.0), [-6.0*d], grid)


@pytest.mark.parametrize("given", ["nbar", "flux"])
def test_detuning_error_keeps_the_flux_or_nbar_given(given, monkeypatch):
    # each detuned signal keeps whichever of flux and nbar the state was
    # given; the other follows the cavity line, so a state given by nbar
    # takes more flux off resonance and one given by flux fills it less
    seen = []
    real = det.sweep
    monkeypatch.setattr(det, "sweep", lambda *a: seen.append(a[1]) or real(*a))
    half = 0.5*FIG1.cavity.gamma_c
    d = half/1.5
    grid = Q1.omega_q + np.linspace(-1.0, 1.0, 5)*Q1.chi
    for state in (Coherent, Incoherent):
        sig = state(nbar=1.0) if given == "nbar" else state(flux=3e5)
        seen.clear()
        detuning_error(FIG1, sig, [d, -d], grid)
        assert [s.signal_omega for s in seen] == [FIG1.omega_c_star + x
                                                  for x in (0.0, d, -d)]
        fills = [det._lorentzian_fill(s, FIG1, half) for s in seen]
        fluxes = [flux for _, flux, _ in fills]
        nbars = [nbar for _, _, nbar in fills]
        if given == "nbar":
            assert all(s.nbar == 1.0 and s.flux is None for s in seen)
            assert nbars == pytest.approx([1.0]*3, rel=1e-15)
            assert fluxes[0] < min(fluxes[1:])
        else:
            assert all(s.flux == 3e5 and s.nbar is None for s in seen)
            assert fluxes == [3e5]*3
            assert nbars[0] > max(nbars[1:])


# ---------------------------------------------------------------------------
# parameter derivation

def test_position_coupling_values():
    kappa = TWO_PI*200e6
    assert position_coupling(kappa, 0.0, 0.02) == kappa/math.sqrt(math.pi)
    assert abs(position_coupling(kappa, 0.01, 0.02)) < 1e-9*kappa


def test_derive_qubit_chain():
    line = WaveguideParams(c_line=1.44e-10, l_line=2.36e-7, v=1.3e8,
                           eps_eff=5.3, c_eff=1.0/(2.36e-7*1.3e8**2),
                           z=30.7, z_static=40.5)
    cav = ResonatorGeometry(length=1.3e8/(2.0*9e9)*1.002,
                            gap_capacitance=1e-16,
                            line_capacitance=line.c_eff, velocity=line.v)
    e_j = 3.44e-23
    c_j = 80e-15
    qp = derive_qubit(e_j, c_j, 0.03, 0.0, line, cav)
    e = 1.602176634e-19
    hbar = 1.054571817e-34
    omega_ref = (math.sqrt(4.0*e*e*e_j/c_j) - e*e/(2.0*c_j))/hbar
    assert abs(qp.omega_q - omega_ref) < 1e-9*omega_ref
    kappa = (2.0*e/hbar)*0.03*math.sqrt(e_j*omega_ref/(2.0*line.v*line.c_eff))
    assert abs(qp.gamma - kappa**2/omega_ref) < 1e-9*qp.gamma
    g = kappa/math.sqrt(math.pi)
    from starkprobe.cavity import resonances
    omega_c = resonances(cav, 1)[0].omega_n
    assert abs(qp.chi - g*g/(omega_ref - omega_c)) < 1e-9*abs(qp.chi)


def test_derive_qubit_node_position_kills_coupling():
    line = WaveguideParams(c_line=1.44e-10, l_line=2.36e-7, v=1.3e8,
                           eps_eff=5.3, c_eff=1.0/(2.36e-7*1.3e8**2),
                           z=30.7, z_static=40.5)
    length = 1.3e8/(2.0*9e9)
    cav = ResonatorGeometry(length=length, gap_capacitance=1e-16,
                            line_capacitance=line.c_eff, velocity=line.v)
    end = derive_qubit(3.44e-23, 80e-15, 0.03, 0.0, line, cav)
    node = derive_qubit(3.44e-23, 80e-15, 0.03, length/2.0, line, cav)
    assert abs(node.chi) < 1e-30*abs(end.chi)


# ---------------------------------------------------------------------------
# container invariants

def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(omega_p=np.array([1.0, 2.0]), s21=np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        Spectrum(omega_p=np.array([2.0, 1.0]), s21=np.array([0j, 0j]))
    with pytest.raises(ValueError, match="^unknown model 'bogus'$"):
        sweep(FIG1, Vacuum(), [Q1.omega_q], model="bogus")


def test_qubit_params_validation():
    with pytest.raises(ValueError):
        QubitParams(omega_q=1.0, chi=0.0, gamma=0.0, gamma_phi=0.0)
    with pytest.raises(ValueError):
        QubitParams(omega_q=1.0, chi=1.0, gamma=-1.0, gamma_phi=0.0)
