"""The closed-form receiver kernel against a 50-digit reference built from
the covariance matrices it reduces, and against itself under broadcasting."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qillum.gaussian import GainSpec
from qillum.illumination import (
    ScenarioParams,
    classify_regime,
    detection_report,
    receiver_stats,
    snr_csh_closed_form,
    snr_qi_closed_form,
)

#: Relative bound for mu1, var0, var1 and the threshold against 50 digits.
MOMENT_REL = 1e-13
#: p_error = erfc(x)/2 turns a relative error d in x into about 2 x^2 d in
#: p_error, so its bound is MOMENT_REL * (1 + 2 x^2), checked while the
#: reference is a normal float (>= 1e-300); below that it must underflow too.
P_ERROR_FLOOR = 1e-300

NS_GRID = (1e-3, 0.01, 0.1, 1.0, 10.0)
GAIN_GRID = (1.0, 2.0, 5.623, 31.62, 100.0)
NB_GRID = (0.5, 10.0, 100.0)
KAPPA_GRID = (1e-3, 0.1)


def _rel(a, b) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _mp_folded_stats(v):
    """Count-difference moments at the balanced-splitter outputs of an mpmath
    4x4 covariance, read off the splitter inputs: N+ - N- equals
    a1^dag a2 + a2^dag a1 there, and its Gaussian moments follow from the
    photon numbers, the single-mode <a_j^2> and both cross correlations."""
    n1 = (v[0][0] + v[1][1] - 1) / 2
    n2 = (v[2][2] + v[3][3] - 1) / 2
    sq1 = mp.mpc(v[0][0] - v[1][1], 2 * v[0][1]) / 2
    sq2 = mp.mpc(v[2][2] - v[3][3], 2 * v[2][3]) / 2
    picc = mp.mpc(v[0][2] + v[1][3], v[0][3] - v[1][2]) / 2
    pscc = mp.mpc(v[0][2] - v[1][3], v[0][3] + v[1][2]) / 2
    var = (2 * (picc**2).real + 2 * (mp.conj(sq1) * sq2).real + 2 * abs(pscc) ** 2
           + 2 * n1 * n2 + n1 + n2)
    return 2 * picc.real, var


def reference(ns, nb, kappa, g, modes):
    """50-digit (mu1, var0, var1, threshold, p_error, erfc argument), built
    from the hypothesis covariance matrices written out entry by entry."""
    with mp.workdps(50):
        ns, nb, kappa, g = (mp.mpf(x) for x in (ns, nb, kappa, g))
        nu = 2 * ns + 1
        c = 2 * mp.sqrt(ns * (ns + 1))
        omega = 2 * nb + 1
        gamma = 2 * kappa * ns + omega
        sk = mp.sqrt(kappa)
        absent = [[omega, 0, 0, 0], [0, omega, 0, 0],
                  [0, 0, g**2 * nu, 0], [0, 0, 0, nu / g**2]]
        present = [[gamma, 0, sk * g * c, 0], [0, gamma, 0, -sk * c / g],
                   [sk * g * c, 0, g**2 * nu, 0], [0, -sk * c / g, 0, nu / g**2]]
        mu0, var0 = _mp_folded_stats([[x / 2 for x in row] for row in absent])
        mu1, var1 = _mp_folded_stats([[x / 2 for x in row] for row in present])
        sd0, sd1 = mp.sqrt(var0), mp.sqrt(var1)
        threshold = modes * (mu0 * sd1 + mu1 * sd0) / (sd0 + sd1)
        x = mp.sqrt(mp.mpf(modes) / 2) * (mu1 - mu0) / (sd0 + sd1)
        return mu1, var0, var1, threshold, mp.erfc(x) / 2, x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    ns=st.floats(1e-3, 1e9),
    gain_db=st.floats(0.0, 30.0),
    nb=st.floats(1e-2, 1e4),
    kappa=st.floats(0.0, 0.999),
    modes=st.integers(1, 10**8),
)
def test_kernel_matches_50_digit_reference(ns, gain_db, nb, kappa, modes):
    g = GainSpec.from_db(gain_db).linear
    mu0, var0, mu1, var1 = receiver_stats(ns, nb, kappa, g)
    assert mu0 == 0.0
    ref_mu1, ref_var0, ref_var1, ref_threshold, ref_p, x = reference(ns, nb, kappa, g, modes)
    for value, ref in ((mu1, ref_mu1), (var0, ref_var0), (var1, ref_var1)):
        assert abs(value - ref) <= MOMENT_REL * abs(ref)
    report = detection_report(ScenarioParams(n_s=ns, n_b=nb, kappa=kappa,
                                             gain=GainSpec(g), modes=modes))
    assert abs(report.threshold - ref_threshold) <= MOMENT_REL * abs(ref_threshold)
    if ref_p >= P_ERROR_FLOOR:
        assert abs(report.p_error - ref_p) <= MOMENT_REL * (1 + 2 * x**2) * ref_p
    else:
        assert report.p_error <= P_ERROR_FLOOR


@pytest.mark.parametrize("ns", NS_GRID)
@pytest.mark.parametrize("g", GAIN_GRID)
def test_kernel_matches_covariance_route(ns, g):
    # the covariance route here is reference(): its matrices at 50 digits
    for nb in NB_GRID:
        for kappa in KAPPA_GRID:
            mu0, var0, mu1, var1 = receiver_stats(ns, nb, kappa, g)
            ref_mu1, ref_var0, ref_var1 = reference(ns, nb, kappa, g, 100)[:3]
            assert mu0 == 0.0
            assert _rel(mu1, ref_mu1) <= MOMENT_REL
            assert _rel(var0, ref_var0) <= MOMENT_REL
            assert _rel(var1, ref_var1) <= MOMENT_REL


def test_kernel_broadcasts():
    ns = np.array([0.01, 1.0, 100.0])
    mu0, var0, mu1, var1 = receiver_stats(ns[:, None], 10.0, 0.1, np.array([1.0, 2.0]))
    assert mu0.shape == var0.shape == mu1.shape == var1.shape == (3, 2)
    for i, j in np.ndindex(3, 2):
        scalar = receiver_stats(ns[i], 10.0, 0.1, [1.0, 2.0][j])
        assert [float(m) for m in scalar] == [mu0[i, j], var0[i, j], mu1[i, j], var1[i, j]]


def test_array_scenario_equals_per_point_calls():
    ns = np.geomspace(1e-3, 1e9, 41)
    arr = ScenarioParams(n_s=ns, n_b=10.0, kappa=0.01, gain=GainSpec.from_db(15.0), modes=1000)
    report, regime = detection_report(arr), classify_regime(arr)
    qi, csh = snr_qi_closed_form(arr), snr_csh_closed_form(arr)
    for i, value in enumerate(ns.tolist()):
        p = ScenarioParams(n_s=value, n_b=10.0, kappa=0.01, gain=GainSpec.from_db(15.0),
                           modes=1000)
        point, point_regime = detection_report(p), classify_regime(p)
        assert csh[i] == snr_csh_closed_form(p)
        assert regime.regime[i] is point_regime.regime
        assert report.p_error[i] == point.p_error
        assert report.threshold[i] == point.threshold
        assert _rel(qi[i], snr_qi_closed_form(p)) <= 1e-15
        assert _rel(regime.ratio[i], point_regime.ratio) <= 1e-15


def test_array_validation_names_the_first_bad_element():
    with pytest.raises(ValueError, match=r"got -0\.5$"):
        ScenarioParams(n_s=np.array([1.0, -0.5, -1.0]), n_b=1.0, kappa=0.1,
                       gain=GainSpec(2.0), modes=10)
    with pytest.raises(ValueError, match=r"reflectance must lie in \[0, 1\), got 1\.0$"):
        ScenarioParams(n_s=1.0, n_b=1.0, kappa=np.array([0.5, 1.0]), gain=GainSpec(2.0),
                       modes=10)
    with pytest.raises(ValueError, match=r"mode count must be a positive integer, got 0$"):
        ScenarioParams(n_s=1.0, n_b=1.0, kappa=0.1, gain=GainSpec(2.0),
                       modes=np.array([3, 0]))
    with pytest.raises(ValueError, match=r"mode count must be a positive integer, got 0$"):
        ScenarioParams(n_s=1.0, n_b=1.0, kappa=0.1, gain=GainSpec(2.0),
                       modes=np.array([2**70, 0], dtype=object))
    with pytest.raises(ValueError, match=r"mode count must be a positive integer, got 2\.5$"):
        ScenarioParams(n_s=1.0, n_b=1.0, kappa=0.1, gain=GainSpec(2.0),
                       modes=np.array([2.5, 0.0]))
    with pytest.raises(ValueError, match=r"gain must be finite and >= 1, got nan$"):
        GainSpec(np.array([1.0, math.nan]))
