import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qillum.gaussian import GainSpec, balanced_beam_splitter, cross_correlations
from qillum.illumination import (
    CountStats,
    Regime,
    ScenarioParams,
    classify_regime,
    count_difference_stats,
    detection_report,
    gain_prefactor,
    hypothesis_covariances,
    per_mode_count_stats,
    snr_csh_closed_form,
    snr_qi_closed_form,
)

G15 = GainSpec.from_db(15.0)


def symbols(ns, nb, kappa):
    nu = 2.0 * ns + 1.0
    c = 2.0 * math.sqrt(ns * (ns + 1.0))
    omega = 2.0 * nb + 1.0
    gamma = 2.0 * kappa * ns + omega
    return nu, c, omega, gamma


def absent_covariance(ns, nb, g):
    """Received-idler covariance with the target absent, written out directly."""
    nu, _, omega, _ = symbols(ns, nb, 0.0)
    return 0.5 * np.diag([omega, omega, g**2 * nu, nu / g**2])


def present_covariance(ns, nb, kappa, g):
    """Received-idler covariance with the target present, written out directly."""
    nu, c, omega, gamma = symbols(ns, nb, kappa)
    sk = math.sqrt(kappa)
    return 0.5 * np.array(
        [
            [gamma, 0.0, sk * g * c, 0.0],
            [0.0, gamma, 0.0, -sk * c / g],
            [sk * g * c, 0.0, g**2 * nu, 0.0],
            [0.0, -sk * c / g, 0.0, nu / g**2],
        ]
    )


def params(ns=1.0, nb=1.0, kappa=0.01, g=2.0, modes=100):
    return ScenarioParams(n_s=ns, n_b=nb, kappa=kappa, gain=GainSpec(g), modes=modes)


class TestScenarioParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            params(ns=-0.1)
        with pytest.raises(ValueError):
            params(nb=-1.0)
        with pytest.raises(ValueError):
            params(kappa=1.0)
        with pytest.raises(ValueError):
            params(kappa=-0.2)
        with pytest.raises(ValueError):
            params(modes=0)
        with pytest.raises(ValueError):
            ScenarioParams(n_s=1.0, n_b=1.0, kappa=0.1, gain=GainSpec(2.0), modes=10.0)

    @pytest.mark.parametrize("field,name", [("ns", "signal brightness"),
                                            ("nb", "background brightness")])
    @pytest.mark.parametrize("bad", [10**400, np.array([1, 10**400], dtype=object),
                                     np.float32("inf")], ids=["1e400", "object", "f32inf"])
    def test_rejects_what_float64_cannot_hold_as_a_value_error(self, field, name, bad):
        with pytest.raises(ValueError) as excinfo:
            params(**{field: bad})
        named = np.ravel(bad).tolist()[-1]  # each input's first bad element is its last
        assert str(excinfo.value) == f"{name} must be finite and >= 0, got {named}"

    @pytest.mark.parametrize("bad", [True, np.True_, np.array([True, True]), [3, True], (True, 2),
                                     [[3, True]], np.array([3, True], dtype=object)], ids=repr)
    def test_refuses_bools_as_mode_counts(self, bad):
        with pytest.raises(ValueError, match="^mode count must be a positive integer, got True$"):
            params(modes=bad)

    @pytest.mark.parametrize("field,name", [("ns", "signal brightness"),
                                            ("nb", "background brightness"),
                                            ("kappa", "reflectance")])
    @pytest.mark.parametrize("bad", [True, False, np.True_, np.False_, np.array([True, False]),
                                     [1.0, True], (False, 0.5), [[0.5, np.True_]],
                                     np.array([0.5, True], dtype=object)], ids=repr)
    def test_refuses_bools_as_reals(self, field, name, bad):
        # numpy reads a bool as 1.0 or 0.0, also inside a list
        with pytest.raises(ValueError) as excinfo:
            params(**{field: bad})
        assert str(excinfo.value) == f"{name} must be a real number, not a bool, got {bad!r}"

    @pytest.mark.parametrize("field", ["ns", "nb", "kappa"])
    @pytest.mark.parametrize("kind", [list, tuple])
    def test_a_sequence_field_is_evaluated_as_an_array(self, field, kind):
        values = [0.2, 0.5]
        p = params(**{field: kind(values)})
        assert isinstance(getattr(p, {"ns": "n_s", "nb": "n_b"}.get(field, field)), np.ndarray)
        report, regime, csh = detection_report(p), classify_regime(p), snr_csh_closed_form(p)
        for i, value in enumerate(values):
            point = params(**{field: value})
            assert report.p_error[i] == detection_report(point).p_error
            assert regime.ratio[i] == classify_regime(point).ratio
            assert csh[i] == snr_csh_closed_form(point)

    def test_scalar_fields_are_kept_as_given(self):
        p = ScenarioParams(n_s=1, n_b=np.float32(0.5), kappa=0.25, gain=GainSpec(2), modes=10)
        assert (type(p.n_s), type(p.n_b), type(p.kappa), type(p.gain.linear)) == (
            int, np.float32, float, int)

    @pytest.mark.parametrize("modes", [100, np.int64(100), np.uint16(100), np.array(100)],
                             ids=repr)
    def test_accepts_python_and_numpy_integer_mode_counts(self, modes):
        assert params(modes=modes).clt_reliable

    @pytest.mark.parametrize("modes", [[3, np.int64(4)], np.array([3, 4]), [2**70], np.uint8(3)],
                             ids=repr)
    def test_accepts_integer_mode_counts_in_lists_arrays_and_numpy_scalars(self, modes):
        assert params(modes=modes).modes is modes

    def test_boundary_values_allowed(self):
        params(ns=0.0)  # vacuum probe
        params(kappa=0.0)  # fully hidden target

    def test_clt_flag(self):
        assert not params(modes=99).clt_reliable
        assert params(modes=100).clt_reliable


class TestHypothesisCovariances:
    @pytest.mark.parametrize("ns", [0.01, 0.5, 2.0])
    @pytest.mark.parametrize("nb", [0.5, 10.0])
    @pytest.mark.parametrize("kappa", [1e-3, 0.1])
    @pytest.mark.parametrize("g", [1.0, 2.0, 5.623])
    def test_composition_matches_direct_forms(self, ns, nb, kappa, g):
        v0, v1 = hypothesis_covariances(params(ns, nb, kappa, g))
        assert np.allclose(v0.matrix, absent_covariance(ns, nb, g), rtol=1e-12, atol=1e-12)
        assert np.allclose(v1.matrix, present_covariance(ns, nb, kappa, g), rtol=1e-12, atol=1e-12)

    def test_hidden_target_collapses_hypotheses(self):
        v0, v1 = hypothesis_covariances(params(kappa=0.0))
        assert np.array_equal(v0.matrix, v1.matrix)

    def test_spec_point_entries(self):
        _, v1 = hypothesis_covariances(params(ns=1.0, nb=1.0, kappa=0.01, g=2.0))
        assert v1.matrix[0, 0] == pytest.approx(1.51, rel=1e-14)
        assert v1.matrix[2, 2] == pytest.approx(6.0, rel=1e-14)

    def test_absent_state_is_uncorrelated(self):
        v0, _ = hypothesis_covariances(params())
        cc = cross_correlations(v0)
        assert cc.picc == 0.0 and cc.pscc == 0.0

    @pytest.mark.parametrize("ns", [np.int64(1), np.float32(0.5), np.array(0.5)], ids=repr)
    def test_takes_every_brightness_the_scenario_takes(self, ns):
        # detection_report already accepts these; the covariance route must too
        p = params(ns=ns)
        detection_report(p)
        for v, ref in zip(hypothesis_covariances(p), hypothesis_covariances(params(float(ns)))):
            assert np.array_equal(v.matrix, ref.matrix)


class TestCountDifferenceStats:
    def test_vacuum_counts_nothing(self):
        stats = count_difference_stats(balanced_beam_splitter(
            hypothesis_covariances(params(ns=0.0, nb=0.0, kappa=0.0, g=1.0))[0]))
        assert stats == CountStats(mean=0.0, variance=0.0)

    @pytest.mark.parametrize("ns,nb,g", [(1.0, 1.0, 1.0), (0.5, 2.0, 2.0), (2.0, 0.5, 5.623)])
    def test_absent_hypothesis_closed_form(self, ns, nb, g):
        nu, _, omega, _ = symbols(ns, nb, 0.0)
        s0, _ = per_mode_count_stats(params(ns, nb, 0.01, g))
        assert s0.mean == 0.0
        expected = nu * omega * (g**2 + g**-2) / 4.0 - 0.5
        assert s0.variance == pytest.approx(expected, rel=1e-12)

    def test_absent_hypothesis_spec_value(self):
        s0, _ = per_mode_count_stats(params(ns=1.0, nb=1.0, kappa=0.01, g=1.0))
        assert s0.variance == pytest.approx(4.0, rel=1e-12)

    def test_present_hypothesis_mean_closed_form(self):
        _, s1 = per_mode_count_stats(params(ns=1.0, nb=1.0, kappa=0.01, g=2.0))
        assert s1.mean == pytest.approx(0.21213203435596428, rel=1e-12)

    @pytest.mark.parametrize("ns,nb,kappa,g", [
        (0.3, 0.8, 0.05, 1.7), (1.0, 1.0, 0.01, 2.0), (0.1, 5.0, 0.3, 4.0),
    ])
    def test_mean_is_interference_signature(self, ns, nb, kappa, g):
        # mean count difference equals twice the real part of <a_R^dag a_I>
        _, v1 = hypothesis_covariances(params(ns, nb, kappa, g))
        _, s1 = per_mode_count_stats(params(ns, nb, kappa, g))
        assert s1.mean == pytest.approx(2.0 * cross_correlations(v1).picc.real, abs=1e-12)


class TestDetectionReport:
    def test_hidden_target_is_a_coin_flip(self):
        assert detection_report(params(kappa=0.0)).p_error == 0.5

    def test_threshold_matches_per_mode_stats(self):
        p = params()
        s0, s1 = per_mode_count_stats(p)
        sd0, sd1 = math.sqrt(s0.variance), math.sqrt(s1.variance)
        expected = p.modes * (s0.mean * sd1 + s1.mean * sd0) / (sd0 + sd1)
        assert detection_report(p).threshold == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("ns", [0.01, 0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("nb", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("kappa", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("g", [1.5, 5.623, 31.62])
    def test_closed_form_snr_equals_pipeline_without_ordering_terms(self, ns, nb, kappa, g):
        p = params(ns, nb, kappa, g)
        report = detection_report(p)
        s0, s1 = per_mode_count_stats(p)
        # restore the additive -1/2 operator-ordering corrections
        sd0 = math.sqrt(s0.variance + 0.5)
        sd1 = math.sqrt(s1.variance + 0.5)
        reconstructed = (s1.mean - s0.mean) ** 2 / (sd0 + sd1) ** 2
        assert report.snr_closed_form == pytest.approx(reconstructed, rel=1e-12)

    def test_two_snr_conventions_differ_by_ordering_terms_only(self):
        # with full variances the gap stays below 2% once the counts are noisy
        for ns in (0.1, 1.0, 10.0):
            for nb in (1.0, 10.0, 100.0):
                p = params(ns, nb, 1e-2, 5.623)
                nu, _, omega, _ = symbols(ns, nb, 0.0)
                if nu * omega * (5.623**2 + 5.623**-2) / 4.0 < 25.0:
                    continue
                report = detection_report(p)
                gap = abs(report.snr_closed_form - 2.0 * report.snr_first_principles)
                assert gap / report.snr_closed_form < 0.02

    def test_error_probability_at_snr_four_over_m(self):
        # tune kappa so that modes * snr_first_principles == 4 exactly
        modes = 10_000
        def excess(kappa):
            p = params(0.5, 2.0, kappa, G15.linear, modes)
            return modes * detection_report(p).snr_first_principles - 4.0
        kappa = brentq(excess, 1e-6, 0.9, xtol=1e-15)
        p_error = detection_report(params(0.5, 2.0, kappa, G15.linear, modes)).p_error
        assert p_error == pytest.approx(math.erfc(2.0) / 2.0, rel=1e-9)

    def test_error_probability_strictly_decreases_with_modes(self):
        values = [
            detection_report(params(0.1, 10.0, 0.05, 5.623, m)).p_error
            for m in (50, 100, 200, 400, 800)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGainPrefactor:
    def test_zero_without_amplification(self):
        assert gain_prefactor(GainSpec(1.0)) == 0.0

    def test_fifteen_db_value(self):
        value = gain_prefactor(GainSpec(5.6234))
        assert value == pytest.approx(0.9368173319754628, rel=1e-12)
        assert abs(value - 0.93675) < 1e-4

    def test_approaches_unity(self):
        assert gain_prefactor(GainSpec(1e6)) > 1.0 - 1e-11

    def test_monotone_and_bounded(self):
        gains = np.geomspace(1.0, 1e3, 200)
        values = [gain_prefactor(GainSpec(float(g))) for g in gains]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < 1.0 for v in values)


class TestClosedFormSnrs:
    def test_zero_prefactor_kills_qi(self):
        assert snr_qi_closed_form(params(g=1.0)) == 0.0

    def test_low_signal_strong_background_asymptote(self):
        p = params(ns=1e-4, nb=100.0, kappa=1e-3, g=100.0)
        assert snr_qi_closed_form(p) == pytest.approx(1e-3 * 1e-4 / 200.0, rel=0.02)

    def test_bright_signal_saturation(self):
        p = params(ns=1e9, nb=100.0, kappa=1e-3, g=1000.0)
        assert snr_qi_closed_form(p) == pytest.approx(0.5, rel=0.05)

    def test_qi_monotone_in_gain_and_reflectance(self):
        base = dict(ns=0.1, nb=10.0)
        qi_g = [snr_qi_closed_form(params(**base, kappa=0.01, g=g))
                for g in (1.0, 1.5, 2.0, 5.0, 31.62)]
        assert all(b >= a for a, b in zip(qi_g, qi_g[1:]))
        qi_k = [snr_qi_closed_form(params(**base, kappa=k, g=2.0))
                for k in (1e-4, 1e-3, 1e-2, 0.1, 0.5)]
        assert all(b >= a for a, b in zip(qi_k, qi_k[1:]))

    def test_benchmark_values(self):
        assert snr_csh_closed_form(params(ns=1.0, nb=0.0, kappa=0.3)) == pytest.approx(0.15, rel=1e-15)
        assert snr_csh_closed_form(params(ns=1.0, nb=100.0, kappa=1e-3)) == pytest.approx(
            1e-3 / 402.0, rel=1e-15
        )
        # strong-background approximation kappa*n_s/(4 n_b) is 1%-accurate at n_b = 100
        exact = snr_csh_closed_form(params(ns=1.0, nb=100.0, kappa=1e-3))
        assert exact == pytest.approx(1e-3 / 400.0, rel=0.01)


class TestRegimeClassification:
    def test_advantage_point_doubles_benchmark(self):
        report = classify_regime(params(ns=1e-3, nb=100.0, kappa=1e-3, g=G15.linear))
        assert report.regime is Regime.QUANTUM_ADVANTAGE
        assert report.ratio == pytest.approx(2.0, rel=0.1)

    def test_parity_point(self):
        report = classify_regime(params(ns=100.0, nb=100.0, kappa=1e-3, g=G15.linear))
        assert report.regime is Regime.PARITY
        assert report.ratio == pytest.approx(1.0, rel=0.1)

    def test_bright_signal_disadvantage(self):
        report = classify_regime(params(ns=1e7, nb=100.0, kappa=1e-3, g=G15.linear))
        assert report.regime is Regime.DISADVANTAGE
        assert report.ratio < 1.0

    def test_boundaries(self):
        assert classify_regime(params(ns=0.999, nb=1.0, kappa=0.1)).regime is Regime.QUANTUM_ADVANTAGE
        assert classify_regime(params(ns=1.0, nb=1.0, kappa=0.1)).regime is Regime.PARITY
        assert classify_regime(params(ns=10.0, nb=1.0, kappa=0.1)).regime is Regime.PARITY
        assert classify_regime(params(ns=10.1, nb=1.0, kappa=0.1)).regime is Regime.DISADVANTAGE

    def test_hidden_target_ratio_undefined(self):
        assert math.isnan(classify_regime(params(kappa=0.0)).ratio)
