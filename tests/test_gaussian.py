import math

import numpy as np
import pytest

from qillum.gaussian import (
    SYMPLECTIC_FORM,
    GainSpec,
    TwoModeCovariance,
    amplify_mode,
    apply_target_channel,
    balanced_beam_splitter,
    cross_correlations,
    min_ppt_symplectic_eigenvalue,
    random_two_mode_symplectic,
    symplectic_eigenvalues,
    tmsv_covariance,
)

SQRT2 = math.sqrt(2.0)


def mode_photon_numbers(state):
    """Mean photon number of each mode, (V_qq + V_pp - 1)/2."""
    m = state.matrix
    return (m[0, 0] + m[1, 1] - 1.0) / 2.0, (m[2, 2] + m[3, 3] - 1.0) / 2.0


def rotate_phase(state, theta):
    """Common phase shift a_j -> exp(i*theta) a_j applied to both modes."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.kron(np.eye(2), [[c, -s], [s, c]])
    m = rot @ state.matrix @ rot.T
    return TwoModeCovariance((m + m.T) / 2.0)


def abs_sympl_spectrum(matrix):
    """Independent route: |eigenvalues| of i*Omega*V, computed inline."""
    return np.sort(np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ matrix)))


class TestTmsvCovariance:
    def test_vacuum_limit(self):
        assert np.array_equal(tmsv_covariance(0.0).matrix, np.eye(4) / 2.0)

    def test_entries_at_unit_brightness(self):
        v = tmsv_covariance(1.0).matrix
        c = 2.0 * SQRT2
        expected = 0.5 * np.array(
            [[3, 0, c, 0], [0, 3, 0, -c], [c, 0, 3, 0], [0, -c, 0, 3]]
        )
        assert np.allclose(v, expected, rtol=0.0, atol=1e-15)
        # c = 2*sqrt(n_s*(n_s+1)) = 2.828427...; entry carries the global 1/2
        assert c == pytest.approx(2.8284271247461903, abs=1e-15)
        assert v[0, 2] == pytest.approx(c / 2.0, abs=1e-15)

    def test_pure_state_symplectic_eigenvalues(self):
        # oracle: eigenvalues of i*Omega*V evaluated directly
        spectrum = abs_sympl_spectrum(tmsv_covariance(0.5).matrix)
        assert np.allclose(spectrum, 0.5, atol=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, math.nan, math.inf,
                                     np.float32("nan"), np.int64(-1), np.array(-0.5),
                                     # past float64's range: a ValueError, not an OverflowError
                                     pytest.param(10**400, id="1e400"),
                                     pytest.param(-(10**400), id="-1e400"),
                                     pytest.param(np.array(10**400, dtype=object), id="object"),
                                     pytest.param(np.float32("inf"), id="f32inf")])
    def test_rejects_bad_brightness(self, bad):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            tmsv_covariance(bad)

    @pytest.mark.parametrize("n_s", [np.int64(1), np.float32(0.5), np.array(0.5), np.uint8(2)],
                             ids=repr)
    def test_accepts_numpy_scalars(self, n_s):
        assert np.array_equal(tmsv_covariance(n_s).matrix, tmsv_covariance(float(n_s)).matrix)

    def test_accepts_ints_past_int64_within_float64(self):
        assert np.array_equal(tmsv_covariance(2**70).matrix, tmsv_covariance(2.0**70).matrix)

    @pytest.mark.parametrize("bad", ["0.5", None, 0.5j, np.array([0.5])], ids=repr)
    def test_names_a_wrong_type(self, bad):
        with pytest.raises(ValueError, match="must be a real scalar, got"):
            tmsv_covariance(bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, np.array(True)], ids=repr)
    def test_refuses_a_bool(self, bad):
        # a bool is no photon number: True once gave a diagonal of 1.5
        with pytest.raises(ValueError, match=r"^mean photon number must be a real"):
            tmsv_covariance(bad)


class TestValidation:
    def test_rejects_uncertainty_violation(self):
        with pytest.raises(ValueError, match="uncertainty"):
            TwoModeCovariance(0.4 * np.eye(4))

    def test_rejects_asymmetric(self):
        m = np.eye(4) / 2.0
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            TwoModeCovariance(m)

    def test_rejects_wrong_shape_and_nonfinite(self):
        with pytest.raises(ValueError):
            TwoModeCovariance(np.eye(3))
        m = np.eye(4)
        m[0, 0] = math.nan
        with pytest.raises(ValueError):
            TwoModeCovariance(m)

    def test_matrix_is_read_only(self):
        v = tmsv_covariance(1.0)
        with pytest.raises(ValueError):
            v.matrix[0, 0] = 7.0

    def test_mode_photon_numbers(self):
        n1, n2 = mode_photon_numbers(tmsv_covariance(0.7))
        assert n1 == pytest.approx(0.7, abs=1e-14)
        assert n2 == pytest.approx(0.7, abs=1e-14)


class TestGainSpec:
    def test_db_conversion(self):
        assert GainSpec.from_db(15.0).linear == pytest.approx(5.623413251903491, rel=1e-15)
        assert GainSpec(10.0).db == pytest.approx(20.0, abs=1e-13)
        assert GainSpec(1.0).db == 0.0

    def test_db_broadcasts_per_element(self):
        gains = np.array([1.0, 1.5, 2.0, 5.623413251903491, 31.62, 1e3])
        db = GainSpec(gains).db
        assert db.shape == gains.shape
        assert db.tolist() == [GainSpec(g).db for g in gains.tolist()]
        # a scalar gain keeps its exact Python-float dB value
        for g in gains.tolist():
            assert type(GainSpec(g).db) is float
            assert GainSpec(g).db == 20.0 * math.log10(g)

    def test_from_db_takes_a_scalars_arithmetic_per_element(self):
        # Python's pow per element: numpy's array pow rounds some G apart
        db = np.linspace(0.0, 30.0, 3001)
        linear = GainSpec.from_db(db).linear
        assert isinstance(linear, np.ndarray) and linear.shape == db.shape
        assert linear.tolist() == [GainSpec.from_db(x).linear for x in db.tolist()]
        assert linear.tolist() == [10.0 ** (x / 20.0) for x in db.tolist()]
        assert type(GainSpec.from_db(15.0).linear) is float
        assert GainSpec.from_db(np.float64(15.0)).linear == GainSpec.from_db(15.0).linear

    @pytest.mark.parametrize("db", [1e4, np.array([3.0, 1e5])], ids=repr)
    def test_from_db_past_float64_names_inf(self, db):
        with pytest.raises(ValueError, match=r"^gain must be finite and >= 1, got inf$"):
            GainSpec.from_db(db)

    @pytest.mark.parametrize("bad", [True, np.True_, np.array([True]), [2.0, True],
                                     np.array([2.0, True], dtype=object)], ids=repr)
    def test_refuses_a_bool(self, bad):
        with pytest.raises(ValueError, match=r"^gain must be a real number, not a bool, got "):
            GainSpec(bad)
        with pytest.raises(ValueError, match=r"^gain in dB must be a real number, not a bool"):
            GainSpec.from_db(bad)

    def test_a_list_of_gains_becomes_an_array(self):
        gain = GainSpec([1.0, 2.0])
        assert isinstance(gain.linear, np.ndarray) and gain.db.tolist() == [0.0, GainSpec(2.0).db]

    @pytest.mark.parametrize("bad", [0.5, 0.999999, 0.0, -2.0, math.nan])
    def test_rejects_attenuation(self, bad):
        with pytest.raises(ValueError):
            GainSpec(bad)

    @pytest.mark.parametrize("bad", [10**400, np.array([2, 10**400], dtype=object),
                                     np.float32("inf"), np.array([2.0, np.inf], dtype=np.float32)],
                             ids=["1e400", "object", "f32inf", "f32array"])
    def test_rejects_what_float64_cannot_hold_as_a_value_error(self, bad):
        named = np.ravel(bad).tolist()[-1]  # each input's first bad element is its last
        with pytest.raises(ValueError) as excinfo:
            GainSpec(bad)
        assert str(excinfo.value) == f"gain must be finite and >= 1, got {named}"


class TestAmplifyMode:
    def test_unit_gain_is_identity(self, random_state_factory):
        v = random_state_factory()
        out = amplify_mode(v, 2, GainSpec(1.0))
        assert np.allclose(out.matrix, v.matrix, rtol=0.0, atol=1e-15)

    def test_amplified_idler_entries(self):
        out = amplify_mode(tmsv_covariance(1.0), 2, GainSpec(2.0)).matrix
        assert out[0, 2] == pytest.approx(2.8284271247461903, rel=1e-15)  # G*c/2
        assert out[1, 3] == pytest.approx(-0.7071067811865476, rel=1e-15)  # -c/(2G)
        assert out[2, 2] == pytest.approx(6.0, rel=1e-15)  # G^2*nu/2
        assert out[3, 3] == pytest.approx(0.375, rel=1e-15)  # nu/(2*G^2)

    @pytest.mark.parametrize("gain", [1.0, 2.0, 5.623, 31.62])
    def test_preserves_symplectic_spectrum(self, gain, random_state_factory):
        v = random_state_factory()
        before = abs_sympl_spectrum(v.matrix)
        after = abs_sympl_spectrum(amplify_mode(v, 2, GainSpec(gain)).matrix)
        assert np.allclose(before, after, rtol=1e-10, atol=1e-12)

    def test_mode_one_amplification(self):
        out = amplify_mode(tmsv_covariance(1.0), 1, GainSpec(3.0)).matrix
        assert out[0, 0] == pytest.approx(13.5, rel=1e-15)  # G^2*nu/2

    def test_rejects_bad_mode_index(self):
        with pytest.raises(ValueError):
            amplify_mode(tmsv_covariance(1.0), 3, GainSpec(2.0))


class TestTargetChannel:
    def test_zero_reflectance_hides_target(self):
        probe = amplify_mode(tmsv_covariance(1.0), 2, GainSpec(2.0))
        absent = apply_target_channel(probe, 0.0, 1.0, target_present=False)
        present = apply_target_channel(probe, 0.0, 1.0, target_present=True)
        assert np.allclose(present.matrix, absent.matrix, rtol=0.0, atol=1e-15)

    def test_present_entries(self):
        probe = amplify_mode(tmsv_covariance(1.0), 2, GainSpec(2.0))
        out = apply_target_channel(probe, 0.01, 1.0, target_present=True).matrix
        assert out[0, 2] == pytest.approx(0.28284271247461906, rel=1e-13)  # sqrt(k)*G*c/2
        assert out[0, 0] == pytest.approx(1.51, rel=1e-14)  # gamma/2
        assert out[2, 2] == pytest.approx(6.0, rel=1e-15)  # idler untouched

    def test_absent_is_thermal_product(self):
        probe = amplify_mode(tmsv_covariance(1.0), 2, GainSpec(2.0))
        out = apply_target_channel(probe, 0.3, 2.0, target_present=False).matrix
        assert np.allclose(out[:2, :2], 2.5 * np.eye(2), atol=1e-15)
        assert np.all(out[:2, 2:] == 0.0)

    def test_received_brightness_matches_both_hypotheses(self):
        # the compensated background removes any passive signature
        probe = amplify_mode(tmsv_covariance(0.5), 2, GainSpec(2.0))
        absent = apply_target_channel(probe, 0.1, 0.5, target_present=False)
        present = apply_target_channel(probe, 0.1, 0.5, target_present=True)
        n_absent = mode_photon_numbers(absent)[0]
        n_present = mode_photon_numbers(present)[0]
        assert n_absent == pytest.approx(0.5, abs=1e-14)
        assert n_present == pytest.approx(0.1 * 0.5 + 0.5, abs=1e-14)

    def test_rejects_bad_reflectance(self):
        probe = tmsv_covariance(1.0)
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                apply_target_channel(probe, bad, 1.0, target_present=True)
        with pytest.raises(ValueError):
            apply_target_channel(probe, 1.0, 1.0, target_present=True)
        # full reflectance without compensation is well defined
        apply_target_channel(probe, 1.0, 1.0, target_present=False)

    def test_refuses_a_bool(self):
        probe = tmsv_covariance(1.0)
        with pytest.raises(ValueError, match=r"^reflectance must be a real number, not a bool"):
            apply_target_channel(probe, True, 1.0, target_present=False)
        with pytest.raises(ValueError, match=r"^background brightness must be a real number"):
            apply_target_channel(probe, 0.5, np.False_, target_present=True)


class TestBalancedBeamSplitter:
    def test_vacuum_passes_through(self):
        out = balanced_beam_splitter(tmsv_covariance(0.0))
        assert np.allclose(out.matrix, np.eye(4) / 2.0, atol=1e-15)

    def test_absent_hypothesis_entry(self):
        ns, nb, g = 1.0, 1.0, 2.0
        nu, omega = 2.0 * ns + 1.0, 2.0 * nb + 1.0
        probe = amplify_mode(tmsv_covariance(ns), 2, GainSpec(g))
        received = apply_target_channel(probe, 0.01, nb, target_present=False)
        out = balanced_beam_splitter(received).matrix
        assert out[0, 0] == pytest.approx((omega + g**2 * nu) / 4.0, rel=1e-14)

    def test_conserves_total_photon_number(self, random_state_factory):
        for _ in range(200):
            v = random_state_factory()
            out = balanced_beam_splitter(v)
            assert sum(mode_photon_numbers(out)) == pytest.approx(
                sum(mode_photon_numbers(v)), abs=1e-12
            )


class TestCrossCorrelations:
    def test_vacuum_is_uncorrelated(self):
        cc = cross_correlations(tmsv_covariance(0.0))
        assert cc.picc == 0.0 and cc.pscc == 0.0

    def test_source_correlations(self):
        ns = 1.0
        c = 2.0 * math.sqrt(ns * (ns + 1.0))
        cc = cross_correlations(tmsv_covariance(ns))
        assert cc.picc == pytest.approx(0.0, abs=1e-15)
        assert cc.pscc == pytest.approx(c / 2.0, rel=1e-15)

    @pytest.mark.parametrize("gain", [1.0, 2.0, 5.623413251903491])
    def test_amplification_creates_phase_insensitive_correlation(self, gain):
        ns = 1.0
        c = 2.0 * math.sqrt(ns * (ns + 1.0))
        amplified = amplify_mode(tmsv_covariance(ns), 2, GainSpec(gain))
        cc = cross_correlations(amplified)
        assert cc.picc == pytest.approx((gain - 1.0 / gain) * c / 4.0, abs=1e-14)

    def test_picc_bounded_by_mode_occupations(self, random_state_factory):
        for _ in range(100):
            v = random_state_factory()
            n1, n2 = mode_photon_numbers(v)
            assert abs(cross_correlations(v).picc) <= math.sqrt(n1 * n2) + 1e-9

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.2, -0.7])
    def test_phase_rotation_behavior(self, theta, random_state_factory):
        v = random_state_factory()
        before = cross_correlations(v)
        after = cross_correlations(rotate_phase(v, theta))
        assert after.picc == pytest.approx(before.picc, abs=1e-12)
        expected = before.pscc * np.exp(2j * theta)
        assert after.pscc == pytest.approx(expected, abs=1e-12)


class TestPptEigenvalue:
    @pytest.mark.parametrize("ns", [1e-3, 0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("gain", [1.0, 2.0, 5.623, 31.62, 100.0])
    def test_closed_form_independent_of_gain(self, ns, gain):
        state = amplify_mode(tmsv_covariance(ns), 2, GainSpec(gain))
        value = min_ppt_symplectic_eigenvalue(state)
        closed_form = 0.5 / (math.sqrt(ns) + math.sqrt(ns + 1.0)) ** 2
        assert value == pytest.approx(closed_form, rel=1e-10)
        assert value < 0.5

    def test_unit_brightness_value(self):
        state = amplify_mode(tmsv_covariance(1.0), 2, GainSpec(2.0))
        assert min_ppt_symplectic_eigenvalue(state) == pytest.approx(0.0857864376269049, rel=1e-10)

    def test_vacuum_sits_on_separability_boundary(self):
        assert min_ppt_symplectic_eigenvalue(tmsv_covariance(0.0)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("nb", [0.0, 0.5, 5.0])
    def test_thermal_product_states_are_separable(self, nb):
        state = TwoModeCovariance(np.diag(np.repeat(2.0 * nb + 1.0, 4)) / 2.0)
        assert min_ppt_symplectic_eigenvalue(state) >= 0.5 - 1e-12


class TestSymplecticMachinery:
    def test_random_symplectic_preserves_form(self, rng):
        for _ in range(50):
            s = random_two_mode_symplectic(rng)
            assert np.allclose(s @ SYMPLECTIC_FORM @ s.T, SYMPLECTIC_FORM, atol=1e-12)

    def test_symplectic_eigenvalues_of_thermal_state(self):
        m = np.diag([1.5, 1.5, 2.5, 2.5])
        assert np.allclose(symplectic_eigenvalues(m), [1.5, 2.5], atol=1e-12)

    def test_physicality_preserved_by_pipeline(self, random_state_factory):
        # every op revalidates its output on construction; also check explicitly
        for _ in range(50):
            v = random_state_factory()
            for out in (
                amplify_mode(v, 2, GainSpec(3.0)),
                balanced_beam_splitter(v),
                apply_target_channel(v, 0.2, 1.0, target_present=True),
                apply_target_channel(v, 0.2, 1.0, target_present=False),
                rotate_phase(v, 0.9),
            ):
                assert abs_sympl_spectrum(out.matrix)[0] >= 0.5 - 1e-9
