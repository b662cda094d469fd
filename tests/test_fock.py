import math

import mpmath
import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from qillum.fock import (
    LEAKAGE_WARNING_THRESHOLD,
    MAX_SQUEEZE_WORK,
    SqueezerTooLarge,
    _bessel_j,
    _bs_sector_unitary,
    _expm_chain,
    _signal_idler_amplitudes,
    _squeeze_block,
    _work_dims,
    receiver_count_moments,
    squeeze_exponential,
    squeeze_operator,
    thermal_probabilities,
    tmsv_state,
)
from qillum.gaussian import (
    GainSpec,
    amplify_mode,
    balanced_beam_splitter,
    min_ppt_symplectic_eigenvalue,
    tmsv_covariance,
)
from qillum.illumination import ScenarioParams, count_difference_stats, hypothesis_covariances


def params(ns, nb, kappa, g, modes=1):
    return ScenarioParams(n_s=ns, n_b=nb, kappa=kappa, gain=GainSpec(g), modes=modes)


def gaussian_receiver_stats(p, target_present):
    v0, v1 = hypothesis_covariances(p)
    return count_difference_stats(balanced_beam_splitter(v1 if target_present else v0))


def sector_reference(n_total, theta):
    """The beam-splitter sector U_N, basis |k, N - k>, exponentiated as one
    generator chain through a tridiagonal eigenproblem."""
    k = np.arange(n_total)
    return _expm_chain(theta * np.sqrt((k + 1.0) * (n_total - k)))


def sector_50_digits(n_total, theta, idx):
    """U_N[r, k] at r, k in ``idx`` from the binomial closed form, to 50 digits:
    sum_i C(k, i) c^i (-s)^(k-i) C(N-k, r-i) s^(r-i) c^(N-k-r+i) sqrt(r! (N-r)! / (k! (N-k)!))
    with c, s the cosine and sine of the float ``theta``."""
    with mpmath.workdps(50):
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        c_pow = [c**j for j in range(n_total + 1)]
        s_pow = [s**j for j in range(n_total + 1)]
        out = np.empty((len(idx), len(idx)))
        for a, r in enumerate(idx):
            for b, k in enumerate(idx):
                total = mpmath.fsum(
                    (-1) ** (k - i) * math.comb(k, i) * math.comb(n_total - k, r - i)
                    * c_pow[n_total - k - r + 2 * i] * s_pow[k + r - 2 * i]
                    for i in range(max(0, r + k - n_total), min(k, r) + 1))
                norm = mpmath.mpf(math.factorial(r) * math.factorial(n_total - r)) / (
                    math.factorial(k) * math.factorial(n_total - k))
                out[a, b] = total * mpmath.sqrt(norm)
        return out


def branch_blocks(p, dims, target_present):
    """Yield matrices Q_k whose Gram sum is the received-idler state.

    The dense reference for the oracle's reduced sums: each block is real
    with row index (received * dims.idler + idler), and sum_k Q_k Q_k^T
    equals the two-mode density matrix in the working box.
    """
    psi = _signal_idler_amplitudes(p, dims)
    if not target_present:
        probs = thermal_probabilities(p.n_b, dims.received)
        for m in range(dims.received):
            block = np.zeros((dims.received * dims.idler, dims.signal))
            block[m * dims.idler : (m + 1) * dims.idler, :] = math.sqrt(probs[m]) * psi.T
            yield block
        return
    theta = math.acos(math.sqrt(p.kappa))
    sectors = [sector_reference(n, theta) for n in range(dims.signal + dims.ancilla - 1)]
    probs = thermal_probabilities(p.n_b / (1.0 - p.kappa), dims.ancilla)
    for n in range(dims.ancilla):
        width = n + dims.signal
        phi = np.zeros((dims.received, dims.idler, width))
        for s in range(dims.signal):
            n_total = s + n
            column = sectors[n_total][:, s]
            r = np.arange(min(n_total, dims.received - 1) + 1)
            phi[r, :, n_total - r] += column[r, None] * psi[s][None, :]
        yield math.sqrt(probs[n]) * phi.reshape(dims.received * dims.idler, width)


def operator_moments(p, dim, target_present):
    """Mean, variance and trace of N+ - N- = a_R^dag a_I + a_I^dag a_R as an
    explicit matrix on the working box, applied to every branch block."""
    dims = _work_dims(dim)
    a_r = sparse.diags(np.sqrt(np.arange(1.0, dims.received)), 1)
    a_i = sparse.diags(np.sqrt(np.arange(1.0, dims.idler)), 1)
    cross = sparse.kron(a_r.T, a_i, format="csr")
    w = cross + cross.T
    mean = second = trace = 0.0
    for block in branch_blocks(p, dims, target_present):
        wq = w @ block
        mean += float(np.sum(block * wq))
        second += float(np.sum(wq * wq))
        trace += float(np.sum(block * block))
    return mean, second - mean**2, trace


def pure_state_log_negativity(amps):
    """log2 ||rho^T2||_1 of the pure state sum amps[n, m] |n, m>: 2 log2 of
    the summed Schmidt coefficients (the singular values of ``amps``)."""
    return 2.0 * math.log2(np.linalg.svd(amps, compute_uv=False).sum())


class TestBuildingBlocks:
    def test_thermal_probabilities_geometric(self):
        probs = thermal_probabilities(2.0, 50)
        assert probs[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert probs[10] / probs[9] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert probs.sum() == pytest.approx(1.0 - (2.0 / 3.0) ** 50, rel=1e-12)

    def test_thermal_probabilities_vacuum(self):
        probs = thermal_probabilities(0.0, 8)
        assert probs[0] == 1.0 and probs[1:].sum() == 0.0

    def test_tmsv_photon_correlations(self):
        # oracle: direct sums over the analytic Schmidt weights (1-l^2) l^(2n)
        ns, dim = 0.5, 25
        lam2 = ns / (ns + 1.0)
        weights = (1 - lam2) * lam2 ** np.arange(dim)
        expected_occupation = float(np.arange(dim) @ weights)
        amps = tmsv_state(ns, dim)
        occupations = (amps**2).sum(axis=1) @ np.arange(dim)
        assert occupations == pytest.approx(expected_occupation, abs=1e-12)
        assert occupations == pytest.approx(ns, abs=1e-8)
        # perfect pairing: every Schmidt branch has n_signal == n_idler
        diff_moment = sum(
            (amps[n, m] ** 2) * (n - m) ** 2 for n in range(dim) for m in range(dim)
        )
        assert diff_moment == pytest.approx(0.0, abs=1e-8)

    def test_squeezer_is_unitary_on_truncated_generator(self):
        u = squeeze_exponential(math.log(2.0), 30)
        assert np.linalg.norm(u.T @ u - np.eye(30)) < 1e-8

    @pytest.mark.parametrize("g", [1.5, 2.0, 3.0])
    def test_squeezed_vacuum_position_variance_grows_as_gain_squared(self, g):
        dim = 80
        column = squeeze_operator(math.log(g), dim, 1)[:, 0]
        ladder = np.diag(np.sqrt(np.arange(1, dim)), 1)
        q = (ladder + ladder.T) / math.sqrt(2.0)
        variance = column @ (q @ q) @ column
        # 1e-6 slack covers the number tail clipped at dim; the opposite
        # sign convention would be off by a factor g^4
        assert variance == pytest.approx(g**2 / 2.0, rel=1e-6)

    @pytest.mark.parametrize("dim_out, dim_in, gain",
                             [(78, 30, 4.0), (108, 60, 3.0), (30, 30, 5.0), (56, 8, 10.0)])
    def test_squeeze_operator_holds_its_block_above_gain_2(self, dim_out, dim_in, gain):
        # 78 x 30 and 108 x 60 are the blocks the dim-30 and dim-60 oracles
        # use; a working space of twice the block folds amplitude back
        # (errors 0.2-0.4 here); the reference is the same exponential in a
        # space far wider than these gains need
        r = math.log(gain)
        reference = squeeze_exponential(r, 1000)[:dim_out, :dim_in]
        folded = squeeze_exponential(r, 2 * max(dim_out, dim_in))[:dim_out, :dim_in]
        assert np.abs(squeeze_operator(r, dim_out, dim_in) - reference).max() < 1e-12
        assert np.abs(folded - reference).max() > 0.1

    @pytest.mark.parametrize("dim_out, dim_in, gain",
                             [(30, 30, 1.5), (30, 30, 2.0), (108, 60, 1.9), (78, 30, 2.0)])
    def test_squeeze_operator_holds_its_block_up_to_gain_2(self, dim_out, dim_in, gain):
        # square blocks fold back at twice the block already (30 x 30 at
        # G = 2 is off by 0.1 there), so the gain rule applies at every gain
        r = math.log(gain)
        reference = squeeze_exponential(r, 600)[:dim_out, :dim_in]
        assert np.abs(squeeze_operator(r, dim_out, dim_in) - reference).max() < 1e-12

    def test_squeeze_operator_refuses_a_working_space_past_the_cap(self, monkeypatch):
        def build(r, dim, rows, cols):
            raise AssertionError(f"built a {dim}-dim squeezer")

        monkeypatch.setattr("qillum.fock._squeeze_block", build)
        with pytest.raises(SqueezerTooLarge, match=f"limit of {MAX_SQUEEZE_WORK}"):
            squeeze_operator(math.log(1000.0), 78, 30)

    @pytest.mark.parametrize("r", [0.0, math.log(1.1), math.log(2.0), -math.log(2.0),
                                   math.log(10.0), math.log(31.6)])
    @pytest.mark.parametrize("dim, rows, cols", [(3, 3, 1), (60, 31, 17), (216, 108, 60)])
    def test_squeeze_block_is_the_dense_exponential_cut(self, r, dim, rows, cols):
        # odd and even block edges, both signs of r, and r = 0 (the identity)
        reference = squeeze_exponential(r, dim)[:rows, :cols]
        assert np.abs(_squeeze_block(r, dim, rows, cols) - reference).max() < 1e-13

    def test_validate_builds_one_read_only_squeezer_block(self):
        p = params(0.3, 0.5, 0.2, 1.7)
        squeeze_operator.cache_clear()
        for present in (False, True):
            receiver_count_moments(p, 12, present)
        info = squeeze_operator.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not squeeze_operator(math.log(1.7), 60, 12).flags.writeable

    def test_oracle_makes_no_dense_eigensolve(self, monkeypatch):
        # a LAPACK eigh above 32 sites wakes the BLAS worker threads, which
        # then spin past the call; the oracle's path must not make one
        def eigh(*args, **kwargs):
            raise AssertionError("eigh on the oracle's path")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        squeeze_operator.cache_clear()
        for present in (False, True):
            receiver_count_moments(params(0.2, 0.5, 0.3, 2.0), 30, present)

    @pytest.mark.parametrize("x", [1e-3, 0.7, 12.0, 164.0, 400.0])
    def test_bessel_coefficients_against_50_digits(self, x):
        j = _bessel_j(x)
        with mpmath.workdps(50):
            reference = np.array([float(mpmath.besselj(k, x)) for k in range(len(j) + 5)])
        assert np.abs(j - reference[: len(j)]).max() < 1e-15
        assert np.abs(reference[len(j):]).max() < 1e-17


class TestExponentialsAgainstExpm:
    # expm is trusted to its own orthogonality defect, which reaches ~3e-12
    # at G = 31.6; the chain exponential stays orthogonal to ~1e-13

    @pytest.mark.parametrize("n_total", [0, 1, 2, 7, 30, 80, 150, 250])
    @pytest.mark.parametrize("theta", [0.1, math.pi / 4, 1.4, math.pi / 2, 1e-3])
    def test_beam_splitter_sector(self, n_total, theta):
        # the full sector, the last block of the recursion's stack; uncached,
        # since the stack reaches 126 MB at N = 250
        k = np.arange(n_total)
        lower = np.zeros((n_total + 1, n_total + 1))
        lower[k + 1, k] = theta * np.sqrt((k + 1.0) * (n_total - k))
        reference = expm(lower - lower.T)
        defect = np.abs(reference.T @ reference - np.eye(n_total + 1)).max()
        u = _bs_sector_unitary.__wrapped__(theta, n_total, n_total + 1, n_total + 1)[n_total]
        assert np.abs(u - reference).max() <= 1e-12 + defect
        assert np.abs(u.T @ u - np.eye(n_total + 1)).max() < 1e-13

    @pytest.mark.parametrize("n_total", [60, 100, 140])
    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 0.999])
    def test_beam_splitter_sector_against_50_digits(self, n_total, kappa):
        # a grid of ~16 x 16 entries spanning the whole sector; the closed
        # form's terms reach ~1e19 at kappa = 0.5, N = 140, so 50 digits
        # leave ~30 after cancellation
        theta = math.acos(math.sqrt(kappa))
        idx = sorted(set(range(0, n_total + 1, n_total // 15)) | {n_total})
        u = _bs_sector_unitary.__wrapped__(theta, n_total, n_total + 1, n_total + 1)[n_total]
        assert np.abs(u[np.ix_(idx, idx)] - sector_50_digits(n_total, theta, idx)).max() < 1e-13

    def test_beam_splitter_kept_block_matches_its_full_sectors(self):
        # the oracle's dim-30 box: 50 received rows, 30 signal columns
        theta = math.acos(math.sqrt(0.3))
        stack = _bs_sector_unitary.__wrapped__(theta, 78, 50, 30)
        assert not stack.flags.writeable
        for n_total in range(79):
            block = np.zeros((50, 30))
            full = sector_reference(n_total, theta)[:50, :30]
            block[: full.shape[0], : full.shape[1]] = full
            assert np.abs(stack[n_total] - block).max() < 1e-13

    @pytest.mark.parametrize("gain", [1.1, 2.0, 4.0, 10.0, 31.6])
    @pytest.mark.parametrize("dim", [3, 60, 108, 156, 216])
    def test_squeeze_exponential(self, gain, dim):
        r = math.log(gain)
        m = np.arange(dim - 2)
        lower = np.zeros((dim, dim))
        lower[m + 2, m] = 0.5 * r * np.sqrt((m + 1.0) * (m + 2.0))
        reference = expm(lower - lower.T)
        defect = np.abs(reference.T @ reference - np.eye(dim)).max()
        u = squeeze_exponential(r, dim)
        assert np.abs(u - reference).max() <= 1e-12 + defect
        assert np.abs(u.T @ u - np.eye(dim)).max() < 2e-13


class TestOracleState:
    def test_vacuum_pipeline_gives_vacuum(self):
        stats, leakage = receiver_count_moments(params(0.0, 0.0, 0.0, 1.0), 6, True)
        assert stats.mean == pytest.approx(0.0, abs=1e-14)
        assert stats.variance == pytest.approx(0.0, abs=1e-14)
        assert leakage < 1e-12

    def test_validation_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            receiver_count_moments(params(0.1, 0.5, 0.1, 2.0), 1, target_present=True)

    def test_leakage_decreases_with_dim(self):
        p = params(0.5, 1.0, 0.5, 2.0)
        leakages = [
            receiver_count_moments(p, dim, target_present=True)[1]
            for dim in (20, 25, 30, 35)
        ]
        assert all(a > b for a, b in zip(leakages, leakages[1:]))

    def test_leakage_warning_flag(self):
        _, small_box = receiver_count_moments(params(0.5, 1.0, 0.5, 2.0), 12, True)
        _, roomy_box = receiver_count_moments(params(0.1, 0.25, 0.1, 1.0), 30, True)
        assert small_box > LEAKAGE_WARNING_THRESHOLD > roomy_box


class TestCountMoments:
    def test_vacuum_counts_nothing(self):
        stats, leakage = receiver_count_moments(params(0.0, 0.0, 0.0, 1.0), 6, False)
        assert stats.mean == pytest.approx(0.0, abs=1e-14)
        assert stats.variance == pytest.approx(0.0, abs=1e-14)
        assert leakage < 1e-12

    def test_thermal_pair_through_splitter(self):
        # without a target the received mode (n_b) and the idler (n_s) are
        # independent thermal modes; oracle: variance 2 n1 n2 + n1 + n2
        stats, leakage = receiver_count_moments(params(1.0, 1.0, 0.0, 1.0), 40, False)
        assert leakage < 1e-11
        assert stats.mean == pytest.approx(0.0, abs=1e-12)
        assert stats.variance == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("present", [False, True])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("g", [1.0, 1.7])
    def test_moments_match_explicit_interference_operator(self, g, kappa, present):
        p = params(0.3, 0.6, kappa, g)
        mean, variance, trace = operator_moments(p, 6, present)
        stats, leakage = receiver_count_moments(p, 6, present)
        assert stats.mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert stats.variance == pytest.approx(variance, rel=1e-12)
        assert leakage == pytest.approx(1.0 - trace, rel=1e-12, abs=1e-15)

    def test_reduced_sums_match_dense_blocks_at_dim_30(self):
        p = params(0.3, 0.6, 0.3, 1.7)
        mean, variance, _ = operator_moments(p, 30, True)
        stats, _ = receiver_count_moments(p, 30, True)
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.variance == pytest.approx(variance, rel=1e-12)

    def test_no_target_mean_is_zero_without_splitter_sectors(self):
        p = params(0.3, 0.6, 0.3, 1.7)
        before = _bs_sector_unitary.cache_info()
        stats, _ = receiver_count_moments(p, 30, False)
        assert stats.mean == 0.0
        assert _bs_sector_unitary.cache_info() == before

    def test_splitter_cache_keeps_one_stack(self):
        for kappa in (0.1, 0.2, 0.3, 0.4, 0.5):
            receiver_count_moments(params(0.3, 0.6, kappa, 1.7), 12, True)
        assert _bs_sector_unitary.cache_info().currsize == 1

    def test_received_mode_keeps_reflected_plus_background_photons(self):
        # <N_received> = kappa*n_s + n_b once the compensated background mixes in
        p = params(0.5, 0.5, 0.1, 2.0)
        dims = _work_dims(30)
        occupation = np.repeat(np.arange(dims.received), dims.idler).astype(float)
        total = 0.0
        for block in branch_blocks(p, dims, target_present=True):
            total += float(np.sum(occupation[:, None] * block * block))
        assert total == pytest.approx(0.1 * 0.5 + 0.5, abs=1e-8)

    def test_matches_gaussian_pipeline_at_spec_point(self):
        p = params(0.1, 0.5, 0.1, 2.0)
        gauss = gaussian_receiver_stats(p, target_present=True)
        oracle, leakage = receiver_count_moments(p, 30, target_present=True)
        assert leakage < 1e-6
        assert oracle.mean == pytest.approx(gauss.mean, rel=1e-6)
        assert oracle.variance == pytest.approx(gauss.variance, rel=1e-6)

    def test_confirms_interference_mean_at_unit_brightness(self):
        # closed form sqrt(kappa)*c*(G - 1/G)/2 = 0.21213203...; at n_s = 1 the
        # amplified idler sits beyond the oracle's small-occupation domain, so
        # dim 30 confirms the value to ~1e-5 with the loss showing in leakage
        p = params(1.0, 1.0, 0.01, 2.0)
        oracle, leakage = receiver_count_moments(p, 30, target_present=True)
        assert oracle.mean == pytest.approx(0.21213203435596428, rel=3e-5)
        assert leakage > 1e-8


class TestEntanglementCrossCheck:
    @pytest.mark.parametrize("ns", [0.1, 0.5])
    @pytest.mark.parametrize("g", [1.0, 2.0])
    def test_log_negativity_positive_iff_ppt_certifies(self, ns, g):
        dim = 30
        amps = tmsv_state(ns, dim)
        if g != 1.0:
            amps = amps @ squeeze_operator(math.log(g), dim, dim).T
        gaussian_probe = amplify_mode(tmsv_covariance(ns), 2, GainSpec(g))
        assert min_ppt_symplectic_eigenvalue(gaussian_probe) < 0.5
        assert pure_state_log_negativity(amps) > 0.1
