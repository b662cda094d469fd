import math

import pytest

from qillum.gaussian import GainSpec
from qillum.illumination import ScenarioParams, detection_report
from qillum.montecarlo import (
    SHARD_SIZE,
    ErrorProbabilityEstimate,
    TrialConfig,
    estimate_error_probability,
)


def params(ns=1.0, nb=1.0, kappa=0.01, g=2.0, modes=100):
    return ScenarioParams(n_s=ns, n_b=nb, kappa=kappa, gain=GainSpec(g), modes=modes)


class TestTrialConfig:
    def test_rejects_bad_trials_and_seed(self):
        with pytest.raises(ValueError):
            TrialConfig(params=params(), trials=0, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(params=params(), trials=10.0, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(params=params(), trials=10, seed=-1)
        with pytest.raises(ValueError):
            TrialConfig(params=params(), trials=10, seed=2**64)


class TestEstimate:
    def test_hidden_target_is_a_coin_flip(self):
        cfg = TrialConfig(params=params(kappa=0.0), trials=100_000, seed=11)
        est = estimate_error_probability(cfg)
        assert abs(est.p_error - 0.5) <= 3.0 * est.std_error

    def test_matches_analytic_probability(self):
        p = params()
        analytic = detection_report(p).p_error
        est = estimate_error_probability(TrialConfig(params=p, trials=200_000, seed=5))
        assert abs(est.p_error - analytic) <= 3.0 * est.std_error

    def test_counts_are_consistent(self):
        est = estimate_error_probability(TrialConfig(params=params(), trials=5_000, seed=2))
        assert isinstance(est, ErrorProbabilityEstimate)
        assert est.p_error == (est.false_alarms + est.misses) / (2 * est.trials)
        expected_se = math.sqrt(est.p_error * (1 - est.p_error) / (2 * est.trials))
        assert est.std_error == pytest.approx(expected_se, rel=1e-12)

    def test_seed_determinism_across_shard_boundaries(self):
        cfg = TrialConfig(params=params(), trials=SHARD_SIZE + 17, seed=99)
        first = estimate_error_probability(cfg)
        second = estimate_error_probability(cfg)
        assert first == second

    def test_different_seeds_differ(self):
        p = params()
        a = estimate_error_probability(TrialConfig(params=p, trials=50_000, seed=1))
        b = estimate_error_probability(TrialConfig(params=p, trials=50_000, seed=2))
        assert (a.false_alarms, a.misses) != (b.false_alarms, b.misses)

    def test_trial_count_extends_the_stream(self):
        # shorter runs are prefixes of longer ones shard by shard, so error
        # counts can only grow with the trial count
        p = params()
        small = estimate_error_probability(TrialConfig(params=p, trials=1_000, seed=3))
        large = estimate_error_probability(TrialConfig(params=p, trials=2_000, seed=3))
        assert large.false_alarms >= small.false_alarms
        assert large.misses >= small.misses

    def test_doubling_modes_reduces_error(self):
        base = dict(ns=0.1, nb=10.0, kappa=0.05, g=5.623)
        est_m = estimate_error_probability(
            TrialConfig(params=params(**base, modes=400), trials=200_000, seed=7)
        )
        est_2m = estimate_error_probability(
            TrialConfig(params=params(**base, modes=800), trials=200_000, seed=7)
        )
        assert est_2m.p_error < est_m.p_error

    def test_error_counts_scatter_like_a_binomial_over_seeds(self):
        # The bright scenario of one perfbench simulate op whose seed read
        # 5.1 sigma high at 1e6 trials.  Across 40 fixed seeds, that seed
        # among them, the z-scores against the analytic error probability
        # must look standard: an error count that depended on the seed's
        # value, not only on its draws, would shift or widen them.
        p = ScenarioParams(n_s=2.3990463022344715, n_b=0.5950083559355803,
                           kappa=0.8182604853545734, gain=GainSpec.from_db(4.48709438232234),
                           modes=159)
        analytic = detection_report(p).p_error
        trials = 100_000
        sigma = math.sqrt(analytic * (1.0 - analytic) / (2.0 * trials))
        z = [(estimate_error_probability(TrialConfig(params=p, trials=trials, seed=seed)).p_error
              - analytic) / sigma for seed in [3692670939, *range(1, 40)]]
        mean = sum(z) / len(z)
        sd = math.sqrt(sum((x - mean) ** 2 for x in z) / (len(z) - 1))
        assert abs(mean) <= 0.5
        assert 0.6 <= sd <= 1.5
