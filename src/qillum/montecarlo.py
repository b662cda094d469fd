"""Seeded Monte Carlo validation of the detection error probability.

Samples the receiver's total count difference under both hypotheses from
its Gaussian law (the only sampling mode in scope: per-mode counts are
non-Gaussian and live in the Fock oracle instead), applies the analytic
decision threshold, and reports the empirical error rate with its
binomial standard error.  Streams are counter-based so results are
byte-identical for a given seed regardless of how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .illumination import ScenarioParams, detection_report, per_mode_count_stats

__all__ = [
    "TrialConfig",
    "ErrorProbabilityEstimate",
    "estimate_error_probability",
]

#: Trials per substream; results do not depend on this being reached
#: in parallel or serially because each shard owns its own Philox key.
SHARD_SIZE = 1 << 16


@dataclass(frozen=True)
class TrialConfig:
    params: ScenarioParams
    trials: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trial count must be a positive integer, got {self.trials}")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class ErrorProbabilityEstimate:
    """Empirical equal-prior error probability and its binomial standard
    error, with the raw per-hypothesis error counts."""

    p_error: float
    std_error: float
    false_alarms: int
    misses: int
    trials: int
    threshold: float


def _count_errors(
    seed: int, stream: int, trials: int, loc: float, scale: float,
    threshold: float, declare_above: bool,
) -> int:
    """Errors among ``trials`` Gaussian draws from substreams of one stream.

    Substream ``k`` of stream ``s`` uses Philox key (seed, 2k + s), so the
    draw sequence is a pure function of (seed, stream, trials).
    """
    errors = 0
    drawn = 0
    shard = 0
    while drawn < trials:
        take = min(SHARD_SIZE, trials - drawn)
        key = np.array([seed, 2 * shard + stream], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        samples = rng.normal(loc, scale, take)
        above = samples > threshold
        errors += int(np.count_nonzero(above if declare_above else ~above))
        drawn += take
        shard += 1
    return errors


def estimate_error_probability(cfg: TrialConfig) -> ErrorProbabilityEstimate:
    """Simulate equal-prior discrimination trials for both hypotheses.

    Totals over M mode pairs are drawn from Normal(M*mu_i, M*sigma_i^2);
    a trial declares the target present when the total exceeds the
    analytic threshold.  Identical configs give identical results.
    """
    p = cfg.params
    s0, s1 = per_mode_count_stats(p)
    threshold = detection_report(p).threshold
    m = p.modes
    false_alarms = _count_errors(
        cfg.seed, 0, cfg.trials, m * s0.mean, math.sqrt(m * s0.variance),
        threshold, declare_above=True,
    )
    misses = _count_errors(
        cfg.seed, 1, cfg.trials, m * s1.mean, math.sqrt(m * s1.variance),
        threshold, declare_above=False,
    )
    p_error = (false_alarms + misses) / (2.0 * cfg.trials)
    std_error = math.sqrt(p_error * (1.0 - p_error) / (2.0 * cfg.trials))
    return ErrorProbabilityEstimate(
        p_error=p_error,
        std_error=std_error,
        false_alarms=false_alarms,
        misses=misses,
        trials=cfg.trials,
        threshold=threshold,
    )
