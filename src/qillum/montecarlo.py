"""Seeded Monte Carlo validation of the detection error probability.

Samples the receiver's total count difference under both hypotheses from
its Gaussian law (the only sampling mode in scope: per-mode counts are
non-Gaussian and live in the Fock oracle instead), applies the analytic
decision threshold, and reports the empirical error rate with its
binomial standard error.  Streams are counter-based and drawn in parallel
on every CPU in the process's affinity mask; results are byte-identical for
a given seed on any machine and under any scheduling.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

from .illumination import ScenarioParams, detection_report, per_mode_count_stats

__all__ = ["TrialConfig", "ErrorProbabilityEstimate", "estimate_error_probability"]

#: Trials per shard.  Each shard owns its own Philox key, so shards are
#: drawn in parallel and the counts do not depend on which thread drew which.
SHARD_SIZE = 1 << 16


@dataclass(frozen=True)
class TrialConfig:
    params: ScenarioParams
    trials: int
    seed: int

    def __post_init__(self):
        for name, label in (("trials", "trial count"), ("seed", "seed")):
            value = getattr(self, name)  # a Python or numpy integer, kept as a Python int
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{label} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError(f"trial count must be a positive integer, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class ErrorProbabilityEstimate:
    """Empirical equal-prior error probability and its binomial standard
    error, with the raw per-hypothesis error counts, the threshold applied
    and the analytic error probability it is checked against."""

    p_error: float
    std_error: float
    false_alarms: int
    misses: int
    trials: int
    threshold: float
    p_error_analytic: float


def _shard_errors(seed: int, stream: int, shard: int, take: int, threshold: float,
                  loc: float, scale: float, declare_above: bool) -> int:
    """Errors among the ``take`` draws of one shard, keyed (seed, 2*shard + stream)."""
    import numpy as np
    key = np.array([seed, 2 * shard + stream], dtype=np.uint64)
    above = np.random.Generator(np.random.Philox(key=key)).normal(loc, scale, take) > threshold
    return int(np.count_nonzero(above if declare_above else ~above))


def _count_errors(seed: int, trials: int, threshold: float, streams: list) -> list[int]:
    """Errors among ``trials`` draws from each stream ``(loc, scale, declare_above)``.

    Flat (stream, shard) indices are handed out under a lock to the caller and
    one more thread per further usable CPU (numpy draws without the GIL); each
    thread adds in its counts when done.  A failed shard stops the rest; its
    exception is raised here once every thread has ended."""
    shards = -(-trials // SHARD_SIZE)
    errors = [0] * len(streams)
    pending, lock, failures = iter(range(len(streams) * shards)), threading.Lock(), []

    def work():
        counts = [0] * len(streams)
        try:
            while True:
                with lock:
                    i = None if failures else next(pending, None)
                if i is None:
                    break
                s, k = divmod(i, shards)
                counts[s] += _shard_errors(seed, s, k, min(SHARD_SIZE, trials - k * SHARD_SIZE),
                                           threshold, *streams[s])
        except BaseException as exc:
            failures.append(exc)
        with lock:
            errors[:] = map(sum, zip(errors, counts))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = []
    try:
        for _ in range(min(cpus or 1, len(streams) * shards) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return errors


def estimate_error_probability(cfg: TrialConfig) -> ErrorProbabilityEstimate:
    """Simulate equal-prior discrimination trials for both hypotheses.

    Totals over M mode pairs are drawn from Normal(M*mu_i, M*sigma_i^2);
    a trial declares the target present when the total exceeds the
    analytic threshold.  Identical configs give identical results.
    """
    p = cfg.params
    s0, s1 = per_mode_count_stats(p)
    report = detection_report(p)
    m = p.modes
    false_alarms, misses = _count_errors(cfg.seed, cfg.trials, report.threshold, [
        (m * s0.mean, math.sqrt(m * s0.variance), True),
        (m * s1.mean, math.sqrt(m * s1.variance), False),
    ])
    p_error = (false_alarms + misses) / (2.0 * cfg.trials)
    std_error = math.sqrt(p_error * (1.0 - p_error) / (2.0 * cfg.trials))
    return ErrorProbabilityEstimate(
        p_error=p_error,
        std_error=std_error,
        false_alarms=false_alarms,
        misses=misses,
        trials=cfg.trials,
        threshold=report.threshold,
        p_error_analytic=report.p_error,
    )
