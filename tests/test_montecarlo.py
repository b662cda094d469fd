import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qillum
from qillum import cli, fock, gaussian, illumination, montecarlo
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


def serial_count_errors(seed, stream, trials, loc, scale, threshold, declare_above):
    """Reference: the errors of one stream, drawn shard by shard on one
    thread.  Shard ``k`` of stream ``s`` uses Philox key (seed, 2k + s)."""
    errors = 0
    drawn = 0
    shard = 0
    while drawn < trials:
        take = min(montecarlo.SHARD_SIZE, trials - drawn)
        key = np.array([seed, 2 * shard + stream], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        samples = rng.normal(loc, scale, take)
        above = samples > threshold
        errors += int(np.count_nonzero(above if declare_above else ~above))
        drawn += take
        shard += 1
    return errors


@pytest.fixture
def four_cpus(monkeypatch):
    """Run the shard runner on four threads whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


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

    @pytest.mark.parametrize("trials,seed", [(np.int64(10), 5), (10, np.uint64(5)),
                                             (np.int32(10), np.int8(5))], ids=repr)
    def test_accepts_numpy_integers(self, trials, seed):
        cfg = TrialConfig(params=params(), trials=trials, seed=seed)
        assert (cfg.trials, cfg.seed) == (10, 5)
        assert type(cfg.trials) is int and type(cfg.seed) is int
        assert estimate_error_probability(cfg) == estimate_error_probability(
            TrialConfig(params=params(), trials=10, seed=5))

    @pytest.mark.parametrize("field,value,message", [
        ("trials", 10.0, "trial count must be an integer, got 10.0"),
        ("trials", np.float64(10), f"trial count must be an integer, got {np.float64(10)!r}"),
        ("trials", "10", "trial count must be an integer, got '10'"),
        ("seed", 5.0, "seed must be an integer, got 5.0"),
        ("seed", None, "seed must be an integer, got None"),
        ("trials", np.int64(0), "trial count must be a positive integer, got 0"),
        ("seed", np.int64(-1), "seed must be an integer in [0, 2^64), got -1"),
        ("trials", True, "trial count must be an integer, got True"),
        ("trials", False, "trial count must be an integer, got False"),
        ("trials", np.True_, "trial count must be an integer, got np.True_"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", np.True_, "seed must be an integer, got np.True_"),
    ])
    def test_says_whether_type_or_range_is_wrong(self, field, value, message):
        with pytest.raises(ValueError) as excinfo:
            TrialConfig(params=params(), **{"trials": 10, "seed": 5, field: value})
        assert str(excinfo.value) == message


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


class TestShardRunner:
    THRESHOLD = 0.1

    @staticmethod
    def streams(declare_first):
        return [(0.3, 1.2, declare_first), (-0.1, 0.9, not declare_first)]

    def serial(self, seed, trials, streams):
        return [serial_count_errors(seed, s, trials, loc, scale, self.THRESHOLD, above)
                for s, (loc, scale, above) in enumerate(streams)]

    @pytest.mark.parametrize("declare_first", [True, False])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("trials", [1, SHARD_SIZE - 1, SHARD_SIZE, SHARD_SIZE + 1,
                                        3 * SHARD_SIZE + 17])
    def test_counts_equal_the_serial_reference(self, four_cpus, trials, seed, declare_first):
        streams = self.streams(declare_first)
        assert (montecarlo._count_errors(seed, trials, self.THRESHOLD, streams)
                == self.serial(seed, trials, streams))

    def test_estimate_equals_the_serial_reference(self, four_cpus):
        p, trials, seed = params(), 3 * SHARD_SIZE + 17, 2**64 - 1
        est = estimate_error_probability(TrialConfig(params=p, trials=trials, seed=seed))
        s0, s1 = illumination.per_mode_count_stats(p)
        m, report = p.modes, detection_report(p)
        assert (est.false_alarms, est.misses) == (
            serial_count_errors(seed, 0, trials, m * s0.mean, math.sqrt(m * s0.variance),
                                report.threshold, True),
            serial_count_errors(seed, 1, trials, m * s1.mean, math.sqrt(m * s1.variance),
                                report.threshold, False))
        assert (est.threshold, est.p_error_analytic) == (report.threshold, report.p_error)

    def test_many_small_shards_on_more_threads_than_cpus(self, monkeypatch):
        # 402 jobs on 16 threads switching every microsecond: a job taken
        # twice or skipped would change a count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 64)
        streams, interval = self.streams(False), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = montecarlo._count_errors(11, 64 * 200 + 3, self.THRESHOLD, streams)
        finally:
            sys.setswitchinterval(interval)
        assert counts == self.serial(11, 64 * 200 + 3, streams)

    @pytest.mark.parametrize("affinity, cpu_count, n_streams, started", [
        ({0}, 8, 2, 0),                # one usable CPU: the caller draws alone
        ({0, 1, 2, 3}, 1, 2, 3),       # the affinity mask, not the machine, counts
        ({0, 1, 2, 3}, 4, 1, 0),       # one shard in all: no thread to share it with
        (None, 3, 2, 2),               # no affinity call: the CPU count
        (None, None, 2, 0),            # neither known: one thread
    ])
    def test_threads_follow_usable_cpus(self, monkeypatch, affinity, cpu_count, n_streams,
                                        started):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        runs = []

        class CountedThread(threading.Thread):
            def start(self):
                runs.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        trials = SHARD_SIZE if n_streams == 1 else 2 * SHARD_SIZE + 5
        streams = self.streams(True)[:n_streams]
        assert (montecarlo._count_errors(5, trials, self.THRESHOLD, streams)
                == self.serial(5, trials, streams))
        assert len(runs) == started

    def test_memory_does_not_grow_with_the_shard_count(self, monkeypatch):
        # the runner keeps a count per stream and thread, nothing per shard, so
        # 100,000 one-trial shards (3.3e9 trials a stream at full size) fit in well
        # under 1 MB.  One CPU, as tracemalloc slows every thread's lock handoff
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 1)
        monkeypatch.setattr(montecarlo, "_shard_errors", lambda *args: 0)
        tracemalloc.start()
        try:
            counts = montecarlo._count_errors(3, 50_000, self.THRESHOLD, self.streams(True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [0, 0]
        assert peak < 1 << 20

    def test_leaves_no_thread_behind(self, four_cpus):
        before = threading.active_count()
        estimate_error_probability(TrialConfig(params=params(), trials=5 * SHARD_SIZE, seed=1))
        assert threading.active_count() == before

    def test_a_failed_shard_is_raised_and_leaves_no_thread(self, four_cpus, monkeypatch):
        real = montecarlo._shard_errors

        def failing(seed, stream, shard, *rest):
            if (stream, shard) == (1, 2):
                raise RuntimeError("shard 2 of stream 1 failed")
            return real(seed, stream, shard, *rest)

        monkeypatch.setattr(montecarlo, "_shard_errors", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="shard 2 of stream 1 failed"):
            estimate_error_probability(
                TrialConfig(params=params(), trials=3 * SHARD_SIZE + 17, seed=1))
        assert threading.active_count() == before

    def test_an_error_on_a_worker_thread_reaches_the_caller(self, four_cpus, monkeypatch):
        # the caller's own shard waits until a worker has failed, so the
        # error is raised off the calling thread whatever the scheduling
        real, failed = montecarlo._shard_errors, threading.Event()

        def failing(*args):
            if threading.current_thread() is threading.main_thread():
                assert failed.wait(timeout=30)
                return real(*args)
            failed.set()
            raise RuntimeError("worker failed")

        monkeypatch.setattr(montecarlo, "_shard_errors", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            estimate_error_probability(TrialConfig(params=params(), trials=SHARD_SIZE, seed=1))
        assert threading.active_count() == before

    def test_public_functions_run_on_the_calling_thread(self, four_cpus, monkeypatch):
        # perfbench's tracer wraps every public function of the layer
        # modules with a span stack that only one thread may touch
        namespaces = (qillum, cli, fock, gaussian, illumination, montecarlo)
        calls = []
        for module in (montecarlo, illumination):
            for name in module.__all__:
                fn = getattr(module, name)
                if not callable(fn) or isinstance(fn, type):
                    continue

                def wrapper(*args, _fn=fn, _name=name, **kwargs):
                    calls.append((_name, threading.get_ident()))
                    return _fn(*args, **kwargs)

                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        monkeypatch.setattr(ns, name, wrapper)
        cfg = TrialConfig(params=params(), trials=3 * SHARD_SIZE + 17, seed=1)
        montecarlo.estimate_error_probability(cfg)
        assert {"estimate_error_probability", "detection_report",
                "per_mode_count_stats"} <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}
