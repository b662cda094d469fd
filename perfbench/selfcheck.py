"""Self-check of the benchmark: tiny runs emit every declared metric with
its unit, and planted wrong outputs are counted as failures.

Run from the repository root:  python3 -m pytest -q perfbench/selfcheck.py
(The file name keeps it out of the repository's default test collection.)
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _assert_metrics(metrics: dict, kind: str) -> None:
    declared = _declared(kind)
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    cmd = SPEC["command"] + ["--workload", "simulate", "--seed", "3",
                             "--seconds", "0.2", "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result["metrics"], "per_layer" if trace == "1" else "end_to_end")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    args = argparse.Namespace(workload=workload, seed=11, seconds=0.05, trace=trace)
    result = run.benchmark(args, setup_runs=1)
    assert result["correct"], result["failure_reasons"]
    metrics = {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()}
    _assert_metrics(metrics, "per_layer" if trace else "end_to_end")


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_workload(name, 5), workloads.make_workload(name, 5)
        assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
        assert [op.argv for op in a.ops] != [op.argv for op in workloads.make_workload(name, 6).ops]


def _wrong(fn, **changes):
    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return type(out)(**{**out.__dict__, **changes}) if changes else out * 1.01
    return planted


def _plant(monkeypatch, module, name, replacement):
    """Replace ``name`` in every qillum module namespace that binds it."""
    import qillum
    from qillum import cli, fock, illumination, montecarlo

    original = getattr(module, name)
    for ns in (qillum, cli, fock, illumination, montecarlo, module):
        if getattr(ns, name, None) is original:
            monkeypatch.setattr(ns, name, replacement)


def _failures(wl_name, kinds, count=4):
    from qillum import cli

    wl = workloads.make_workload(wl_name, 2)
    ops = [op for op in wl.ops if op.kind in kinds][:count]
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        return [run._run_checked(cli, op, tmp).reason for op in ops]


def test_planted_wrong_snr_fails_report(monkeypatch):
    from qillum import illumination

    _plant(monkeypatch, illumination, "snr_csh_closed_form",
           _wrong(illumination.snr_csh_closed_form))
    assert _failures("report", {"report"}) == ["snr_csh off 50-digit reference"] * 4


def test_planted_wrong_p_error_fails_sweep(monkeypatch):
    from qillum import illumination

    _plant(monkeypatch, illumination, "detection_report",
           _wrong(illumination.detection_report, p_error=0.75))
    assert _failures("sweep", {"sweep"}, 2) == ["sweep p_error outside [0, 0.5]"] * 2


def test_planted_wrong_ppt_fails(monkeypatch):
    from qillum import gaussian

    _plant(monkeypatch, gaussian, "min_ppt_symplectic_eigenvalue",
           _wrong(gaussian.min_ppt_symplectic_eigenvalue))
    reasons = _failures("report", {"ppt"})
    assert all(r.startswith("ppt off closed form") for r in reasons) and len(reasons) == 4


def test_planted_wrong_oracle_fails_validate(monkeypatch):
    from qillum import fock

    original = fock.receiver_count_moments

    def planted(p, dim, present):
        stats, leakage = original(p, dim, present)
        return type(stats)(mean=stats.mean + 1e-3, variance=stats.variance), leakage

    _plant(monkeypatch, fock, "receiver_count_moments", planted)
    assert _failures("validate", {"validate"}, 1) == [
        "validate deviation over max(1e-6, 10*leakage)"]


def test_planted_wrong_output_marks_the_run_incorrect(monkeypatch):
    from qillum import illumination

    _plant(monkeypatch, illumination, "snr_qi_closed_form",
           _wrong(illumination.snr_qi_closed_form))
    args = argparse.Namespace(workload="report", seed=4, seconds=0.02, trace=0)
    result = run.benchmark(args, setup_runs=1)
    assert result["correct"] is False
    # every report op fails (the warm-up included); the ppt ops never call snr_qi
    ppt_ops = sum(1 for i in range(result["attempted"] - 1) if i % 5 == 4)
    assert result["failed"] == result["attempted"] - ppt_ops
    assert set(result["failure_reasons"]) == {"snr_qi off 50-digit reference"}
