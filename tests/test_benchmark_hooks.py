"""The internals that ``perfbench/`` reads from outside the program.

perfbench wraps and replaces these names at run time; each test pins one
of them without importing perfbench, so a refactor that hides one fails
here rather than in a benchmark run.
"""

import dataclasses
import functools

import pytest

import qillum
from qillum import cli, fock, gaussian, illumination, montecarlo

SWEEP = ["sweep", "--ns", "0.01", "--param", "n_s", "--from", "1e-3", "--to", "1e3",
         "--points", "7", "--spacing", "log"]
REPORT = ["report", "--ns", "0.01"]


def test_traced_names_exist():
    assert callable(fock._bs_sector_unitary.cache_info)
    assert type(montecarlo.SHARD_SIZE) is int
    assert callable(gaussian.TwoModeCovariance.__dict__["__post_init__"])


@pytest.mark.parametrize("argv,rows", [(SWEEP, 7), (REPORT, 1)], ids=["sweep", "report"])
def test_emit_receives_one_entry_per_row(monkeypatch, capsys, argv, rows):
    seen = []

    def spy(table, args):
        seen.append(len(table))
        return emit(table, args)

    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", spy)
    assert cli.main(argv) == 0
    assert seen == [rows]


def _scaled(fn):
    @functools.wraps(fn)
    def planted(*args, **kwargs):
        return fn(*args, **kwargs) * 1.01
    return planted


def _wrong_p_error(fn):
    @functools.wraps(fn)
    def planted(p):
        return dataclasses.replace(fn(p), p_error=0.75)
    return planted


def _shifted_mean(fn):
    @functools.wraps(fn)
    def planted(p, dim, present):
        stats, leakage = fn(p, dim, present)
        return dataclasses.replace(stats, mean=stats.mean + 1e-3), leakage
    return planted


@pytest.mark.parametrize("module,name,wrong,argv", [
    (illumination, "snr_csh_closed_form", _scaled, REPORT),
    (illumination, "snr_qi_closed_form", _scaled, REPORT),
    (illumination, "detection_report", _wrong_p_error, SWEEP),
    (gaussian, "min_ppt_symplectic_eigenvalue", _scaled, ["ppt", "--ns", "0.01"]),
    (fock, "receiver_count_moments", _shifted_mean, ["validate", "--dim", "8"]),
], ids=["snr_csh-report", "snr_qi-report", "detection_report-sweep", "ppt-ppt",
       "oracle-validate"])
def test_planted_function_is_looked_up_at_call_time(monkeypatch, capsys, module, name,
                                                    wrong, argv):
    assert cli.main(argv) == 0
    clean = capsys.readouterr().out
    original = getattr(module, name)
    planted = wrong(original)
    bound = [ns for ns in (qillum, cli, fock, gaussian, illumination, montecarlo)
             if getattr(ns, name, None) is original]
    assert module in bound
    for ns in bound:
        monkeypatch.setattr(ns, name, planted)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out != clean
