import argparse
import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qillum
from qillum import cli, illumination
from qillum.cli import build_parser, main
from qillum.fock import LEAKAGE_WARNING_THRESHOLD
from qillum.gaussian import GainSpec
from qillum.illumination import Regime, ScenarioParams, detection_report, per_mode_count_stats

GOLDEN_CALLS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())["calls"]

#: One grid per sweepable parameter, around the default scenario.
PINNED_SWEEPS = [
    ["--ns", "0.01", "--param", "n_s", "--from", "1e-3", "--to", "1e3",
     "--points", "200", "--spacing", "log"],
    ["--ns", "0.1", "--param", "n_b", "--from", "0.01", "--to", "1e4",
     "--points", "200", "--spacing", "log"],
    ["--ns", "0.1", "--param", "kappa", "--from", "0", "--to", "0.999", "--points", "200"],
    ["--ns", "0.1", "--param", "gain_db", "--from", "0", "--to", "30", "--points", "301"],
    ["--ns", "0.1", "--param", "modes", "--from", "1", "--to", "1e8",
     "--points", "200", "--spacing", "log"],
    # counts past 2**63 stay Python ints, as in a per-point evaluation
    ["--ns", "0.1", "--param", "modes", "--from", "1", "--to", "1e20",
     "--points", "41", "--spacing", "log"],
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_json_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ns", "0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "QUANTUM_ADVANTAGE"
        assert payload["gain_db"] == pytest.approx(15.0, abs=1e-12)
        assert 0.0 < payload["p_error"] <= 0.5

    def test_round_trip_is_bit_identical(self, capsys):
        code, first, _ = run_cli(
            capsys, "report", "--ns", "0.37", "--nb", "8.5", "--kappa", "0.02",
            "--gain-db", "11.3", "--modes", "250",
        )
        assert code == 0
        payload = json.loads(first)
        code, second, _ = run_cli(
            capsys, "report",
            "--ns", repr(payload["n_s"]),
            "--nb", repr(payload["n_b"]),
            "--kappa", repr(payload["kappa"]),
            "--gain", repr(payload["gain"]),
            "--modes", str(payload["modes"]),
        )
        assert code == 0
        assert second == first

    def test_csv_report_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ns", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("n_s,n_b,kappa,gain,gain_db,modes")


class TestSweep:
    def test_csv_schema_and_length(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--ns", "0.01", "--param", "n_s",
            "--from", "0.001", "--to", "10", "--points", "7", "--spacing", "log",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,snr_qi,snr_csh,ratio,p_error,regime"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.001)
        assert first[5] == "QUANTUM_ADVANTAGE"

    def test_modes_sweep_emits_integers(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--ns", "0.1", "--param", "modes",
            "--from", "100", "--to", "400", "--points", "4",
        )
        assert code == 0
        values = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert values == ["100", "200", "300", "400"]

    def test_gain_sweep_spans_db_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--ns", "0.1", "--param", "gain_db",
            "--from", "0", "--to", "30", "--points", "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == 0.0  # zero gain prefactor kills the SNR
        assert float(rows[2][1]) > 0.0

    def test_bad_point_count_is_an_argument_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--ns", "0.1", "--param", "n_s",
            "--from", "0.1", "--to", "1", "--points", "1",
        )
        assert code == 2
        assert "error" in err

    def test_log_spacing_needs_positive_bounds(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--ns", "0.1", "--param", "n_s",
            "--from", "-1", "--to", "1", "--points", "5", "--spacing", "log",
        )
        assert code == 2

    @pytest.mark.parametrize("argv", PINNED_SWEEPS)
    def test_rows_equal_per_point_evaluation(self, capsys, argv):
        # value, snr_csh and regime carry the per-point arithmetic bit for bit
        code, out, _ = run_cli(capsys, "sweep", *argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        flags = dict(zip(argv[::2], argv[1::2]))
        param, points = flags["--param"], int(flags["--points"])
        space = np.geomspace if flags.get("--spacing") == "log" else np.linspace
        assert len(rows) == points
        for row, value in zip(rows, space(float(flags["--from"]), float(flags["--to"]),
                                          points).tolist()):
            point = dict(n_s=float(flags["--ns"]), n_b=100.0, kappa=1e-3, g=10.0 ** 0.75,
                         modes=100)
            if param == "gain_db":
                point["g"] = 10.0 ** (value / 20.0)
            elif param == "modes":
                value = point["modes"] = max(1, int(round(value)))
            else:
                point[param] = value
            n_s, n_b, kappa = point["n_s"], point["n_b"], point["kappa"]
            csh = kappa * n_s / (4.0 * n_b + 2.0)
            if n_s < 1.0:
                regime = "QUANTUM_ADVANTAGE"
            elif kappa > 0.0 and n_s > n_b / kappa:
                regime = "DISADVANTAGE"
            else:
                regime = "PARITY"
            assert (row["value"], row["snr_csh"], row["regime"]) == (
                repr(value) if param != "modes" else str(value), repr(csh), regime)
            report = detection_report(ScenarioParams(
                n_s=n_s, n_b=n_b, kappa=kappa, gain=GainSpec(point["g"]), modes=point["modes"]))
            assert float(row["p_error"]) == report.p_error
            assert float(row["snr_qi"]) == report.snr_closed_form
            if csh > 0.0:
                assert float(row["ratio"]) == report.snr_closed_form / csh
            else:
                assert row["ratio"] == "nan"

    @pytest.mark.parametrize("param,flag,start,stop,spacing", [
        ("n_s", "--ns", "1e-3", "1e3", "log"), ("n_b", "--nb", "0.01", "1e4", "log"),
        ("kappa", "--kappa", "0", "0.999", "linear"), ("gain_db", "--gain-db", "0", "30", "linear"),
        ("modes", "--modes", "1", "1e8", "log")])
    def test_each_row_is_report_at_its_value(self, capsys, param, flag, start, stop, spacing):
        # one arithmetic for a point and a sweep: every cell byte for byte
        code, out, _ = run_cli(capsys, "sweep", "--ns", "0.1", "--param", param, "--from", start,
                               "--to", stop, "--points", "101", "--spacing", spacing)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 101
        cells = {"snr_qi": "snr_closed_form", "snr_csh": "snr_csh", "ratio": "ratio",
                 "p_error": "p_error", "regime": "regime"}
        for row in rows:
            argv = {"--ns": "0.1", flag: row["value"]}
            code, out, _ = run_cli(capsys, "report", *[a for item in argv.items() for a in item])
            assert code == 0
            report = json.loads(out)
            as_cell = {k: "nan" if v is None else v if isinstance(v, str) else repr(v)
                       for k, v in report.items()}
            assert {k: row[k] for k in cells} == {k: as_cell[v] for k, v in cells.items()}

    @pytest.mark.parametrize("param,start,stop,message", [
        ("n_s", "1", "-1", "signal brightness must be finite and >= 0, got -0.5"),
        ("n_b", "1", "-1", "background brightness must be finite and >= 0, got -0.5"),
        ("kappa", "0.5", "1.5", "reflectance must lie in [0, 1), got 1.0"),
        ("gain_db", "3", "-3", "gain must be finite and >= 1, got 0.8413951416451951"),
        ("n_s", "nan", "1", "signal brightness must be finite and >= 0, got nan"),
    ])
    def test_invalid_grid_names_the_first_bad_point(self, capsys, param, start, stop, message):
        code, out, err = run_cli(capsys, "sweep", "--ns", "0.1", "--param", param,
                                 "--from", start, "--to", stop, "--points", "5")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [["--param", "bogus"],
                                       ["--param", "n_s", "--spacing", "cubic"]],
                             ids=["param", "spacing"])
    def test_unknown_parameter_or_spacing_exits_two(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--ns", "0.1", "--from", "1", "--to", "2", *flags])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{flags[-1]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("start,stop", [("nan", "1"), ("1", "nan")])
    def test_nan_log_bound_reaches_the_grid_check(self, capsys, start, stop):
        # NaN <= 0 is false, so the bound check passes it on to the scenario
        code, out, err = run_cli(capsys, "sweep", "--ns", "0.1", "--param", "n_s", "--from",
                                 start, "--to", stop, "--points", "5", "--spacing", "log")
        assert (code, out, err) == (
            1, "", "error: signal brightness must be finite and >= 0, got nan\n")


class TestFigures:
    def test_gain_prefactor_curve(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "gain-prefactor")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gain_db,prefactor"
        assert len(lines) == 302
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        row15 = lines[1 + 150].split(",")
        assert float(row15[0]) == pytest.approx(15.0, abs=1e-12)
        assert abs(float(row15[1]) - 0.93675) < 1e-4

    def test_gain_prefactor_grid_is_one_broadcast_call(self, capsys, monkeypatch):
        calls, prefactor = [], illumination.gain_prefactor

        def spy(gain):
            calls.append(np.shape(gain.linear))
            return prefactor(gain)
        monkeypatch.setattr(illumination, "gain_prefactor", spy)
        code, out, _ = run_cli(capsys, "figure", "gain-prefactor", "--points", "31")
        assert (code, calls) == (0, [(31,)])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(db) for db, _ in rows] == np.linspace(0.0, 30.0, 31).tolist()
        # each cell is the per-point value bit for bit
        assert [float(f) for _, f in rows] == [
            prefactor(GainSpec.from_db(float(db))) for db, _ in rows]

    def test_snr_ratio_curve_shows_all_regimes(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "snr-ratio", "--points", "101")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_s,snr_qi,snr_csh,ratio"
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert ratios[0] == pytest.approx(2.0, rel=0.1)
        assert min(ratios) < 1.0

    @pytest.mark.parametrize("which", ["gain-prefactor", "snr-ratio"])
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_bad_point_count_is_an_argument_error(self, capsys, which, points):
        code, out, err = run_cli(capsys, "figure", which, "--points", points)
        assert code == 2
        assert out == ""
        assert err == f"error: figure needs at least 1 point, got {points}\n"

    @pytest.mark.parametrize("which", ["gain-prefactor", "snr-ratio"])
    def test_single_point(self, capsys, which):
        code, out, _ = run_cli(capsys, "figure", which, "--points", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestPpt:
    def test_nonseparable_probe(self, capsys):
        code, out, _ = run_cli(capsys, "ppt", "--ns", "1", "--gain-db", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_ppt_symplectic_eigenvalue"] == pytest.approx(0.0857864, abs=1e-6)
        assert payload["verdict"] == "NONSEPARABLE"

    def test_vacuum_probe_is_separable(self, capsys):
        code, out, _ = run_cli(capsys, "ppt", "--ns", "0", "--gain", "1")
        assert code == 0
        assert json.loads(out)["verdict"] == "SEPARABLE"


class TestBrightInputs:
    def test_readme_sweep_to_1e8(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--ns", "0.01", "--param", "n_s",
                               "--from", "1e-3", "--to", "1e8", "--points", "100",
                               "--spacing", "log")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 100
        assert all(math.isfinite(float(x)) for row in rows for x in row[:5])

    def test_report_at_1e9_photons_and_30_db(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ns", "1e9", "--gain-db", "30")
        assert code == 0
        payload = json.loads(out)
        numbers = [v for v in payload.values() if isinstance(v, float)]
        assert numbers and all(math.isfinite(v) for v in numbers)
        assert 0.0 <= payload["p_error"] <= 0.5

    def test_simulate_at_ns_g2_1e6(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--ns", "1e4", "--gain", "10",
                               "--nb", "100", "--kappa", "1e-4", "--modes", "100",
                               "--trials", "20000", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert all(math.isfinite(v) for v in payload.values() if isinstance(v, float))
        spread = abs(payload["p_error_empirical"] - payload["p_error_analytic"])
        assert spread <= 5.0 * payload["std_error"]


def _fresh_interpreter(*args, **env):
    """Run ``python *args`` on this checkout's qillum, with ``env`` added to
    the environment; stdout and stderr are bytes, so line ends stay as written."""
    src = os.path.dirname(os.path.dirname(qillum.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


class TestImportPath:
    def test_cli_import_leaves_scipy_out(self):
        proc = _fresh_interpreter(
            "-c", "import qillum, qillum.cli, sys; assert 'scipy' not in sys.modules; "
            "assert callable(qillum.receiver_count_moments)")
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_no_pool_module(self):
        # the Monte Carlo starts its threads with threading, which numpy loads
        # anyway; either pool module would add its import to every command
        proc = _fresh_interpreter(
            "-c", "import qillum.cli, sys; "
            "assert {'concurrent.futures', 'multiprocessing'}.isdisjoint(sys.modules)")
        assert proc.returncode == 0, proc.stderr

    def test_validate_leaves_scipy_out(self):
        # the number-basis oracle runs on numpy alone
        proc = _fresh_interpreter(
            "-c", "import sys; from qillum.cli import main; "
            "assert main(['validate', '--dim', '8']) == 0; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
        assert proc.returncode == 0, proc.stderr

    def test_every_exported_name_resolves(self):
        # the benchmark tracer looks up every __all__ name of every module
        for info in pkgutil.iter_modules(qillum.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"qillum.{info.name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, f"qillum.{info.name}.__all__ names {missing}"
        # names imported into qillum/__init__.py; it resolves no name lazily
        tree = ast.parse(open(qillum.__file__).read())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names]
        assert "receiver_count_moments" in names and "receiver_stats" in names
        assert [n for n in names if not hasattr(qillum, n)] == []
        assert not hasattr(qillum, "__getattr__")


class TestEntryPoint:
    @pytest.mark.parametrize("argv", [["report", "--ns", "0.01"], ["--help"],
                                      ["report", "--ns", "1", "--bogus"]], ids=" ".join)
    def test_python_m_qillum_matches_its_golden_record(self, argv):
        # main(None) reads sys.argv itself; no in-process call takes that path
        case = next(case for case in GOLDEN_CALLS if case["argv"] == argv)
        proc = _fresh_interpreter("-m", "qillum", *argv, COLUMNS="80")
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            case["code"], case["stdout"], case["stderr"])


class TestValidate:
    def test_default_point_agrees_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--dim", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_relative_deviation"] < 1e-8
        assert payload["leakage"] < 1e-6
        # the Gaussian side is the kernel that report, sweep and simulate use
        s0, s1 = per_mode_count_stats(ScenarioParams(
            n_s=0.1, n_b=0.5, kappa=0.1, gain=GainSpec(2.0), modes=100))
        assert payload["h0_mean_gaussian"] == s0.mean == 0.0
        assert payload["h0_variance_gaussian"] == s0.variance
        assert payload["h1_mean_gaussian"] == s1.mean
        assert payload["h1_variance_gaussian"] == s1.variance

    def test_default_point_prints_no_warning(self, capsys):
        code, out, err = run_cli(capsys, "validate")
        assert (code, err) == (0, "")
        # validate's own point, not the defaults of the other commands
        payload = json.loads(out)
        assert (payload["n_s"], payload["n_b"], payload["kappa"], payload["gain"]) == (
            0.1, 0.5, 0.1, 2.0)

    def test_warns_when_the_box_cannot_hold_the_state(self, capsys, tmp_path):
        argv = ("validate", "--ns", "1e4", "--gain", "10", "--dim", "8")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["leakage"] > LEAKAGE_WARNING_THRESHOLD
        assert err.startswith("warning: leakage ") and err.count("\n") == 1
        assert "--dim 8" in err
        # the warning goes to stderr only; the row is the one --output writes
        target = tmp_path / "row.json"
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", err)
        assert target.read_text() == out

    @pytest.mark.parametrize("argv", [("--gain", "1000", "--dim", "30"),
                                      ("--gain-db", "30", "--dim", "60")], ids=" ".join)
    def test_high_gain_matches_the_gaussian_moments(self, capsys, argv):
        # the amplified idler enters in closed form, so no gain outgrows a box
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "validate", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["max_relative_deviation"] <= 1e-12
        assert payload["leakage"] <= 1e-12
        assert peak < 16 * 2**20


class TestSimulate:
    def test_empirical_matches_analytic(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--ns", "1", "--nb", "1", "--kappa", "0.01",
            "--gain", "2", "--modes", "100", "--trials", "50000", "--seed", "4",
        )
        assert code == 0
        payload = json.loads(out)
        spread = abs(payload["p_error_empirical"] - payload["p_error_analytic"])
        assert spread <= 3.0 * payload["std_error"]

    def test_fixed_seed_is_byte_identical(self, capsys):
        args = ("simulate", "--ns", "1", "--nb", "1", "--kappa", "0.01",
                "--gain", "2", "--modes", "100", "--trials", "10000", "--seed", "42")
        code, first, _ = run_cli(capsys, *args)
        code, second, _ = run_cli(capsys, *args)
        assert first == second


class TestErrorHandling:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_conflicting_gain_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--ns", "1", "--gain", "2", "--gain-db", "6"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "report", "--ns", "-1")
        assert code == 1
        assert "error:" in err

    def test_float64_overflow_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "report", "--ns", "1e200")
        assert (code, out) == (1, "")
        assert err == "error: count statistics overflow float64 at this brightness\n"

    def test_attenuating_gain_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "report", "--ns", "1", "--gain", "0.5")
        assert code == 1

    def test_gain_past_float64_exits_one(self, capsys):
        # Python's pow raises OverflowError at 10^(10000/20); the gain is named as inf
        code, out, err = run_cli(capsys, "report", "--ns", "1", "--gain-db", "10000")
        assert (code, out, err) == (1, "", "error: gain must be finite and >= 1, got inf\n")

    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 51.3 GiB for an array with shape (3019, 1520, 1500) "
                     "and data type float64"),
         "error: Unable to allocate 51.3 GiB for an array with shape (3019, 1520, 1500) "
         "and data type float64\n"),
        (MemoryError(), "error: MemoryError\n")], ids=["numpy", "bare"])
    def test_memory_error_exits_one(self, capsys, monkeypatch, exc, line):
        # the box the paper's point needs (n_b = 100, 30 dB, --dim 1500) cannot be
        # allocated; the oracle is stubbed so that nothing is
        def no_memory(*args):
            raise exc
        monkeypatch.setattr(cli.fock, "receiver_count_moments", no_memory)
        code, out, err = run_cli(capsys, "validate", "--ns", "0.01", "--nb", "100", "--kappa",
                                 "1e-3", "--gain-db", "30", "--dim", "1500")
        assert (code, out, err) == (1, "", line)

    @pytest.mark.parametrize("param,spacing,line", [
        ("n_s", "linear", "error: signal brightness must be finite and >= 0, got nan"),
        ("n_s", "log", "error: signal brightness must be finite and >= 0, got inf"),
        ("modes", "linear", "error: cannot convert float NaN to integer"),
        ("modes", "log", "error: cannot convert float infinity to integer")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_bound_prints_one_line(self, capsys, param, spacing, line):
        # numpy's grid warnings stay off stderr; the error line is all there is
        code, out, err = run_cli(capsys, "sweep", "--ns", "0.1", "--param", param,
                                 "--from", "1", "--to", "inf", "--spacing", spacing)
        assert (code, out, err) == (1, "", line + "\n")


#: The least each subcommand parses with.
REQUIRED_ARGV = {
    "report": ["--ns", "1"],
    "sweep": ["--ns", "1", "--param", "n_s", "--from", "1", "--to", "2"],
    "figure": ["snr-ratio"],
    "ppt": ["--ns", "1"],
    "validate": [],
    "simulate": ["--ns", "1"],
}

#: An argv per subcommand that sets every flag it has.  Of the exclusive gain
#: pair it sets ``--gain-db`` in report, sweep and validate, ``--gain`` in ppt
#: and simulate.
FULL_ARGV = {
    "report": ["--ns", "0.3", "--nb", "2", "--kappa", "0.05", "--modes", "7", "--gain-db", "9",
               "--format", "csv", "--output", "r.csv"],
    "sweep": ["--ns", "0.2", "--nb", "3", "--kappa", "0.01", "--modes", "11", "--gain-db", "12",
              "--param", "n_b", "--from", "0.1", "--to", "10", "--points", "9",
              "--spacing", "log", "--format", "json", "--output", "s.json"],
    "figure": ["gain-prefactor", "--points", "5", "--format", "json", "--output", "f.json"],
    "ppt": ["--ns", "2", "--gain", "3", "--format", "csv", "--output", "p.csv"],
    "validate": ["--ns", "0.2", "--nb", "0.1", "--kappa", "0.3", "--gain-db", "3", "--dim", "12",
                 "--format", "csv", "--output", "v.csv"],
    "simulate": ["--ns", "1", "--nb", "3", "--kappa", "0.2", "--modes", "50", "--gain", "4",
                 "--trials", "99", "--seed", "5", "--format", "csv", "--output", "m.csv"],
}


def _flags(parser: argparse.ArgumentParser) -> set:
    """A parser's option strings and positional names."""
    return {s for a in parser._actions for s in a.option_strings or [a.dest]}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """The full parser's subparser of each registered command."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _command_flags(parser: argparse.ArgumentParser) -> dict:
    """Each registered command's option strings and positional names."""
    return {name: _flags(command) for name, command in _subparsers(parser).items()}


#: The programs of the parsers the full ``qillum`` parser builds, in order.
FULL_PARSER_PROGS = ["qillum", *(f"qillum {command}" for command in REQUIRED_ARGV)]


class TestFlags:
    @pytest.mark.parametrize("command", REQUIRED_ARGV)
    def test_help_states_the_defaults_parse_args_gives(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = capsys.readouterr().out.split("options:", 1)[1]
        parsed = vars(build_parser().parse_args([command, *REQUIRED_ARGV[command]]))
        dests = set()
        for entry in re.split(r"\n  (?=--)", options)[1:]:  # one per flag after -h
            flag, *words = entry.split()
            dest = {"--from": "start", "--to": "stop"}.get(flag, flag[2:].replace("-", "_"))
            dests.add(dest)
            stated = re.search(r"\(default (\S+)\)$", " ".join(words))
            if flag in REQUIRED_ARGV[command]:
                assert stated is None
            elif parsed[dest] is None:
                assert stated is None, flag
            else:
                assert stated is not None, f"{command} {flag} hides its default"
                assert stated.group(1) == str(parsed[dest]), flag
        assert dests == set(parsed) - {"command", "func", "which"}

    @pytest.mark.parametrize("argv", ["required", "full"])
    @pytest.mark.parametrize("command", REQUIRED_ARGV)
    def test_command_parser_parses_as_the_full_parser(self, command, argv):
        argv = [command, *(REQUIRED_ARGV if argv == "required" else FULL_ARGV)[command]]
        full = build_parser()
        assert set(_subparsers(full)) == set(REQUIRED_ARGV)  # every name stays registered
        own = _flags(build_parser(command))
        assert own == _command_flags(full)[command]
        # same prog, usage and help text as the full parser's subparser
        assert build_parser(command).format_help() == _subparsers(full)[command].format_help()
        if argv[1:] == FULL_ARGV[command]:  # all but the unset one of the gain pair
            unset = own - {"-h", "--help", "which", *argv}
            assert unset in (set(), {"--gain"}, {"--gain-db"})
        parsed = vars(full.parse_args(argv))
        assert parsed.pop("command") == command
        assert vars(build_parser(command).parse_args(argv[1:])) == parsed

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["--bogus", "report"],
                                      ["--format", "csv", "report", "--ns", "1"]], ids=repr)
    def test_main_builds_every_flag_unless_argv_starts_with_a_command(
            self, monkeypatch, capsys, argv):
        built = []

        def spy(*command):
            built.append(build_parser(*command))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        with pytest.raises(SystemExit):
            main(argv)
        every = {name: _flags(build_parser(name)) for name in REQUIRED_ARGV}
        assert [_command_flags(parser) for parser in built] == [every]

    @pytest.mark.parametrize("argv,progs", [
        (["report", "--ns", "0.01"], ["qillum report"]),
        ([], FULL_PARSER_PROGS),
        (["--help"], FULL_PARSER_PROGS),
        (["frobnicate"], FULL_PARSER_PROGS),
        (["report", "--ns", "1", "--bogus"], ["qillum report", *FULL_PARSER_PROGS]),
    ], ids=["report", "no-argv", "help", "unknown-command", "unrecognized-argument"])
    def test_main_builds_the_full_parser_only_for_top_level_errors_and_help(
            self, monkeypatch, capsys, argv, progs):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        with contextlib.suppress(SystemExit):
            main(argv)
        assert built == progs

    def test_main_builds_the_invoked_commands_flags_from_sys_argv(self, monkeypatch, capsys):
        built = []

        def spy(*command):
            built.append(command)
            return build_parser(*command)

        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.setattr(sys, "argv", ["qillum", "report", "--ns", "1"])
        assert main() == 0
        from_sys_argv = capsys.readouterr()
        assert run_cli(capsys, "report", "--ns", "1") == (0, *from_sys_argv)
        assert built == [("report",), ("report",)]

    def test_validate_takes_no_modes(self, capsys):
        # the oracle compares one mode pair; a mode count would change nothing
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "--modes", "5"])
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --modes 5\n")


class TestOutputFile:
    def test_writes_to_path(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "figure", "gain-prefactor", "--points", "11", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "gain_db,prefactor"
        assert len(lines) == 12

    def test_missing_directory_exits_one(self, tmp_path, capsys):
        target = tmp_path / "missing" / "row.json"
        code, out, err = run_cli(capsys, "report", "--ns", "1", "--output", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_directory_as_output_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "sweep", "--ns", "0.1", "--param", "n_s",
                                 "--from", "0.1", "--to", "1", "--output", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 21] Is a directory: ") and err.count("\n") == 1


def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def reference_csv(rows: list[dict]) -> str:
    """The cell-by-cell route ``_emit`` took before it wrote by column:
    ``csv.writer`` over each cell's shortest round-trip text."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_reference_cell(v) for v in row.values()])
    return out.getvalue()


def emitted_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(rows, argparse.Namespace(format="csv", output=None))
    return out.getvalue()


LABELS = [regime.value for regime in Regime] + ["NONSEPARABLE", "SEPARABLE"]
CELLS = {
    "float": st.one_of(st.sampled_from([
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3,
        1e16, 9.999999999999999e-05]), st.floats()),
    "int": st.one_of(st.sampled_from([2**63, 2**64 + 1, -2**63 - 1]), st.integers()),
    "bool": st.booleans(),
    "label": st.sampled_from(LABELS),
}
CELLS["mixed"] = st.one_of(*CELLS.values(), st.floats().map(np.float64))


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    return [{f"{kind}_{i}": draw(CELLS[kind]) for i, kind in enumerate(kinds)}
            for _ in range(draw(st.integers(1, 12)))]


#: Calls whose rows cover every command, both figures and every regime.
ROW_ARGV = [
    ["report", "--ns", "0.01"], ["report", "--ns", "1e9", "--gain-db", "30"],
    *(["sweep", *argv] for argv in PINNED_SWEEPS),
    ["figure", "gain-prefactor"], ["figure", "snr-ratio"],
    ["ppt", "--ns", "1", "--gain-db", "12"], ["ppt", "--ns", "0", "--gain", "1"],
    ["validate", "--dim", "8"],
    ["simulate", "--ns", "1", "--trials", "1000"],
]


class TestCsv:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=tables())
    def test_by_column_equals_the_csv_writer_route(self, rows):
        assert emitted_csv(rows) == reference_csv(rows)

    @pytest.mark.parametrize("argv", ROW_ARGV, ids=" ".join)
    def test_no_cell_needs_quoting(self, argv):
        # CSV is written unquoted, so no header or cell may hold a delimiter,
        # a quote or a line break
        args = build_parser().parse_args(argv)
        rows = args.func(args)
        cells = {*rows[0], *(_reference_cell(v) for row in rows for v in row.values())}
        assert not [cell for cell in cells if re.search(r'[,"\r\n]', cell)]
        assert emitted_csv(rows) == reference_csv(rows)
