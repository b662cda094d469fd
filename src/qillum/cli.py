"""Command-line front end: single-point reports, parameter sweeps,
figure-data generation, oracle validation and Monte Carlo runs.

A call that names a command builds that command's parser alone; top-level
help, errors and unrecognized arguments build the full one.  All numeric
output uses shortest-round-trip decimal formatting, so values parse back
bit-identically; CSV is written a column at a time, locale-independent,
with one header row, deterministic ordering and no quoting (no cell holds
a comma, quote or line break).  Exit codes: 0 success, 2 argument error,
1 numerical-domain error or an unwritable ``--output``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np

from . import fock, illumination, montecarlo
from .gaussian import GainSpec, amplify_mode, min_ppt_symplectic_eigenvalue, tmsv_covariance

__all__ = ["build_parser", "main"]


class _ArgumentError(ValueError):
    """Bad input that argparse cannot see; ``main`` exits 2 on it."""


#: Scenario flags in declaration order: help text and type.
_SCENARIO_FLAGS = {
    "ns": ("signal mean photons per mode", float),
    "nb": ("background mean photons per mode", float),
    "kappa": ("target reflectance", float),
    "modes": ("number of signal-idler mode pairs", int),
}

#: The scenario flags of every command but ``validate``, with their defaults
#: (None: required); ``gain`` is the default of ``--gain``, 15 dB.
_SCENARIO = {"ns": None, "nb": 100.0, "kappa": 1e-3, "modes": 100, "gain": 10.0 ** 0.75}


def _arg(*flags, **options) -> tuple:
    return flags, options


def _add_flags(parser, command: str) -> argparse.ArgumentParser:
    """Give ``parser`` the flags of ``command`` from its ``_COMMANDS`` entry
    and return it: the scenario flags ``scenario`` names, with its defaults;
    the two gain flags if it names ``gain``; the ``own`` arguments (from
    :func:`_arg`); then ``--format`` and ``--output``.  Every help text
    states the default the command really uses."""
    func, _, fmt, scenario, own = _COMMANDS[command]
    for flag, default in scenario.items():
        if flag in _SCENARIO_FLAGS:
            text, kind = _SCENARIO_FLAGS[flag]
            parser.add_argument(f"--{flag}", type=kind, default=default, required=default is None,
                                help=text if default is None else f"{text} (default %(default)s)")
    if "gain" in scenario:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--gain-db", type=float,
                           help="amplifier gain in dB (20*log10 of the quadrature gain)")
        group.add_argument("--gain", type=float, default=scenario["gain"],
                           help="amplifier gain as a linear quadrature multiplier "
                                "(default %(default)s)")
    for flags, options in own:
        parser.add_argument(*flags, **options)
    parser.add_argument("--format", choices=("csv", "json"), default=fmt,
                        help="output format (default %(default)s)")
    parser.add_argument("--output", metavar="PATH",
                        help="write to PATH instead of standard output")
    parser.set_defaults(func=func)
    return parser


def _gain_from_args(args) -> GainSpec:
    return GainSpec(args.gain) if args.gain_db is None else GainSpec.from_db(args.gain_db)


def _params_from_args(args, modes: int) -> illumination.ScenarioParams:
    return illumination.ScenarioParams(
        n_s=args.ns, n_b=args.nb, kappa=args.kappa, gain=_gain_from_args(args), modes=modes)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def _emit(rows: list[dict], args) -> None:
    with (open(args.output, "w", newline="") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "json":
            payload = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
            json.dump(payload[0] if len(payload) == 1 else payload, out, indent=2)
            out.write("\n")
        else:
            keys = list(rows[0])  # float.__repr__ is _fmt's float branch, minus its calls
            cells = [map(float.__repr__ if set(map(type, col)) == {float} else _fmt, col)
                     for col in ([row[k] for row in rows] for k in keys)]
            out.write("".join(",".join(line) + "\r\n" for line in [keys, *zip(*cells)]))


def _echo(p: illumination.ScenarioParams) -> dict:
    """The input cells a scenario command's row starts with."""
    return {"n_s": p.n_s, "n_b": p.n_b, "kappa": p.kappa,
            "gain": p.gain.linear, "gain_db": p.gain.db}


def _evaluate(p: illumination.ScenarioParams) -> dict:
    """Threshold, error probability, SNRs, SNR ratio and regime of ``p``;
    each is an array when ``p`` is array-valued."""
    report, regime = illumination.detection_report(p), illumination.classify_regime(p)
    return {"threshold": report.threshold, "p_error": report.p_error,
            "snr_closed_form": report.snr_closed_form,
            "snr_first_principles": report.snr_first_principles,
            "snr_csh": illumination.snr_csh_closed_form(p),
            "ratio": regime.ratio, "regime": regime.regime}


def _cmd_report(args) -> list[dict]:
    p = _params_from_args(args, args.modes)
    quantities = _evaluate(p)
    return [{**_echo(p), "modes": p.modes, "clt_reliable": p.clt_reliable,
             **quantities, "regime": quantities["regime"].value}]


def _sweep_rows(base: illumination.ScenarioParams, name: str,
                values: np.ndarray) -> list[dict]:
    """Sweep rows for ``name`` over ``values``: one array-valued scenario,
    validated up front and evaluated in one call per quantity."""
    if name == "modes":
        values = np.array([max(1, int(round(v))) for v in values.tolist()])
    field = {"gain": GainSpec.from_db(values)} if name == "gain_db" else {name: values}
    q = _evaluate(dataclasses.replace(base, **field))
    columns = np.broadcast_arrays(
        values, q["snr_closed_form"], q["snr_csh"], q["ratio"], q["p_error"], q["regime"])
    keys = ("value", "snr_qi", "snr_csh", "ratio", "p_error")
    return [dict(zip(keys, row), regime=row[-1].value)
            for row in zip(*(c.tolist() for c in columns))]


def _cmd_sweep(args) -> list[dict]:
    if args.points < 2:
        raise _ArgumentError(f"sweep needs at least 2 points, got {args.points}")
    log = args.spacing == "log"
    if log and (args.start <= 0 or args.stop <= 0):
        raise _ArgumentError("log spacing requires positive bounds")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite point is refused below
        values = (np.geomspace if log else np.linspace)(args.start, args.stop, args.points)
    return _sweep_rows(_params_from_args(args, args.modes), args.param, values)


def _cmd_figure(args) -> list[dict]:
    if args.points < 1:
        raise _ArgumentError(f"figure needs at least 1 point, got {args.points}")
    if args.which == "gain-prefactor":
        grid = np.linspace(0.0, 30.0, args.points)
        prefactor = illumination.gain_prefactor(GainSpec.from_db(grid))
        return [{"gain_db": g, "prefactor": f} for g, f in zip(grid.tolist(), prefactor.tolist())]
    # snr-ratio: amplified-idler vs homodyne benchmark curve
    base = illumination.ScenarioParams(n_s=1e-2, n_b=100.0, kappa=1e-3,
                                       gain=GainSpec.from_db(15.0), modes=1)
    return [{"n_s": row["value"], "snr_qi": row["snr_qi"],
             "snr_csh": row["snr_csh"], "ratio": row["ratio"]}
            for row in _sweep_rows(base, "n_s", np.geomspace(1e-2, 1e8, args.points))]


def _cmd_ppt(args) -> list[dict]:
    gain = _gain_from_args(args)
    if not math.isfinite(args.ns) or args.ns < 0:
        raise ValueError(f"--ns must be finite and >= 0, got {args.ns}")
    value = min_ppt_symplectic_eigenvalue(amplify_mode(tmsv_covariance(args.ns), 2, gain))
    return [{"n_s": args.ns, "gain": gain.linear, "gain_db": gain.db,
             "min_ppt_symplectic_eigenvalue": value,
             "verdict": "NONSEPARABLE" if value < 0.5 else "SEPARABLE"}]


def _cmd_validate(args) -> list[dict]:
    p = _params_from_args(args, 1)  # the oracle compares one mode pair
    row = {**_echo(p), "dim": args.dim}
    worst = leak_worst = 0.0
    s0, s1 = illumination.per_mode_count_stats(p)
    for label, gauss, present in (("h0", s0, False), ("h1", s1, True)):
        oracle, leakage = fock.receiver_count_moments(p, args.dim, present)
        for stat in ("mean", "variance"):
            g, o = getattr(gauss, stat), getattr(oracle, stat)
            row[f"{label}_{stat}_gaussian"], row[f"{label}_{stat}_fock"] = g, o
            worst = max(worst, abs(g - o) / max(abs(g), abs(o), 1.0))  # floored at one photon
        leak_worst = max(leak_worst, leakage)
    row["max_relative_deviation"] = worst
    row["leakage"] = leak_worst
    if leak_worst > fock.LEAKAGE_WARNING_THRESHOLD:
        print(f"warning: leakage {leak_worst:.4g} is above {fock.LEAKAGE_WARNING_THRESHOLD:g}; "
              f"the --dim {args.dim} box cannot hold this state, so the comparison "
              "is not trustworthy", file=sys.stderr)
    return [row]


def _cmd_simulate(args) -> list[dict]:
    p = _params_from_args(args, args.modes)
    cfg = montecarlo.TrialConfig(params=p, trials=args.trials, seed=args.seed)
    estimate = montecarlo.estimate_error_probability(cfg)
    return [{**_echo(p), "modes": p.modes, "trials": estimate.trials, "seed": args.seed,
             "threshold": estimate.threshold, "p_error_empirical": estimate.p_error,
             "std_error": estimate.std_error, "false_alarms": estimate.false_alarms,
             "misses": estimate.misses, "p_error_analytic": estimate.p_error_analytic}]


#: Each command: handler, summary, default format, scenario flags, own arguments.
_COMMANDS = {
    "report": (_cmd_report, "detection report for one scenario", "json", _SCENARIO, ()),
    "sweep": (_cmd_sweep, "sweep one parameter, emit per-point metrics", "csv", _SCENARIO, (
        _arg("--param", required=True, choices=("n_s", "n_b", "kappa", "gain_db", "modes"),
             help="which parameter to sweep"),
        _arg("--from", dest="start", type=float, required=True, help="first swept value"),
        _arg("--to", dest="stop", type=float, required=True, help="last swept value"),
        _arg("--points", type=int, default=50, help="point count (default %(default)s)"),
        _arg("--spacing", choices=("linear", "log"), default="linear",
             help="point spacing (default %(default)s)"))),
    "figure": (_cmd_figure, "emit reference curve data", "csv", {}, (
        _arg("which", choices=("gain-prefactor", "snr-ratio")),
        _arg("--points", type=int, default=301, help="point count (default %(default)s)"))),
    "ppt": (_cmd_ppt, "partial-transpose separability test of the probe", "json",
            {"ns": None, "gain": _SCENARIO["gain"]}, ()),
    "validate": (_cmd_validate, "compare the Gaussian pipeline with the number-basis oracle",
                 "json", {"ns": 0.1, "nb": 0.5, "kappa": 0.1, "gain": 2.0}, (
        _arg("--dim", type=int, default=30,
             help="per-mode truncation dimension (default %(default)s)"),)),
    "simulate": (_cmd_simulate, "Monte Carlo estimate of the error probability", "json",
                 _SCENARIO, (
        _arg("--trials", type=int, default=100_000,
             help="trials per hypothesis (default %(default)s)"),
        _arg("--seed", type=int, default=1, help="reproducibility seed (default %(default)s)"))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, as ``qillum`` would build it for
    that subcommand; or, when it is None, the full ``qillum`` parser with
    every command and its flags."""
    if command is not None:
        return _add_flags(argparse.ArgumentParser(prog=f"qillum {command}"), command)
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Entangled-probe target detection with an amplified idler: "
                    "reports, sweeps, figure data, oracle validation, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, *_) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=summary), name)
    return parser


def main(argv=None) -> int:
    """Run one command; emit its rows.  Exit codes: 2 for an argument error
    argparse cannot see; 1 for any other ``ValueError``, an ``OverflowError``,
    a ``MemoryError`` (an oracle box too large to allocate) and an ``OSError``
    (an unwritable ``--output``); each with one ``error:`` line on stderr."""
    argv = sys.argv[1:] if argv is None else argv
    args = extra = None
    if argv and argv[0] in _COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extra:  # top-level help and errors, worded by the full parser
        args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args)
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, _ArgumentError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
