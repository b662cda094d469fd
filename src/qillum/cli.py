"""Command-line front end: single-point reports, parameter sweeps,
figure-data generation, oracle validation and Monte Carlo runs.

All numeric output uses shortest-round-trip decimal formatting, so values
parse back bit-identically; CSV is locale-independent with one header row
and deterministic ordering.  Exit codes: 0 success, 2 argument error,
1 numerical-domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock, illumination, montecarlo
from .gaussian import GainSpec, amplify_mode, min_ppt_symplectic_eigenvalue, tmsv_covariance

__all__ = ["SweepSpec", "build_parser", "main"]

_SWEEPABLE = ("n_s", "n_b", "kappa", "gain_db", "modes")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: name, inclusive bounds, point count, spacing."""

    parameter: str
    start: float
    stop: float
    points: int
    spacing: str

    def __post_init__(self):
        if self.parameter not in _SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if self.points < 2:
            raise ValueError(f"sweep needs at least 2 points, got {self.points}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be linear or log, got {self.spacing!r}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log spacing requires positive bounds")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def _add_gain_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--gain-db", type=float, default=None,
                       help="amplifier gain in dB (20*log10 of the quadrature gain)")
    group.add_argument("--gain", type=float, default=None,
                       help="amplifier gain as a linear quadrature multiplier")


def _add_scenario_flags(parser: argparse.ArgumentParser, *, ns_default=None) -> None:
    parser.add_argument("--ns", type=float, default=ns_default,
                        required=ns_default is None,
                        help="signal mean photons per mode")
    parser.add_argument("--nb", type=float, default=100.0,
                        help="background mean photons per mode (default 100)")
    parser.add_argument("--kappa", type=float, default=1e-3,
                        help="target reflectance (default 1e-3)")
    parser.add_argument("--modes", type=int, default=100,
                        help="number of signal-idler mode pairs (default 100)")
    _add_gain_flags(parser)


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=default_format,
                        help=f"output format (default {default_format})")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write to PATH instead of standard output")


def _gain_from_args(args) -> GainSpec:
    if args.gain is not None:
        return GainSpec(args.gain)
    if args.gain_db is not None:
        return GainSpec.from_db(args.gain_db)
    return GainSpec(getattr(args, "gain_default", 10.0 ** 0.75))


def _params_from_args(args) -> illumination.ScenarioParams:
    return illumination.ScenarioParams(
        n_s=args.ns, n_b=args.nb, kappa=args.kappa,
        gain=_gain_from_args(args), modes=args.modes,
    )


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
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        if args.format == "json":
            payload = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
            json.dump(payload[0] if len(payload) == 1 else payload, out, indent=2)
            out.write("\n")
        else:
            writer = csv.writer(out)
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_fmt(v) for v in row.values()])
    finally:
        if args.output:
            out.close()


def _relative_deviation(a: float, b: float) -> float:
    """|a - b| scaled by the larger magnitude, floored at the one-photon
    scale so exactly-zero means compare sanely."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _cmd_report(args) -> int:
    p = _params_from_args(args)
    report = illumination.detection_report(p)
    regime = illumination.classify_regime(p)
    _emit([{
        "n_s": p.n_s,
        "n_b": p.n_b,
        "kappa": p.kappa,
        "gain": p.gain.linear,
        "gain_db": p.gain.db,
        "modes": p.modes,
        "clt_reliable": p.clt_reliable,
        "threshold": report.threshold,
        "p_error": report.p_error,
        "snr_closed_form": report.snr_closed_form,
        "snr_first_principles": report.snr_first_principles,
        "snr_csh": illumination.snr_csh_closed_form(p),
        "ratio": regime.ratio,
        "regime": regime.regime.value,
    }], args)
    return 0


def _sweep_rows(base: illumination.ScenarioParams, name: str,
                values: np.ndarray) -> list[dict]:
    """Sweep rows for ``name`` over ``values``: one array-valued scenario,
    validated up front and evaluated in one call per quantity."""
    fields = dict(n_s=base.n_s, n_b=base.n_b, kappa=base.kappa,
                  gain=base.gain, modes=base.modes)
    if name == "gain_db":
        fields["gain"] = GainSpec.from_db(values)
    elif name == "modes":
        fields["modes"] = values = np.array([max(1, int(round(v))) for v in values.tolist()])
    else:
        fields[name] = values
    p = illumination.ScenarioParams(**fields)
    regime = illumination.classify_regime(p)
    report = illumination.detection_report(p)
    columns = np.broadcast_arrays(
        values, report.snr_closed_form, illumination.snr_csh_closed_form(p),
        regime.ratio, report.p_error, regime.regime)
    keys = ("value", "snr_qi", "snr_csh", "ratio", "p_error")
    return [dict(zip(keys, row), regime=row[-1].value)
            for row in zip(*(c.tolist() for c in columns))]


def _cmd_sweep(args) -> int:
    try:
        spec = SweepSpec(parameter=args.param, start=args.start, stop=args.stop,
                         points=args.points, spacing=args.spacing)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(_sweep_rows(_params_from_args(args), spec.parameter, spec.values()), args)
    return 0


def _cmd_figure(args) -> int:
    if args.points < 1:
        print(f"error: figure needs at least 1 point, got {args.points}", file=sys.stderr)
        return 2
    rows = []
    if args.which == "gain-prefactor":
        for gain_db in np.linspace(0.0, 30.0, args.points):
            rows.append({
                "gain_db": float(gain_db),
                "prefactor": illumination.gain_prefactor(GainSpec.from_db(gain_db)),
            })
    else:  # snr-ratio: amplified-idler vs homodyne benchmark curve
        base = illumination.ScenarioParams(n_s=1e-2, n_b=100.0, kappa=1e-3,
                                           gain=GainSpec.from_db(15.0), modes=1)
        for row in _sweep_rows(base, "n_s", np.geomspace(1e-2, 1e8, args.points)):
            rows.append({"n_s": row["value"], "snr_qi": row["snr_qi"],
                         "snr_csh": row["snr_csh"], "ratio": row["ratio"]})
    _emit(rows, args)
    return 0


def _cmd_ppt(args) -> int:
    gain = _gain_from_args(args)
    if not math.isfinite(args.ns) or args.ns < 0:
        raise ValueError(f"--ns must be finite and >= 0, got {args.ns}")
    state = amplify_mode(tmsv_covariance(args.ns), 2, gain)
    value = min_ppt_symplectic_eigenvalue(state)
    _emit([{
        "n_s": args.ns,
        "gain": gain.linear,
        "gain_db": gain.db,
        "min_ppt_symplectic_eigenvalue": value,
        "verdict": "NONSEPARABLE" if value < 0.5 else "SEPARABLE",
    }], args)
    return 0


def _cmd_validate(args) -> int:
    p = _params_from_args(args)
    row = {
        "n_s": p.n_s, "n_b": p.n_b, "kappa": p.kappa,
        "gain": p.gain.linear, "gain_db": p.gain.db, "dim": args.dim,
    }
    worst = 0.0
    leak_worst = 0.0
    s0, s1 = illumination.per_mode_count_stats(p)
    for label, gauss, present in (("h0", s0, False), ("h1", s1, True)):
        try:
            oracle, leakage = fock.receiver_count_moments(p, args.dim, present)
        except fock.SqueezerTooLarge as exc:
            print(f"error: --gain {p.gain.linear:g} is out of the oracle's reach at "
                  f"--dim {args.dim}: {exc}", file=sys.stderr)
            return 2
        row[f"{label}_mean_gaussian"] = gauss.mean
        row[f"{label}_mean_fock"] = oracle.mean
        row[f"{label}_variance_gaussian"] = gauss.variance
        row[f"{label}_variance_fock"] = oracle.variance
        worst = max(worst,
                    _relative_deviation(gauss.mean, oracle.mean),
                    _relative_deviation(gauss.variance, oracle.variance))
        leak_worst = max(leak_worst, leakage)
    row["max_relative_deviation"] = worst
    row["leakage"] = leak_worst
    _emit([row], args)
    if leak_worst > fock.LEAKAGE_WARNING_THRESHOLD:
        print(f"warning: leakage {leak_worst:.4g} is above {fock.LEAKAGE_WARNING_THRESHOLD:g}; "
              f"the --dim {args.dim} box cannot hold this state, so the comparison "
              "is not trustworthy", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    p = _params_from_args(args)
    cfg = montecarlo.TrialConfig(params=p, trials=args.trials, seed=args.seed)
    estimate = montecarlo.estimate_error_probability(cfg)
    _emit([{
        "n_s": p.n_s, "n_b": p.n_b, "kappa": p.kappa,
        "gain": p.gain.linear, "gain_db": p.gain.db, "modes": p.modes,
        "trials": estimate.trials, "seed": args.seed,
        "threshold": estimate.threshold,
        "p_error_empirical": estimate.p_error,
        "std_error": estimate.std_error,
        "false_alarms": estimate.false_alarms,
        "misses": estimate.misses,
        "p_error_analytic": illumination.detection_report(p).p_error,
    }], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Entangled-probe target detection with an amplified idler: "
                    "reports, sweeps, figure data, oracle validation, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="detection report for one scenario")
    _add_scenario_flags(rep)
    _add_output_flags(rep, "json")
    rep.set_defaults(func=_cmd_report)

    swp = sub.add_parser("sweep", help="sweep one parameter, emit per-point metrics")
    _add_scenario_flags(swp)
    swp.add_argument("--param", required=True, choices=_SWEEPABLE,
                     help="which parameter to sweep")
    swp.add_argument("--from", dest="start", type=float, required=True,
                     help="first swept value")
    swp.add_argument("--to", dest="stop", type=float, required=True,
                     help="last swept value")
    swp.add_argument("--points", type=int, default=50, help="point count (default 50)")
    swp.add_argument("--spacing", choices=("linear", "log"), default="linear")
    _add_output_flags(swp, "csv")
    swp.set_defaults(func=_cmd_sweep)

    fig = sub.add_parser("figure", help="emit reference curve data")
    fig.add_argument("which", choices=("gain-prefactor", "snr-ratio"))
    fig.add_argument("--points", type=int, default=301,
                     help="point count (default 301)")
    _add_output_flags(fig, "csv")
    fig.set_defaults(func=_cmd_figure)

    ppt = sub.add_parser("ppt", help="partial-transpose separability test of the probe")
    ppt.add_argument("--ns", type=float, required=True,
                     help="signal mean photons per mode")
    _add_gain_flags(ppt)
    _add_output_flags(ppt, "json")
    ppt.set_defaults(func=_cmd_ppt)

    val = sub.add_parser("validate", help="compare the Gaussian pipeline with the "
                                          "number-basis oracle")
    _add_scenario_flags(val, ns_default=0.1)
    val.set_defaults(nb=0.5, kappa=0.1, gain_default=2.0)
    val.add_argument("--dim", type=int, default=30,
                     help="per-mode truncation dimension (default 30)")
    _add_output_flags(val, "json")
    val.set_defaults(func=_cmd_validate)

    sim = sub.add_parser("simulate", help="Monte Carlo estimate of the error probability")
    _add_scenario_flags(sim)
    sim.add_argument("--trials", type=int, default=100_000,
                     help="trials per hypothesis (default 100000)")
    sim.add_argument("--seed", type=int, default=1, help="reproducibility seed")
    _add_output_flags(sim, "json")
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
