"""Workload inputs, the in-process op runner and the output checks.

Every input is drawn from ``random.Random("<workload>:<seed>")`` before
timing starts; the program only ever sees the generated argv, passed to
``qillum.cli.main``.  This module imports nothing heavy at import time:
``mpmath`` (used only by the output checks) is imported on first check, so
the fresh-interpreter set-up probe does not pay for it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from statistics import NormalDist

WORKLOADS = ("sweep", "report", "validate", "simulate")

#: Draws keep n_s * G^2 at or below this.  Brighter probes hit the known
#: float64 defect (ROADMAP item 2): ``detection_report`` raises "violates
#: the uncertainty principle" from ~1.6e3 and ``ppt`` loses its 1e-9
#: relative accuracy from ~3e2.  Those inputs go to the range probe instead.
BRIGHT_LIMIT = 100.0

#: Documented parameter ranges the draws span.
NS_RANGE = (1e-3, 1e9)
GAIN_DB_RANGE = (0.0, 30.0)
NB_RANGE = (1e-2, 1e4)
KAPPA_MAX = 0.999
MODES_RANGE = (1, 10**8)

SWEEP_POOL = 33          # odd, so alternating traced/untraced ops see every entry
SWEEP_POINTS = (50, 1000)
REPORT_POOL = 4095       # every fifth op is a ppt call
VALIDATE_BLOCK = 21      # ~ops per run; each block is Latin-hypercube stratified
VALIDATE_BLOCKS = 3      # fresh kappa each op; every third op at dim 60
VALIDATE_BOX = {"ns": (0.1, 0.5), "nb": (0.25, 1.0), "kappa": (0.1, 0.5), "gain": (1.0, 2.0)}
SIMULATE_POOL = 127
SIMULATE_TRIALS = 1_000_000
SIMULATE_P_TARGET = (1e-4, 0.3)   # keeps >= 200 expected errors for the 5-sigma check
PROBE_REPORT_OPS = 25
PROBE_SWEEPS = 5

#: Relative bound for the 50-digit spot checks of snr_qi and snr_csh.  The
#: closed forms lose at most ~eps/(G - 1) in the gain prefactor, far below this.
SNR_REL_BOUND = 1e-9
PPT_REL_BOUND = 1e-9
SIGMAS = 5.0

SWEEP_COLUMNS = ["value", "snr_qi", "snr_csh", "ratio", "p_error", "regime"]
REPORT_KEYS = ("n_s", "n_b", "kappa", "gain", "gain_db", "modes", "clt_reliable",
               "threshold", "p_error", "snr_closed_form", "snr_first_principles",
               "snr_csh", "ratio", "regime")
REGIMES = {"QUANTUM_ADVANTAGE", "PARITY", "DISADVANTAGE"}


@dataclass
class Op:
    """One CLI call plus what the checks need to know about it."""

    kind: str
    argv: list
    params: dict = field(default_factory=dict)
    points: int = 1

    def argv_with_output(self, tmpdir: str) -> list:
        if self.kind == "sweep":
            return self.argv + ["--output", os.path.join(tmpdir, "sweep.csv")]
        return self.argv


@dataclass
class Workload:
    name: str
    warmup: Op
    ops: list
    cycle: int            # the loop stops only after a whole number of cycles
    count_ops: int        # traced ops whose counts are reported
    probe: list           # bright inputs, run untimed after the loop
    tail_level: float     # op_tail_s percentile; see README.md
    calibrate: bool = True  # scale timings to the reference host speed


# ----------------------------------------------------------------------------
# Input generation


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _gain(db: float) -> float:
    """The program's float64 linear gain for a dB value (GainSpec.from_db)."""
    return 10.0 ** (db / 20.0)


def _scenario(rng: random.Random, bright: bool = False) -> dict:
    db = rng.uniform(*GAIN_DB_RANGE)
    g2 = _gain(db) ** 2
    if bright:
        ns = _loguniform(rng, max(NS_RANGE[0], 2.0 * BRIGHT_LIMIT / g2), NS_RANGE[1])
    else:
        ns = _loguniform(rng, NS_RANGE[0], min(NS_RANGE[1], BRIGHT_LIMIT / g2))
    return {
        "ns": ns,
        "nb": _loguniform(rng, *NB_RANGE),
        "kappa": rng.uniform(0.0, KAPPA_MAX),
        "gain_db": db,
        "modes": int(round(_loguniform(rng, *MODES_RANGE))),
    }


def _scenario_argv(s: dict) -> list:
    return ["--ns", repr(s["ns"]), "--nb", repr(s["nb"]), "--kappa", repr(s["kappa"]),
            "--modes", str(s["modes"]), "--gain-db", repr(s["gain_db"])]


def _report_op(s: dict) -> Op:
    return Op("report", ["report"] + _scenario_argv(s), s)


def _ppt_op(s: dict) -> Op:
    return Op("ppt", ["ppt", "--ns", repr(s["ns"]), "--gain-db", repr(s["gain_db"])], s)


def _sweep_op(rng: random.Random, points: int, bright: bool = False) -> Op:
    base = _scenario(rng, bright)
    param = rng.choice(("n_s", "n_b", "kappa", "gain_db", "modes"))
    spacing = rng.choice(("linear", "log"))
    if bright:
        param = "n_s"
    if param == "n_s":
        g2 = _gain(base["gain_db"]) ** 2
        lo, hi = ((2.0 * BRIGHT_LIMIT / g2, NS_RANGE[1]) if bright
                  else (NS_RANGE[0], BRIGHT_LIMIT / g2))
        lo = max(lo, NS_RANGE[0])
        ends = [_loguniform(rng, lo, hi) for _ in range(2)]
    elif param == "n_b":
        ends = [_loguniform(rng, *NB_RANGE) for _ in range(2)]
    elif param == "kappa":
        lo = 1e-4 if spacing == "log" else 0.0
        ends = [rng.uniform(lo, KAPPA_MAX) for _ in range(2)]
    elif param == "gain_db":
        top = min(GAIN_DB_RANGE[1], 10.0 * math.log10(BRIGHT_LIMIT / base["ns"]))
        lo = 0.01 if spacing == "log" else 0.0
        ends = [rng.uniform(lo, top) for _ in range(2)]
    else:
        ends = [float(round(_loguniform(rng, *MODES_RANGE))) for _ in range(2)]
    spec = {"param": param, "start": ends[0], "stop": ends[1], "points": points,
            "spacing": spacing, "spot": sorted({0, points - 1, rng.randrange(points)})}
    argv = (["sweep"] + _scenario_argv(base)
            + ["--param", param, "--from", repr(ends[0]), "--to", repr(ends[1]),
               "--points", str(points), "--spacing", spacing])
    return Op("sweep", argv, {**base, **spec}, points)


def _stratified_points(rng: random.Random, n: int) -> list:
    lo, hi = SWEEP_POINTS
    pts = [lo + int((i + rng.random()) / n * (hi - lo + 1)) for i in range(n)]
    rng.shuffle(pts)
    return [min(p, hi) for p in pts]


def _validate_op(s: dict, dim: int) -> Op:
    s = {**s, "dim": dim}
    argv = ["validate", "--ns", repr(s["ns"]), "--nb", repr(s["nb"]),
            "--kappa", repr(s["kappa"]), "--gain", repr(s["gain"]), "--dim", str(dim)]
    return Op("validate", argv, s)


def _stratified_box(rng: random.Random, n: int) -> list:
    """n points in VALIDATE_BOX, one per stratum of every coordinate."""
    cols = {}
    for key, (lo, hi) in VALIDATE_BOX.items():
        strata = list(range(n))
        rng.shuffle(strata)
        cols[key] = [lo + (hi - lo) * (k + rng.random()) / n for k in strata]
    return [{key: cols[key][i] for key in cols} for i in range(n)]


def count_stats_float(ns: float, nb: float, kappa: float, g: float):
    """Per-mode-pair (mu0, var0, mu1, var1) of N+ - N-, from the closed-form
    hypothesis covariances (float64; used only to aim simulate draws)."""
    nu = 2.0 * ns + 1.0
    c = 2.0 * math.sqrt(ns * (ns + 1.0))
    gamma = 2.0 * kappa * ns + 2.0 * nb + 1.0
    n2 = (g * g * nu + nu / (g * g) - 2.0) / 4.0
    picc = math.sqrt(kappa) * c * (g - 1.0 / g) / 4.0
    pscc = math.sqrt(kappa) * c * (g + 1.0 / g) / 4.0
    n1h1 = (gamma - 1.0) / 2.0
    var0 = 2.0 * nb * n2 + nb + n2
    var1 = 2.0 * picc ** 2 + 2.0 * pscc ** 2 + 2.0 * n1h1 * n2 + n1h1 + n2
    return 0.0, var0, 2.0 * picc, var1


def _simulate_op(rng: random.Random) -> Op:
    """A scenario plus the mode count that puts the error probability at a
    drawn target in SIMULATE_P_TARGET: p = erfc(sqrt(M/2) z)/2 = Phi(-sqrt(M) z).
    Scenarios that would need fewer than 100 modes are redrawn before any
    op runs."""
    while True:
        s = _scenario(rng)
        mu0, var0, mu1, var1 = count_stats_float(s["ns"], s["nb"], s["kappa"],
                                                 _gain(s["gain_db"]))
        z = (mu1 - mu0) / (math.sqrt(var0) + math.sqrt(var1))
        if z <= 0.0:
            continue
        target = _loguniform(rng, *SIMULATE_P_TARGET)
        modes = (NormalDist().inv_cdf(target) / z) ** 2
        if 100 <= modes <= 1e15:
            s["modes"] = int(round(modes))
            break
    s["trials"] = SIMULATE_TRIALS
    s["seed"] = rng.randrange(2 ** 32)
    argv = (["simulate"] + _scenario_argv(s)
            + ["--trials", str(SIMULATE_TRIALS), "--seed", str(s["seed"])])
    return Op("simulate", argv, s)


def _report_mix(rng: random.Random, n: int, bright: bool = False) -> list:
    return [(_ppt_op if i % 5 == 4 else _report_op)(_scenario(rng, bright))
            for i in range(n)]


def make_workload(name: str, seed: int) -> Workload:
    """Draw every input of one workload from the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        ops = [_sweep_op(rng, n) for n in _stratified_points(rng, SWEEP_POOL)]
        probe = [_sweep_op(rng, 100, bright=True) for _ in range(PROBE_SWEEPS)]
        return Workload(name, warmup=_sweep_op(rng, 100), ops=ops, cycle=1, count_ops=4,
                        probe=probe, tail_level=75.0)
    if name == "report":
        return Workload(name, warmup=_report_op(_scenario(rng)),
                        ops=_report_mix(rng, REPORT_POOL), cycle=5, count_ops=64,
                        probe=_report_mix(rng, PROBE_REPORT_OPS, bright=True), tail_level=99.0)
    if name == "validate":
        # the oracle's cost depends on kappa and G (expm squarings), so each
        # block covers the box evenly at both dims and runs see the same mix
        ops = []
        for _ in range(VALIDATE_BLOCKS):
            dim30 = _stratified_box(rng, 2 * VALIDATE_BLOCK // 3)
            dim60 = _stratified_box(rng, VALIDATE_BLOCK // 3)
            for c, s in enumerate(dim60):
                ops += [_validate_op(dim30[2 * c], 30), _validate_op(dim30[2 * c + 1], 30),
                        _validate_op(s, 60)]
        return Workload(name, warmup=_validate_op(_stratified_box(rng, 1)[0], 30), ops=ops,
                        cycle=3, count_ops=3, probe=[], tail_level=75.0, calibrate=False)
    if name == "simulate":
        ops = [_simulate_op(rng) for _ in range(SIMULATE_POOL)]
        return Workload(name, warmup=_simulate_op(rng), ops=ops, cycle=1, count_ops=8,
                        probe=[], tail_level=95.0)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------------
# Running one op


@dataclass
class Outcome:
    elapsed: float
    code: object          # exit code, or None when main raised
    stdout: str
    stderr: str
    error: str = ""       # repr of an exception that escaped main


def run_op(cli, op: Op, tmpdir: str) -> Outcome:
    """Call ``cli.main`` in process, capturing stdout and stderr; time it."""
    argv = op.argv_with_output(tmpdir)
    with contextlib.suppress(FileNotFoundError):  # never check a stale CSV
        os.remove(os.path.join(tmpdir, "sweep.csv"))
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return Outcome(elapsed, code, out.getvalue(), err.getvalue(), error)


# ----------------------------------------------------------------------------
# Checks.  Each returns a short failure reason, or "" when the output is right.


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _mp():
    import mpmath
    return mpmath


def snr_qi_ref(ns: float, nb: float, kappa: float, g: float):
    mp = _mp()
    with mp.workdps(50):
        ns, nb, kappa, g = (mp.mpf(v) for v in (ns, nb, kappa, g))
        nu = 2 * ns + 1
        c2 = 4 * ns * (ns + 1)
        omega = 2 * nb + 1
        gamma = 2 * kappa * ns + omega
        pref = (g - 1 / g) ** 2 / (g ** 2 + g ** -2)
        kc2 = kappa * c2
        return pref * kc2 / (mp.sqrt(gamma * nu + kc2) + mp.sqrt(nu * omega)) ** 2


def snr_csh_ref(ns: float, nb: float, kappa: float):
    mp = _mp()
    with mp.workdps(50):
        return mp.mpf(kappa) * mp.mpf(ns) / (4 * mp.mpf(nb) + 2)


def ppt_ref(ns: float):
    mp = _mp()
    with mp.workdps(50):
        ns = mp.mpf(ns)
        return 1 / (2 * (mp.sqrt(ns) + mp.sqrt(ns + 1)) ** 2)


def _close(value: float, ref, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _check_snrs(snr_qi: float, snr_csh: float, ns, nb, kappa, g) -> None:
    _require(_close(snr_qi, snr_qi_ref(ns, nb, kappa, g), SNR_REL_BOUND),
             "snr_qi off 50-digit reference")
    _require(_close(snr_csh, snr_csh_ref(ns, nb, kappa), SNR_REL_BOUND),
             "snr_csh off 50-digit reference")


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_sweep(op: Op, csv_text: str) -> None:
    import numpy as np

    rows = list(csv.reader(io.StringIO(csv_text)))
    _require(bool(rows) and rows[0] == SWEEP_COLUMNS, "sweep columns differ from documented")
    rows = rows[1:]
    _require(len(rows) == op.points, "sweep row count differs from --points")
    p = op.params
    if p["spacing"] == "log":
        grid = np.geomspace(p["start"], p["stop"], op.points)
    else:
        grid = np.linspace(p["start"], p["stop"], op.points)
    for i, row in enumerate(rows):
        _require(len(row) == len(SWEEP_COLUMNS), "sweep row has wrong field count")
        value, qi, csh, ratio, p_err = (float(x) for x in row[:5])
        expected = max(1, round(float(grid[i]))) if p["param"] == "modes" else float(grid[i])
        _require(value == expected, "sweep value differs from the requested grid")
        _require(_finite(qi, csh, p_err) and qi >= 0.0 and csh >= 0.0,
                 "sweep snr or p_error not finite")
        _require(math.isfinite(ratio) or csh == 0.0, "sweep ratio not finite")
        _require(0.0 <= p_err <= 0.5, "sweep p_error outside [0, 0.5]")
        _require(row[5] in REGIMES, "sweep regime label invalid")
        if i in p["spot"]:
            s = dict(ns=p["ns"], nb=p["nb"], kappa=p["kappa"], g=_gain(p["gain_db"]))
            if p["param"] == "gain_db":
                s["g"] = _gain(value)
            elif p["param"] != "modes":
                s[{"n_s": "ns", "n_b": "nb", "kappa": "kappa"}[p["param"]]] = value
            _check_snrs(qi, csh, **s)


def _check_report(op: Op, doc: dict) -> None:
    p = op.params
    _require(all(k in doc for k in REPORT_KEYS), "report keys differ from documented")
    _require((doc["n_s"], doc["n_b"], doc["kappa"], doc["modes"])
             == (p["ns"], p["nb"], p["kappa"], p["modes"]), "report does not echo its input")
    _require(_finite(doc["threshold"], doc["p_error"], doc["snr_closed_form"],
                     doc["snr_first_principles"], doc["snr_csh"], doc["gain"]),
             "report value not finite")
    _require(doc["ratio"] is not None or doc["snr_csh"] == 0.0, "report ratio not finite")
    _require(0.0 <= doc["p_error"] <= 0.5, "report p_error outside [0, 0.5]")
    _require(doc["regime"] in REGIMES, "report regime label invalid")
    _check_snrs(doc["snr_closed_form"], doc["snr_csh"], p["ns"], p["nb"], p["kappa"],
                _gain(p["gain_db"]))


def _check_ppt(op: Op, doc: dict) -> None:
    value = doc.get("min_ppt_symplectic_eigenvalue")
    _require(_finite(value), "ppt value missing or not finite")
    _require(_close(value, ppt_ref(op.params["ns"]), PPT_REL_BOUND),
             "ppt off closed form 1/(2(sqrt(n_s)+sqrt(n_s+1))^2)")
    _require(doc.get("verdict") == ("NONSEPARABLE" if value < 0.5 else "SEPARABLE"),
             "ppt verdict inconsistent with its value")


def validate_deviation(doc: dict) -> tuple:
    """(worst relative deviation, tolerance) as criterion 5 defines them."""
    worst = 0.0
    for h in ("h0", "h1"):
        for q in ("mean", "variance"):
            a, b = doc[f"{h}_{q}_gaussian"], doc[f"{h}_{q}_fock"]
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    return worst, max(1e-6, 10.0 * doc["leakage"])


def _check_validate(op: Op, doc: dict) -> None:
    _require(_finite(doc.get("leakage"), doc.get("max_relative_deviation"))
             and 0.0 <= doc["leakage"] < 1.0, "validate leakage or deviation invalid")
    worst, tol = validate_deviation(doc)
    _require(abs(worst - doc["max_relative_deviation"]) <= 1e-12,
             "validate misreports its own deviation")
    _require(worst <= tol, "validate deviation over max(1e-6, 10*leakage)")


def _check_simulate(op: Op, doc: dict) -> None:
    trials = op.params["trials"]
    p, emp = doc.get("p_error_analytic"), doc.get("p_error_empirical")
    _require(_finite(p, emp) and 0.0 <= p <= 0.5, "simulate probabilities invalid")
    _require(doc["trials"] == trials and doc["seed"] == op.params["seed"],
             "simulate does not echo trials and seed")
    _require(doc["false_alarms"] + doc["misses"] == round(emp * 2 * trials),
             "simulate error counts disagree with its estimate")
    se = math.sqrt(p * (1.0 - p) / (2.0 * trials))
    _require(abs(emp - p) <= SIGMAS * se, "simulate outside 5 standard errors of analytic")


_JSON_CHECKS = {"report": _check_report, "ppt": _check_ppt,
                "validate": _check_validate, "simulate": _check_simulate}


def check(op: Op, outcome: Outcome, tmpdir: str) -> str:
    """Return "" when the op succeeded with a correct output, else a reason."""
    if outcome.error:
        return f"raised {outcome.error.split(':')[0]}"
    if outcome.code != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {outcome.code}: {last[0][:60]}"
    try:
        if op.kind == "sweep":
            with open(os.path.join(tmpdir, "sweep.csv"), newline="") as fh:
                _check_sweep(op, fh.read())
        else:
            _JSON_CHECKS[op.kind](op, json.loads(outcome.stdout))
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable {op.kind} output ({type(exc).__name__})"
    return ""
