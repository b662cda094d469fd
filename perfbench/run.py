"""qillum benchmark: closed-loop workloads through ``qillum.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process, one client thread: each op is sent when the previous one has
returned.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same loop with every other op traced and prints the per-layer metrics.
The last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 6
LOOP_WALL_SLACK_S = 60.0
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "points_per_s": "1/s"}


# ----------------------------------------------------------------------------
# Set-up in fresh interpreters


def _importtime_s(stderr: str, family: str) -> float:
    """Cumulative ``-X importtime`` seconds of the outermost ``family`` imports."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), int(m.group(2)), m.group(4)))
    total = 0
    for i, (depth, cumulative, name) in enumerate(rows):
        if name.split(".")[0] != family:
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[2].split(".")[0] != family:
            total += cumulative
    return total / 1e6


def setup_probe(workload: str, seed: int, importtime: bool) -> dict:
    """One fresh-interpreter set-up probe, followed by the import reference."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "setup_child.py"), workload, str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        probe["numpy_s"] = _importtime_s(proc.stderr, "numpy")
        probe["scipy_s"] = _importtime_s(proc.stderr, "scipy")
    probe["ref_s"] = calibration.import_point()
    return probe


# ----------------------------------------------------------------------------
# Environment


def _git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "qillum", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            getter = getattr(handle, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment(args) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
    }


# ----------------------------------------------------------------------------
# The closed loop


class Record:
    __slots__ = ("op", "elapsed", "reason", "traced", "profile", "cache", "doc", "scale")

    def __init__(self, op, elapsed, reason, traced):
        self.op, self.elapsed, self.reason, self.traced = op, elapsed, reason, traced
        self.profile, self.cache, self.doc = None, None, None
        self.scale = 1.0  # host-speed factor; see calibration.py

    @property
    def scaled(self) -> float:
        return self.elapsed * self.scale


def _run_checked(cli, op, tmp, tracer=None, fock=None):
    """Run one op (traced when ``tracer`` is given) and check its output."""
    if tracer is not None:
        before = fock._bs_sector_unitary.cache_info()
        tracer.install()
    try:
        outcome = workloads.run_op(cli, op, tmp)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec = Record(op, outcome.elapsed, workloads.check(op, outcome, tmp), tracer is not None)
    if tracer is not None:
        after = fock._bs_sector_unitary.cache_info()
        rec.cache = (after.hits - before.hits, after.misses - before.misses, after.currsize)
        rec.profile = tracer.take()
    if op.kind == "validate" and not rec.reason:
        rec.doc = json.loads(outcome.stdout)
    return rec


def run_loop(cli, fock, wl, seconds: float, tracer, tmp, probe, probe_runs: int) -> tuple:
    """Closed loop over the workload's ops until ``seconds`` of op time have
    passed, at a whole number of cycles (and, traced, the count window).

    ``probe()`` runs a set-up probe between two ops.  The ``probe_runs``
    probes are spread evenly over the loop's op time, from its start to its
    end, so that a change in host speed during the run reaches them alike.
    """
    from spans import op_profile

    records, kept_spans, probes = [], [], []
    loop_time, traced = 0.0, 0
    wall_end = time.perf_counter() + seconds + LOOP_WALL_SLACK_S
    probe_gap = seconds / max(1, probe_runs - 1)
    cal = calibration.point() if wl.calibrate else None
    pending, since_cal = [], 0.0

    def calibrate():
        """Scale the ops since the last point by the mean of the two points."""
        nonlocal cal, pending, since_cal
        new = calibration.point()
        for rec in pending:
            rec.scale = calibration.NOMINAL_S / ((cal + new) / 2.0)
        cal, pending, since_cal = new, [], 0.0

    i = 0
    while True:
        if len(probes) < probe_runs and loop_time >= len(probes) * probe_gap:
            probes.append(probe())
        op = wl.ops[i % len(wl.ops)]
        trace_this = tracer is not None and i % 2 == 0
        rec = _run_checked(cli, op, tmp, tracer if trace_this else None, fock)
        if trace_this:
            traced += 1
            if traced <= wl.count_ops:
                kept_spans.append((i, rec.profile))
            rec.profile = op_profile(rec.profile)
        records.append(rec)
        loop_time += rec.elapsed
        i += 1
        if cal is not None:
            pending.append(rec)
            since_cal += rec.elapsed
        done = (loop_time >= seconds and i % wl.cycle == 0
                and (tracer is None or traced >= wl.count_ops))
        if cal is not None and (since_cal >= calibration.PERIOD_S or done):
            calibrate()
        if done or time.perf_counter() > wall_end:
            if pending:
                calibrate()
            probes += [probe() for _ in range(probe_runs - len(probes))]
            return records, kept_spans, probes


# ----------------------------------------------------------------------------
# Metrics


def tail(times: list, level: float) -> tuple:
    """Nearest-rank ``level`` percentile and the number of ops beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _setup_scale(probe: dict) -> float:
    """Host-speed factor of one set-up probe; see ``calibration.import_point``."""
    return calibration.IMPORT_NOMINAL_S / probe["ref_s"]


def _timings(records, probes, wl, attr: str) -> dict:
    ok = [r for r in records if not r.reason]
    times = [getattr(r, attr) for r in (ok or records)]
    tail_s, beyond = tail(times, wl.tail_level)
    loop_time = sum(getattr(r, attr) for r in records)
    setup = [p["setup_s"] * (_setup_scale(p) if attr == "scaled" else 1.0) for p in probes]
    out = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "points_per_s": sum(r.op.points for r in ok) / loop_time,
        "ops_beyond_tail": beyond,
        "ops_ok": len(ok),
    }
    if wl.name == "simulate":
        out["trials_per_s"] = sum(2 * r.op.params["trials"] for r in ok) / loop_time
    return out


def end_to_end(records, probes, wl) -> tuple:
    """Metrics at the reference host speed, plus the raw wall-clock figures."""
    scaled = _timings(records, probes, wl, "scaled")
    metrics = {k: scaled[k] for k in END_TO_END}
    extra = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "op_tail_level": f"p{wl.tail_level:g}", "ops_beyond_tail": scaled["ops_beyond_tail"],
             "ops_ok": scaled["ops_ok"], "loop_time_s": sum(r.elapsed for r in records),
             "host_speed": statistics.median(r.scale for r in records),
             "setup_host_speed": statistics.median(_setup_scale(p) for p in probes)}
    if "trials_per_s" in scaled:
        extra["trials_per_s"] = scaled["trials_per_s"]
    raw = _timings(records, probes, wl, "elapsed")
    extra.update({f"raw.{k}": raw[k] for k in
                  ("setup_s", "op_p50_s", "op_tail_s", "points_per_s", "trials_per_s") if k in raw})
    return metrics, extra


PER_LAYER = {
    "import.numpy_s": "s", "import.scipy_s": "s", "import.qillum_s": "s",
    "import.modules": "count",
    "cli.parse_s": "s", "cli.self_s": "s", "cli.rows_out": "count/op",
    "gaussian.busy_s": "s", "gaussian.validate_s": "s",
    "gaussian.validations_per_point": "count/point", "gaussian.ppt_s": "s",
    "gaussian.raised": "count",
    "illumination.busy_s": "s", "illumination.self_s": "s",
    "illumination.count_stats_s": "s", "illumination.detection_reports_per_point": "count/point",
    "fock.busy_s": "s", "fock.squeeze_s": "s", "fock.self_s": "s",
    "fock.sector_cache_misses": "count/op", "fock.sector_cache_hit_ratio": "ratio",
    "fock.sector_cache_entries": "count", "fock.leakage_max": "ratio",
    "fock.dev_over_tol_max": "ratio",
    "montecarlo.busy_s": "s", "montecarlo.analytic_s": "s", "montecarlo.sampling_s": "s",
    "montecarlo.draws": "count/op", "montecarlo.streams": "count/op",
    "trace.overhead_frac": "ratio",
}

# per-layer time metric -> key of spans.op_profile; seconds per traced op
_TIME_KEYS = {
    "cli.parse_s": "cli.parse", "cli.self_s": "cli.self",
    "gaussian.busy_s": "gaussian.busy", "gaussian.validate_s": "gaussian.validate",
    "gaussian.ppt_s": "gaussian.ppt",
    "illumination.busy_s": "illumination.busy", "illumination.self_s": "illumination.self",
    "illumination.count_stats_s": "illumination.count_stats",
    "fock.busy_s": "fock.busy", "fock.squeeze_s": "fock.squeeze",
    "fock.self_s": "fock.self_outside_squeeze",
    "montecarlo.busy_s": "montecarlo.busy", "montecarlo.analytic_s": "montecarlo.analytic",
    "montecarlo.sampling_s": "montecarlo.self",
}


def per_layer(records, probe_records, probes, wl, shard_size) -> dict:
    traced = [r for r in records if r.traced]
    traced_ok = [r for r in traced if not r.reason] or traced
    untraced_ok = [r for r in records if not r.traced and not r.reason]
    window = traced[:wl.count_ops]
    m = {"import.modules": statistics.median(p["modules"] for p in probes)}
    for metric, key in (("import.numpy_s", "numpy_s"), ("import.scipy_s", "scipy_s"),
                        ("import.qillum_s", "import_qillum_s")):
        m[metric] = statistics.median(p[key] * _setup_scale(p) for p in probes)
    for metric, key in _TIME_KEYS.items():
        m[metric] = statistics.fmean(r.profile[key] * r.scale for r in traced_ok)

    def total(key, recs=window):
        return sum(r.profile[key] for r in recs)

    points = sum(r.op.points for r in window)
    m["cli.rows_out"] = total("cli.rows") / len(window)
    m["gaussian.validations_per_point"] = total("gaussian.validations") / points
    m["gaussian.raised"] = total("gaussian.raised") + total("gaussian.raised", probe_records)
    m["illumination.detection_reports_per_point"] = (
        total("illumination.detection_reports") / points)
    hits = sum(r.cache[0] for r in window)
    misses = sum(r.cache[1] for r in window)
    m["fock.sector_cache_misses"] = misses / len(window)
    m["fock.sector_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["fock.sector_cache_entries"] = window[-1].cache[2]
    docs = [r.doc for r in window if r.doc]
    devs = [workloads.validate_deviation(d) for d in docs]
    m["fock.leakage_max"] = max((d["leakage"] for d in docs), default=0.0)
    m["fock.dev_over_tol_max"] = max((dev / tol for dev, tol in devs), default=0.0)
    trials = [r.op.params["trials"] for r in window if r.op.kind == "simulate"]
    m["montecarlo.draws"] = sum(2 * t for t in trials) / len(window)
    m["montecarlo.streams"] = sum(2 * math.ceil(t / shard_size) for t in trials) / len(window)
    if untraced_ok:
        m["trace.overhead_frac"] = (
            statistics.median(r.scaled for r in traced_ok)
            / statistics.median(r.scaled for r in untraced_ok) - 1.0)
    else:
        m["trace.overhead_frac"] = 0.0
    return {k: m[k] for k in PER_LAYER}


def _tally(records) -> dict:
    return dict(Counter(r.reason for r in records if r.reason).most_common())


def _write_spans(workload: str, kept: list) -> str:
    """Spans of the count-window ops; times in ns from each op's first span."""
    path = os.path.join(OUT, f"{workload}-spans.json")
    names, rows = {}, []
    for op_index, spans in kept:
        t0 = spans[0][2] if spans else 0.0
        rows += [[op_index, names.setdefault(name, len(names)), round((start - t0) * 1e9),
                  round((end - t0) * 1e9), parent, int(raised)]
                 for name, _, start, end, parent, raised, _ in spans]
    with open(path, "w") as fh:
        json.dump({"names": list(names),
                   "columns": ["op", "name", "start_ns", "end_ns", "parent", "raised"],
                   "spans": rows}, fh, separators=(",", ":"))
    return os.path.relpath(path, ROOT)


# ----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(args, setup_runs: int = SETUP_RUNS) -> dict:
    """One run; returns the full record (metrics, tallies, environment)."""
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)
    import qillum
    from qillum import cli, fock, montecarlo

    if os.path.dirname(os.path.abspath(qillum.__file__)) != os.path.join(SRC, "qillum"):
        raise RuntimeError(f"imported qillum from {qillum.__file__}, not from {SRC}")
    wl = workloads.make_workload(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer, op_profile
        tracer = Tracer(qillum)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        warm = _run_checked(cli, wl.warmup, tmp)
        records, kept, probes = run_loop(
            cli, fock, wl, args.seconds, tracer, tmp,
            lambda: setup_probe(args.workload, args.seed, bool(args.trace)), setup_runs)
        probe_records = [_run_checked(cli, op, tmp, tracer, fock) for op in wl.probe]
    if tracer is not None:
        for r in probe_records:
            r.profile = op_profile(r.profile)
    failed = [r for r in [warm] + records if r.reason]
    result = {
        "correct": not failed,
        "attempted": len(records) + 1,
        "failed": len(failed),
        "failed_frac": len(failed) / (len(records) + 1),
        "failure_reasons": _tally([warm] + records),
        "range_probe": {
            "attempted": len(probe_records),
            "failed": sum(1 for r in probe_records if r.reason),
            "failure_reasons": _tally(probe_records),
        },
        "setup_probes": probes,
        "environment": environment(args),
    }
    if args.trace:
        result["metrics"] = per_layer(records, probe_records, probes, wl,
                                      montecarlo.SHARD_SIZE)
        result["units"] = PER_LAYER
        result["spans_file"] = _write_spans(args.workload, kept)
    else:
        result["metrics"], result["detail"] = end_to_end(records, probes, wl)
        result["units"] = END_TO_END
    return result


_DETAIL_UNITS = {"peak_rss_mb": "MB", "trials_per_s": "1/s", "raw.trials_per_s": "1/s",
                 "loop_time_s": "s", "host_speed": "ratio", "setup_host_speed": "ratio"}


def _print_human(result: dict) -> None:
    env = result["environment"]
    print(f"# perfbench workload={env['workload']} seed={env['seed']} trace={env['trace']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{name:44s} {value:.6g} {result['units'][name]}")
    for name, value in result.get("detail", {}).items():
        unit = _DETAIL_UNITS.get(name) or END_TO_END.get(name.removeprefix("raw."), "")
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:44s} {text} {unit}".rstrip())
    print(f"{'failed_frac':44s} {result['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']}) {json.dumps(result['failure_reasons'])}")
    probe = result["range_probe"]
    if probe["attempted"]:
        print(f"{'range_probe.failed_frac':44s} "
              f"{probe['failed'] / probe['attempted']:.6g} "
              f"({probe['failed']}/{probe['attempted']}) {json.dumps(probe['failure_reasons'])}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qillum", "__init__.py")):
        print(f"error: no qillum sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = benchmark(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = result["environment"]
    path = os.path.join(OUT, f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    _print_human(result)
    print(f"# record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
