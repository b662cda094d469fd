"""Set-up probe run in a fresh interpreter: import qillum, draw the inputs,
run one warm-up op, and print one JSON line with the timings.

Usage: python3 perfbench/setup_child.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402  (stdlib only before the timed import)
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    t = time.perf_counter()
    import qillum  # noqa: F401
    import_s = time.perf_counter() - t
    modules = len(sys.modules)

    import tempfile

    import workloads
    from qillum import cli

    wl = workloads.make_workload(workload, seed)
    out_dir = os.path.join(here, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        outcome = workloads.run_op(cli, wl.warmup, tmp)
    setup_s = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup_s, "import_qillum_s": import_s,
                      "modules": modules, "warmup_exit": outcome.code,
                      "qillum_file": qillum.__file__}))


if __name__ == "__main__":
    main()
