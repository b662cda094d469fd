"""Host-speed reference for timings on shared machines.

On a shared VM the host's load changes how fast the interpreter and numpy
run, over seconds to minutes.  One sweep op ran at anything from 2.6k to
4.7k points/s in consecutive 2-second windows, and the median op time of
identical 20-second runs drifted by up to 50% over ten minutes.  The
kernel below does single-threaded interpreter and numpy work that does
not touch qillum.  Timed next to the ops, it gives the host's speed at
that moment, and a timing scaled by ``NOMINAL_S / kernel time`` is the
same work expressed at a fixed host speed.

Only the workloads whose ops are single-threaded interpreter and numpy
work (sweep, report, simulate) are scaled.  ``validate`` is dominated by
multi-threaded BLAS and large-array traffic, which the kernel does not
track; scaling made its spread worse, so its timings stay raw.

Set-up time is scaled by a second reference, ``import_point``: a fresh
interpreter that imports qillum's third-party dependencies and nothing of
qillum.  Fresh-interpreter import cost moves with the host independently
of the CPU kernel (see README.md), so the kernel is not used for it.
"""

import subprocess
import sys
import time

import numpy as np

#: Kernel time that defines the reference host speed; about the kernel's
#: time on the 2-vCPU VM the benchmark was written on.
NOMINAL_S = 0.005

#: Op time between two calibration points in the timed loop.
PERIOD_S = 0.25

#: Import-reference time that defines the reference host speed for set-up;
#: about its time on the VM the benchmark was written on.
IMPORT_NOMINAL_S = 0.5

#: What the import reference imports: the modules qillum needs from numpy
#: and scipy, without qillum, so the program cannot change it.
IMPORT_REFERENCE = "import numpy, scipy.sparse, scipy.linalg"

_RNG_KEY = np.array([7, 0], dtype=np.uint64)
_SMALL = np.arange(16.0).reshape(4, 4) + 3.0 * np.eye(4)


def kernel_s() -> float:
    """One run of the reference kernel: an integer loop, a Philox draw and
    small-matrix calls like the program's 4x4 algebra."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    np.random.Generator(np.random.Philox(key=_RNG_KEY)).normal(0.0, 1.0, 100_000)
    for _ in range(40):
        np.linalg.eigvals(_SMALL @ _SMALL.T)
    return time.perf_counter() - t0


def point() -> float:
    """A calibration point: the fastest of three kernel runs, so a single
    interruption does not read as a slow host."""
    return min(kernel_s() for _ in range(3))


def import_point() -> float:
    """Wall time of a fresh interpreter that runs ``IMPORT_REFERENCE``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], capture_output=True,
                   check=True, timeout=120)
    return time.perf_counter() - t0
