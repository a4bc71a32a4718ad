"""Host-speed gauge: a fixed kernel that times how fast this host runs now.

The benchmark runs on a few cores of a shared host whose speed drifts by 20%
and more over minutes, so the same job takes that much longer or shorter from
one run to the next.  ``measure()`` times a fixed kernel that uses nothing from
greencell: a pure-Python loop, small numpy calls with Philox generators, and
small dense LAPACK solves, the three kinds of work greencell's hot paths do.
Timing the kernel right before and after a timed step and scaling the step by
``REFERENCE_S / kernel time`` gives the step's time at reference host speed:
the host's drift cancels, a change to greencell does not, since the kernel
never runs greencell code.

Interpreter start-up (``setup_s``) is mostly reading, unmarshalling and
linking modules, which that kernel tracks poorly.  Its gauge is
``measure_import()``: a fresh interpreter that imports numpy and exits, the
part of set-up that greencell does not control.

``REFERENCE_S`` and ``IMPORT_REFERENCE_S`` are the gauges' typical times on the
machine the benchmark was defined on (2-core VM, Python 3.11.7, numpy 2.4.6,
OpenBLAS 0.3.31).  They only fix the scale; comparisons between two commits do
not depend on them.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.1
IMPORT_REFERENCE_S = 0.14
PY_ITERS = 450_000
SMALL_CALLS = 1_800
SOLVES = 200
_N = 120


def _kernel() -> float:
    s = 0
    for i in range(PY_ITERS):
        s += (i * i) % 7
    acc = float(s)
    for k in range(SMALL_CALLS):
        x = np.random.Generator(np.random.Philox(key=k)).random(64)
        acc += float(np.dot(np.exp(-x), x))
    rng = np.random.default_rng(0)
    a = rng.random((_N, _N)) + _N * np.eye(_N)
    b = rng.random(_N)
    for _ in range(SOLVES):
        acc += float(np.linalg.solve(a, b)[0])
    return acc


def measure() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(kernel_s: float) -> float:
    """Factor that turns a wall time measured at this kernel time into reference seconds."""
    return REFERENCE_S / kernel_s


def measure_import(env: dict[str, str], cwd: str) -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0
