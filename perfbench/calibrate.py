"""Machine-speed calibration for the benchmark's timings.

On a shared host the same code runs up to about twice as slowly while
neighbours are busy; such phases flip within a second and also drift over
minutes. To keep runs comparable, the benchmark times a fixed reference
right next to the work it measures and rescales each measured time by

    factor = NOMINAL[reference] / (mean reference time around the work)

so every reported time is the time the work would take at the reference
speed. Raw (unscaled) figures are kept in each run record.

Two references match the two kinds of work:

- ``kernel``: an in-process mix of interpreter work (loops, dict and float
  operations) and small numpy batch calls (draw a block of uniforms,
  compare columns), about 0.3 ms; one sample is the fastest of a few runs.
  It scales in-process ops of a few milliseconds, sampled after every op.
- ``process``: a fresh interpreter that imports numpy and a few standard
  modules, about 0.15 s. It scales work that is itself a fresh process
  (cold CLI ops, set-up, ``-X importtime``), because process start-up
  slows differently from interpreter loops and a millisecond kernel sample
  cannot follow a process that spans several speed flips.

The nominal values are the references' times on an idle 2.0 GHz Intel Xeon
vCPU with Python 3.11, so factors there are about 1.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

NOMINAL_S = {"kernel": 0.0003, "process": 0.14}
KERNEL_REPEATS = 3
REFERENCE_PROCESS = ("-c", "import numpy, json, csv, argparse, decimal, fractions")


def kernel():
    table = {}
    acc = 0.0
    for i in range(1500):
        table[i & 63] = i * 0.5
        acc += table.get(i & 31, 0.0)
    rng = np.random.default_rng(7)
    for _ in range(6):
        draws = rng.random((256, 8))
        keep = np.ones(256, dtype=bool)
        for j in range(4):
            keep &= draws[:, j] > draws[:, j + 4]
        acc += np.flatnonzero(keep).size
    return acc


def _kernel_sample():
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def _process_sample(env):
    t0 = perf_counter()
    subprocess.run([sys.executable, *REFERENCE_PROCESS], env=env, check=True, capture_output=True, timeout=60)
    return perf_counter() - t0


def sample(reference, env=None):
    """Seconds the reference takes now."""
    return _kernel_sample() if reference == "kernel" else _process_sample(env)


def factor(reference, *samples):
    """Scale for a time measured while the reference took ``samples``."""
    return NOMINAL_S[reference] * len(samples) / sum(samples)
