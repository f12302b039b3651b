"""Timing of the benchmark's steps, normalised against a calibration probe.

Import after the BLAS thread count is set: this module loads NumPy.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

# The calibration probes: fixed loops of the same kinds of work as the
# workloads, run between every two timed steps.  On the shared 2-vCPU
# machine this benchmark was written on, each core flips between a fast
# state and one up to 2x slower several times a second, and the share of
# slow time drifts from minute to minute, so raw wall times of the same code
# spread by 20-40% between runs.  Each step's time is therefore divided by
# the mean of the probes just before and after it; the median of that ratio
# over the run's rounds, times the probe's time on an uncontended core of
# that machine (a 2.0 GHz Xeon vCPU), is the step's time in reference
# seconds.
#
# The "small" probe (small NumPy calls in a Python loop, plus matvecs with
# one 256 x 256 matrix) stays in cache like the presets and fd_general.
# The "wide" probe cycles matvecs over eight 256 x 256 matrices, the 4 MB
# working set of the d = 256 game's coefficients, so it slows with the
# wide workload when other tenants compete for the shared cache.
_SMALL = 0.5 * np.eye(4)
_WIDE = np.random.default_rng(0).standard_normal((256, 256)) / 16


@functools.cache
def _wide_set():
    return np.random.default_rng(1).standard_normal((8, 256, 256)) / 16


def small_probe() -> float:
    """Wall time of one run of the small calibration loop."""
    w, v, acc = np.ones(4), np.ones(256), 0.0
    t0 = time.perf_counter()
    for _ in range(600):
        g = _SMALL @ w
        acc += float(np.linalg.norm(g))
        w = w - 0.01 * g
    for _ in range(60):
        v = _WIDE @ v
        v /= np.linalg.norm(v)
    return time.perf_counter() - t0


def wide_probe() -> float:
    """Wall time of one run of the wide calibration loop."""
    matrices, v, acc = _wide_set(), np.ones(256), 0.0
    t0 = time.perf_counter()
    for _ in range(25):
        for m in matrices:
            g = m @ v
            acc += float(np.linalg.norm(g))
        v = g / np.linalg.norm(g)
    return time.perf_counter() - t0


# Probe name -> (probe, its uncontended time on the reference machine).
PROBES = {"small": (small_probe, 3.2e-3), "wide": (wide_probe, 5.4e-3)}


def run_round(steps, probe, tracer=None):
    """Run every step once, with a probe between steps.

    Returns the outputs, each step's wall time, and each step's wall time
    over the mean of its neighbouring probes.
    """
    outputs, times, ratios = {}, {}, {}
    before = probe()
    for name, step in steps:
        if tracer is not None:
            tracer.job = name
        t0 = time.perf_counter()
        try:
            outputs[name] = step()
        except Exception as exc:
            outputs[name] = exc
        times[name] = time.perf_counter() - t0
        after = probe()
        ratios[name] = times[name] / (0.5 * (before + after))
        before = after
    return outputs, times, ratios


def reference_seconds(rounds, ref_s) -> float:
    """One round's time in reference seconds: per step, the median over
    rounds of its probe ratio, summed over the steps, times ``ref_s``."""
    return ref_s * sum(statistics.median(r[name] for r in rounds)
                       for name in rounds[0])
