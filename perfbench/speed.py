"""Probe of the current core's speed, used to rescale wall times.

On a shared 2-vCPU Xeon host the core this process runs on switches, for
seconds to tens of seconds at a time, between a fast state and one about
1.7x slower, and the two vCPUs switch independently.  A 55 s run falls
mostly into one state often enough that the median wall time of a pass
spread by 10-31% (first to third quartile, over ten runs), and the
minimum did no better.  So a fixed loop of small numpy operations, the
kind the program's kernels are made of, is timed every ``INTERVAL_S`` of
wall time while a pass runs, and the pass's wall time is rescaled to a
core on which the probe takes ``REFERENCE_S``: over one ``walk-lstm`` run
the pass-to-pass variation fell from 6.0% to 2.0% (coefficient of
variation), and the rescaled time of a pass with twice the LSTM epochs
was 1.94x, where the wall time was 2.0x.  Over two sets of ten runs the
median rescaled pass spread 2.3-3.5%.

The reference is a fixed time, not one measured in the run, because a
run may never see the fast state.  It is the fast state's probe time on
the host above, so rescaled times there read as fast-state wall times;
on another host they are in that reference core's seconds, the same for
every commit.  The probe is the benchmark's own code, so a change to the
program does not move it, and its own time is taken out of the rescaled
time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 160e-6
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(size=(50, 50))
_VECTOR = _RNG.normal(size=50)


def probe() -> float:
    """Seconds one fixed loop of small numpy operations takes now (0.15-0.3 ms)."""
    start = time.perf_counter()
    for _ in range(40):
        float((np.tanh(_MATRIX @ _VECTOR) * 0.5).sum())
    return time.perf_counter() - start


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` of wall time inside its ``with``
    block, from a SIGALRM handler in the main thread."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda _sig, _frame: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def rescale(wall_s: float, samples: list[float]) -> float:
    """Wall time of an interval, its probes taken out, on the reference core."""
    if not samples:  # shorter than INTERVAL_S: probe the state just after it
        return wall_s * REFERENCE_S / probe()
    return (wall_s - sum(samples)) * statistics.fmean(REFERENCE_S / s for s in samples)
