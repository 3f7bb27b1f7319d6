"""Host-speed references for the timed metrics.

On a shared host the speed of one CPU flips between a fast and a slow mode
(about 2x apart) every few tens of milliseconds, as other tenants come and
go, and the mix drifts from one minute to the next.  A median within one
run cannot remove drift that lasts the whole run, so every timed sample is
reported in reference units: its time scaled to the speed the host had
when the nominal reference times below were measured.  simnorm's code does
not run in the reference work, so a faster or slower simnorm still moves
the result one for one.

- Throughput samples (a library pass, a CLI batch run) run under a Probe:
  a timer signal interrupts the process every PERIOD_S and times a fixed
  micro-loop of pure-Python work, nominal time REF_MICRO_S.  The probe's own
  time is taken out of the sample, and the rest is scaled by the mean
  probe time during that sample.
- Start-up samples pair with the launch of a bare interpreter
  (``python -c pass``) before and after each one, nominal time
  REF_LAUNCH_S: process creation and interpreter start-up drift in ways a
  Python loop does not follow.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.01
# typical fast-mode times on the 2-CPU host (Python 3.11.7) where the first
# baseline was taken; they only fix the units
REF_MICRO_S = 1e-4
REF_LAUNCH_S = 0.05


def micro() -> float:
    """Run the fixed micro-loop once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        x = i * 0.001
        acc += math.atan2(1.0, x + 1.0) + math.hypot(x, 1.0)
    if acc < 0.0:  # keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - t0


class Probe:
    """Times micro() every PERIOD_S from a SIGALRM handler while active.

    Only for the main thread of a process that has no other use for SIGALRM.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._samples.append(micro())

    def __enter__(self) -> Probe:
        micro()  # warm the loop before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list[float]:
        """The samples since the last take."""
        samples, self._samples = self._samples, []
        return samples


def measured(elapsed: float, samples: list[float]) -> tuple[float, float]:
    """(wall time less the probe's own time, that time in reference units)."""
    if not samples:
        raise ValueError("a sample shorter than the probe period has no speed reference")
    own = elapsed - sum(samples)
    return own, own * REF_MICRO_S / statistics.fmean(samples)


def to_reference(times: list[float], refs: list[float], nominal: float) -> list[float]:
    """Sample times in reference units.

    refs holds one reference time before the first sample and one after each
    sample; each sample is scaled by nominal over the mean of the two around it.
    """
    return [t * 2.0 * nominal / (before + after) for t, before, after in zip(times, refs, refs[1:])]
