"""Host speed probe, to normalize wall times measured on a shared machine.

On a shared 2-core host the speed of a fixed piece of Python code drifts by
up to 15% either way over a few seconds, as neighbours load the host. That
spread a 20 s pass by 15-20% from run to run, more than a useful regression
bound. While a timed block runs, SIGALRM fires every ``interval`` seconds
and runs a fixed pure-Python probe (about 0.4 ms) on the main thread. Over
any interval of the block, the mean probe time measures how slow the host
was, and

    normalized time = (wall time - probe time) * REF_PROBE_S / mean probe time

is the wall time the block would have taken at the reference host speed.
The probe runs between bytecodes, so a long C call delays a sample until it
returns; it never runs inside the package's code.
"""

from __future__ import annotations

import signal
import time

# mean probe time on the 2-core reference host when it runs fast; it only
# sets the scale, since every run of the benchmark uses the same constant
REF_PROBE_S = 0.00040


def probe() -> int:
    # integer arithmetic only: it allocates no container, so it can never
    # start a garbage collection of the pass's heap
    x = 1
    for i in range(2500):
        x = (x * 1103515245 + i) & 0x7FFFFFFF
    return x


class SpeedProbe:
    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Time from start to end at the reference speed, probe time removed."""
        return normalize(self.samples, start, end)


def normalize(samples, start: float, end: float) -> float:
    """(wall - probe time) * REF_PROBE_S / mean probe time, over [start, end).

    A probe that was descheduled reads many times the median and would
    weigh far more in the mean than the pause it caused in the block, so
    each sample counts at most twice the median. An interval too short to
    hold a sample is scaled by all samples.
    """
    inside = [d for t, d in samples if start <= t < end]
    basis = sorted(inside or [d for _, d in samples] or [REF_PROBE_S])
    cap = 2.0 * basis[len(basis) // 2]
    mean = sum(min(d, cap) for d in basis) / len(basis)
    return (end - start - sum(inside)) * REF_PROBE_S / mean
