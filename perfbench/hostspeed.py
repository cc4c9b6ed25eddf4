"""Host-speed probe: scales a wall time to a reference host speed.

On a shared virtual machine the CPU's speed moves under the benchmark. On a
2-vCPU VM a fixed pure-Python loop ran about 1.45x slower in some phases than
in others, and a phase lasted from a second to over a minute. A wall time
then mostly says how much of the run fell in slow phases: ten-run sets of a
workload's median op time spread by up to 26%.

So the benchmark times a fixed loop of its own (the probe) right before and
right after an activity and, for activities longer than
:data:`SAMPLE_INTERVAL_S`, every :data:`SAMPLE_INTERVAL_S` seconds during it,
from a SIGALRM handler in the same thread. A wall time ``t`` becomes
``t * REFERENCE_PROBE_S / mean(probe times)``: the time the activity would
take on a host that runs the probe in :data:`REFERENCE_PROBE_S`. The probe is
the benchmark's own code, so a change to the program moves the scaled time
and never the probe; the probes taken during an activity are part of its wall
time, about 1.5% of it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_LOOPS = 20_000
# The probe's time in the fast phase of a 2-vCPU VM (Xeon, Python 3.11); it
# only fixes the scale, so that scaled times read close to that host's seconds.
REFERENCE_PROBE_S = 0.0014
SAMPLE_INTERVAL_S = 0.1


def probe() -> float:
    """Seconds the host takes right now for a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


class Sampler:
    """Context manager that probes the host before, during and after its body.

    ``during=False`` takes only the probes before and after, for activities
    that run in another process or are too short for a sample.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> Sampler:
        self.samples = [probe()]
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def scale(self, seconds: float) -> float:
        """``seconds`` measured inside this sampler, at the reference host speed."""
        return seconds * REFERENCE_PROBE_S / statistics.fmean(self.samples)
