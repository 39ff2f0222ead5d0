"""Host-speed reference: fixed numpy and stdlib work that imports nothing
from involstab, sampled while the measured work runs.

On a shared VM the speed of the host drifts by more than half within
seconds (CPU time tracks wall time; steal stays near zero), so a wall time
alone says as much about the neighbours as about the code. A reference
sampled between passes misses the drift during a pass, so `Sampler` times
one short reference loop every INTERVAL_S from a SIGALRM handler while the
work runs, and once before it starts. The work's nominal time is its wall
time minus the time spent in those samples, scaled by NOMINAL_S over the
mean sample: the time it would take on a host where one sample takes
NOMINAL_S.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# One sample's time on the host in its usual state (2-core Firecracker VM,
# Python 3.11, numpy 2.4); a fixed scale, never re-measured.
NOMINAL_S = 0.001

_A = np.array([[1.0 + 2.0j, 0.5], [0.25j, 3.0]])


def sample() -> float:
    """Wall seconds of one fixed loop of small complex products, sup norms
    and blake2b hashes, the operations a certified pass is made of."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(80):
        b = (_A * (1.0 + k * 1e-6)) @ _A.conj().T
        acc += float(np.max(np.abs(b)))
        acc += hashlib.blake2b(b.tobytes(), digest_size=8).digest()[0]
    return time.perf_counter() - t0


class Sampler:
    """Times the block it wraps and, if `active`, samples the host's speed
    meanwhile. Not reentrant: it owns SIGALRM and the real-time interval
    timer."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []

    def __enter__(self) -> "Sampler":
        if self.active:
            self.samples = [sample()]
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._t0
        if self.active:
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    @property
    def sampled_s(self) -> float:
        """Time spent sampling inside the block."""
        return sum(self.samples[1:])

    @property
    def ref_s(self) -> float | None:
        return statistics.mean(self.samples) if self.samples else None

    @property
    def nominal_s(self) -> float | None:
        if not self.samples:
            return None
        return nominal(self.wall_s, self.sampled_s, self.ref_s)


def nominal(wall_s: float, sampled_s: float, ref_s: float) -> float:
    return (wall_s - sampled_s) * NOMINAL_S / ref_s
