"""Host-speed probe: rescales measured times to a fixed reference speed.

On a shared VM the speed of identical work drifts by up to 1.6x within
seconds and a slow spell can outlast a whole run, so raw times of the same
run spread by about 30% from one run to the next. The probe times a fixed
small-vector numpy kernel (independent of ``subbeam``) every
``INTERVAL_S`` during a run, between calls of the workload's step function,
and scales every stretch of time between two probes by the speed the
probes at its ends saw. Scaled times read as seconds at the speed where
the kernel takes ``NOMINAL_S``; probe time itself is left out.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_S = 0.005
INTERVAL_S = 0.2
_ITERS = 300


def reference_kernel() -> float:
    """Fixed small-vector numpy loop, the work the host speed is judged by."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = np.exp(0.3j * np.outer(np.arange(4), np.arange(16)))
    acc = 0.0
    for _ in range(_ITERS):
        x = np.abs(s @ w) ** 2
        w = w + 1e-3 * ((x / np.sum(x)) @ np.conj(s))
        w = np.where(np.abs(w) > 1.0, w / np.abs(w), w)
        acc += float(np.min(x))
    return acc


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def maybe_probe(self) -> None:
        """Probe when the last probe is at least ``INTERVAL_S`` old."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.probe()

    def kernel_times(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scaled(self, a: float, b: float) -> float:
        """Duration of [a, b] outside the probes, at the nominal speed.

        [a, b] must lie between the first and the last probe.
        """
        times = self.kernel_times()
        total = 0.0
        i = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while i + 1 < len(self.starts) and self.ends[i] < b:
            lo, hi = max(a, self.ends[i]), min(b, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) * NOMINAL_S / ((times[i] + times[i + 1]) / 2)
            i += 1
        return total
