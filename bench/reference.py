"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same work can take a third longer from one second to
the next, because other tenants load the same physical cores, and process
CPU time moves with wall time.  The benchmark therefore runs this kernel
before, during and after every item and scales the item's time by
``REFERENCE_SECONDS`` over the median kernel time: a reported time is what
the item would take on a machine where the kernel takes
``REFERENCE_SECONDS``.  The kernel mixes small matrix products, ufuncs and
interpreter work, like the library, and no change to the library can alter
it.  Raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

# the kernel's typical time on the machine the baseline was measured on
REFERENCE_SECONDS = 2.5e-4
# process CPU seconds between kernel runs inside an item
SAMPLE_INTERVAL = 0.02

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def kernel_seconds() -> float:
    start = time.perf_counter()
    x = _MATRIX
    for _ in range(12):
        x = np.maximum(x @ _MATRIX * 0.02, 0.0)
    acc = 0.0
    for i in range(2000):
        acc += i * 0.5
    return time.perf_counter() - start


def scale_now(samples: int = 5) -> float:
    """Factor that turns wall seconds measured now into reference seconds."""
    return REFERENCE_SECONDS / statistics.median(kernel_seconds() for _ in range(samples))


class Speedometer:
    """Samples the kernel around and inside items.

    ``start`` begins an item: the kernel time measured after the previous
    item counts as the first sample, and a CPU-time timer signal runs the
    kernel every SAMPLE_INTERVAL while the item runs.  ``pause`` stops the
    timer (it may be called more than once).  ``finish`` runs the kernel once
    more and returns the item's scale and the wall seconds spent sampling
    inside it, which the caller takes off the item's time.
    """

    def __init__(self):
        self._last = kernel_seconds()
        self._samples: List[float] = []
        self._stolen = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(kernel_seconds())
        self._stolen += time.perf_counter() - start

    def start(self) -> None:
        self._samples = [self._last]
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGVTALRM, self._previous)
            self._previous = None

    def finish(self) -> Tuple[float, float]:
        self.pause()
        self._last = kernel_seconds()
        self._samples.append(self._last)
        return REFERENCE_SECONDS / statistics.median(self._samples), self._stolen
