"""Machine speed, read from a fixed reference kernel.

The machine is shared: its speed moves by a third within minutes, and flips
between a fast and a slow state within a second.  Timings are quoted at a
reference speed: a latency times REFERENCE_S over the kernel's time around
it.  This module imports only ``time``, so the import probe in run.py can
sample the kernel in a fresh interpreter without importing anything
charperm imports.
"""

import time

# Time of reference_kernel at which the scaled timings are quoted: about
# its median on the 2-core machine the baseline was measured on.
REFERENCE_S = 0.008


def reference_kernel() -> None:
    """Fixed pure-Python work of the kind charperm's scalar field layer does:
    carry-less products of small integers."""
    for i in range(1, 4500):
        a, b, r = i, 7 * i + 3, 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1


def kernel_seconds() -> float:
    """One sample: the median time of three kernel runs."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        runs.append(time.perf_counter() - t0)
    return sorted(runs)[1]


class Speed:
    """Kernel samples taken between operations.

    A call takes a sample once ``every`` seconds have passed or when forced,
    and returns the index of the latest sample, the mark of the operation
    that follows.  A latency times factor(mark) is that latency at the
    reference speed.
    """

    def __init__(self, every: float = 1.0):
        self.every = every
        self.kernel_s = []
        self._due = float("-inf")

    def __call__(self, force: bool = False) -> int:
        if force or time.perf_counter() >= self._due:
            self.kernel_s.append(kernel_seconds())
            self._due = time.perf_counter() + self.every
        return len(self.kernel_s) - 1

    def factor(self, mark: int) -> float:
        """REFERENCE_S over the mean kernel time of the samples mark - 1,
        mark and mark + 1: one sample reads the fast or slow state of a
        moment, three span the seconds around the operation."""
        window = self.kernel_s[max(mark - 1, 0):mark + 2]
        return REFERENCE_S * len(window) / sum(window)
