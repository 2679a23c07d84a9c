"""Reference kernels that measure how fast the machine runs at the moment.

On a shared machine the same efxlab trial takes anywhere from 1x to about 2x
its uncontended time, depending on what else runs there, and the slow spells
last tens of seconds, longer than one benchmark run. The CPU time of the
process moves with the wall time, so it cannot separate the two. The
benchmark therefore times a fixed kernel between stretches of trials and
scales the trials' host times by ``reference_s / kernel time``: a reported
time is the time the trial would take when the kernel runs at its reference
speed. The unscaled times are printed in the metadata.

Two kernels cover the two kinds of cost in efxlab: ``python`` is
interpreter-bound (dict, int and loop work, like the TENSOR scan);
``memory`` allocates fresh arrays and gathers through them (like the EXACT
joint-state kernels, whose cost includes faulting in newly allocated pages).
Each workload names the kernels that match its costs; with several, the
scale is the inverse of the mean of their time ratios. On five 20-second
runs per workload, during a period when unscaled times spread by 20 to 75 %
between runs, the kernel each workload names held the spread of its scaled
throughput and median between 3.3 and 6.2 %. The kernels live here and do
not change with efxlab, so a faster efxlab shows up in full.

The kernels run in the benchmark's parent process while the trial process
waits, on the same CPU, so their memory never counts in the trial process's
peak RSS.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def python_kernel() -> int:
    table = {}
    x = 1
    for _ in range(6000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 7)
    return len(table)


def memory_kernel() -> np.ndarray:
    size = 1 << 18
    # an odd multiplier permutes the indices modulo 2^18
    idx = (np.arange(size, dtype=np.int64) * 40503) & (size - 1)
    amps = np.ones(size, dtype=np.complex128)[idx]
    view = amps.reshape(-1, 2, 1 << 9)
    hi = view[:, 0].copy()
    view[:, 0] = hi + view[:, 1]
    view[:, 1] = hi - view[:, 1]
    return amps


# kernel and its reference time: about the 5th percentile of its times on a
# 2-core 2.0 GHz x86-64 VM with Python 3.11 and numpy 2.4, so scaled times
# are about those of that machine when nothing contends for it
KERNELS = {
    "python": (python_kernel, 0.0017),
    "memory": (memory_kernel, 0.0076),
}


class SpeedProbe:
    """Times reference kernels; ``measure`` returns the scale for host times."""

    def __init__(self, kinds) -> None:
        self.kernels = [KERNELS[kind] for kind in kinds]
        self.ratios = []  # mean kernel time over reference time, per probe

    def measure(self) -> float:
        """1 / mean over the kernels of (median of three runs / reference_s)."""
        ratios = []
        for kernel, reference_s in self.kernels:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            ratios.append(statistics.median(times) / reference_s)
        self.ratios.append(statistics.mean(ratios))
        return 1.0 / self.ratios[-1]
